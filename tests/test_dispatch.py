"""Tests for the hybrid GPU/CPU dispatcher (the Figure-8 boundary)."""

import pytest

from repro.algorithms import max_residual
from repro.core import HybridDispatcher, MultiStageSolver
from repro.systems import generators
from repro.util.errors import ConfigurationError


@pytest.fixture(scope="module")
def dispatcher():
    return HybridDispatcher("gtx470")


class TestDecision:
    def test_parallel_workloads_go_to_gpu(self, dispatcher):
        """Figure 8: the GPU wins every parallel workload by 5-15x."""
        for m, n in ((1024, 1024), (2048, 2048), (4096, 4096)):
            choice = dispatcher.price(m, n)
            assert choice.engine == "gpu", (m, n)
            assert choice.advantage > 3.0

    def test_single_enormous_system_goes_to_cpu(self, dispatcher):
        """Figure 8's one CPU win: 1 system of 2M equations."""
        choice = dispatcher.price(1, 1 << 21)
        assert choice.engine == "cpu"
        assert 1.0 < choice.advantage < 3.0  # a modest win, as in the paper

    def test_single_systems_belong_to_cpu(self, dispatcher):
        """One system cannot fill the machine (paper §III-C), so the CPU
        wins single systems at essentially every size."""
        crossover = dispatcher.crossover_size(1)
        assert crossover is not None
        assert crossover <= 1 << 12

    def test_no_crossover_for_many_systems(self, dispatcher):
        """Machine-filling counts stay on the GPU through large sizes."""
        assert dispatcher.crossover_size(1024, max_exp=14) is None

    def test_crossover_monotone_in_count(self, dispatcher):
        """More parallel systems push the boundary out (or away)."""
        c1 = dispatcher.crossover_size(1)
        c4 = dispatcher.crossover_size(4)
        if c4 is not None:
            assert c4 >= c1

    def test_validation(self, dispatcher):
        with pytest.raises(ConfigurationError):
            dispatcher.price(0, 64)


class TestSolve:
    def test_gpu_path_numerics(self, dispatcher):
        batch = generators.random_dominant(256, 1024, rng=0)
        x, choice = dispatcher.solve(batch)
        assert choice.engine == "gpu"
        assert max_residual(batch, x) < 1e-12

    def test_cpu_path_numerics(self, dispatcher):
        batch = generators.random_dominant(1, 1 << 16, rng=1)  # float64
        choice = dispatcher.price(1, 1 << 16, dsize=8)
        x, used = dispatcher.solve(batch)
        assert used.engine == choice.engine
        assert max_residual(batch, x) < 1e-12

    def test_cpu_engine_actually_used(self, dispatcher):
        """A shape the CPU owns must route there and still solve exactly."""
        batch = generators.random_dominant(1, 1 << 21, rng=4)
        x, used = dispatcher.solve(batch)
        assert used.engine == "cpu"
        assert max_residual(batch, x) < 1e-12

    def test_gpu_solves_reuse_one_solver(self, monkeypatch):
        """GPU solves run on the solver the dispatcher built, so its
        lowered programs are reused."""
        dispatcher = HybridDispatcher("gtx470")
        built = []
        init = MultiStageSolver.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(MultiStageSolver, "__init__", counted)
        batch = generators.random_dominant(64, 512, rng=2)
        for _ in range(3):
            x, choice = dispatcher.solve(batch)
            assert choice.engine == "gpu"
            assert max_residual(batch, x) < 1e-12
        assert built == []

    def test_a_priced_shape_is_not_priced_again(self, monkeypatch):
        import repro.core.dispatch as dispatch

        dispatcher = HybridDispatcher("gtx470")
        first = dispatcher.price(64, 512, 8)
        calls = []
        simulate_plan = dispatch.simulate_plan

        def counted(*args, **kwargs):
            calls.append(args)
            return simulate_plan(*args, **kwargs)

        monkeypatch.setattr(dispatch, "simulate_plan", counted)
        batch = generators.random_dominant(64, 512, rng=2)
        choices = [dispatcher.price(64, 512, 8), dispatcher.choose(batch)]
        for _ in range(2):
            x, choice = dispatcher.solve(batch)
            assert max_residual(batch, x) < 1e-12
            choices.append(choice)
        assert calls == []
        assert all(choice == first for choice in choices)

    def test_choice_reports_both_prices(self, dispatcher):
        batch = generators.random_dominant(64, 512, rng=2)
        choice = dispatcher.choose(batch)
        assert choice.gpu_ms > 0 and choice.cpu_ms > 0
