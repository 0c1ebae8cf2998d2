"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main
from repro.serve import FIXED_WIDTHS


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestDevices:
    def test_lists_all_three(self):
        code, text = _run(["devices"])
        assert code == 0
        for name in ("GeForce 8800 GTX", "GeForce GTX 280", "GeForce GTX 470"):
            assert name in text

    def test_shows_onchip_capacity(self):
        _, text = _run(["devices"])
        assert "1024" in text  # GTX 470's on-chip max


class TestSolve:
    def test_paper_workload(self):
        code, text = _run(
            ["solve", "--workload", "1Kx1K", "--scale", "64", "--tuning", "static"]
        )
        assert code == 0
        assert "residual" in text
        assert "stage 3+4" in text

    def test_custom_workload(self):
        code, text = _run(
            ["solve", "--workload", "16x2048", "--scale", "1", "--tuning", "default"]
        )
        assert code == 0
        assert "16 x 2048" in text

    def test_bad_workload_is_reported(self):
        code, text = _run(["solve", "--workload", "banana"])
        assert code == 2
        assert "error:" in text

    def test_device_selection(self):
        code, text = _run(
            ["solve", "--device", "8800gtx", "--workload", "8x512", "--scale", "1"]
        )
        assert code == 0
        assert "8800" in text


class TestPlan:
    def test_single_device_program(self):
        code, text = _run(["plan", "--workload", "1Kx1K"])
        assert code == 0
        assert "solve program" in text
        assert "OnChipSolve" in text
        assert "priced steps:" in text
        assert "total" in text

    def test_custom_workload_shows_split_steps(self):
        code, text = _run(["plan", "--workload", "1x65536"])
        assert code == 0
        assert "SplitBlock" in text

    def test_distributed_program(self):
        code, text = _run(
            ["plan", "--workload", "1x2M", "--devices", "4", "--mode", "rows"]
        )
        assert code == 0
        assert "dist program" in text
        assert "Transfer" in text
        assert "ReducedSolve" in text

    def test_bad_workload_is_reported(self):
        code, text = _run(["plan", "--workload", "banana"])
        assert code == 2
        assert "error:" in text

    def test_fuse_flag_prints_per_instruction_diff(self):
        code, text = _run(["plan", "--workload", "4Kx4K", "--fuse"])
        assert code == 0
        assert "batched fusion diff (unfused -> fused):" in text
        # Removed staged steps, added batched steps, kept ends.
        assert "- dev0 compute stage3_pcr_thomas  OnChipSolve" in text
        assert "+ dev0 compute fused_sweep        BatchedSolve" in text
        assert "+ dev0 compute interleave         Interleave" in text
        assert "  dev0 compute                    Unpad" in text
        assert "vs unfused)" in text

    def test_fuse_composes_with_distributed_plans(self):
        code, text = _run(
            [
                "plan", "--workload", "1x2M", "--devices", "2",
                "--mode", "rows", "--fuse",
            ]
        )
        assert code == 0
        assert "batched fusion diff (unfused -> fused):" in text
        # Every device's local fragment fuses, not just device 0.
        assert "+ dev0 compute fused_sweep        BatchedSolve" in text
        assert "+ dev1 compute fused_sweep        BatchedSolve" in text
        assert "vs unfused)" in text

    def test_plan_prints_overlap_gantt_for_distributed(self):
        code, text = _run(
            ["plan", "--workload", "1x2M", "--devices", "4"]
        )
        assert code == 0
        assert "per-device timeline" in text
        assert "lanes: # compute" in text
        assert "dev0  compute" in text

    def test_plan_accepts_pipelined_mode(self):
        code, text = _run(
            [
                "plan", "--workload", "1x2M", "--devices", "4",
                "--mode", "pipelined",
            ]
        )
        assert code == 0
        assert "pipelined" in text
        assert "carry_forward" in text


class TestTune:
    def test_prints_switch_points(self):
        code, text = _run(["tune", "--device", "gtx280"])
        assert code == 0
        assert "stage2->3" in text
        assert "model probes" in text

    def test_cache_roundtrip(self, tmp_path):
        cache = str(tmp_path / "t.json")
        code1, text1 = _run(["tune", "--device", "gtx470", "--cache", cache])
        code2, text2 = _run(["tune", "--device", "gtx470", "--cache", cache])
        assert code1 == code2 == 0
        assert "cache (0 probes)" in text2


class TestServeBench:
    def test_reports_speedup(self):
        code, text = _run(
            ["serve-bench", "--requests", "64", "--seed", "1", "--max-workers", "2"]
        )
        assert code == 0
        assert "64 mixed-shape requests" in text
        assert "merged solves" in text
        assert "speedup" in text

    def test_group_cap_flag(self):
        code, text = _run(
            ["serve-bench", "--requests", "32", "--max-group-systems", "8"]
        )
        assert code == 0
        assert "merged solves" in text

    def test_async_prints_one_row_per_fleet(self):
        code, text = _run(["serve-bench", "--async", "--requests", "2000"])
        assert code == 0
        assert "worker-ms" in text
        rows = [line for line in text.splitlines() if line.startswith("| fixed ")]
        assert [row.split("|")[1].strip() for row in rows] == [
            f"fixed {width}" for width in FIXED_WIDTHS
        ]
        (auto,) = [line for line in text.splitlines() if line.startswith("| autoscale ")]
        for row in rows + [auto]:
            assert row.split("|")[7].strip().replace(",", "").isdigit()

    def test_async_rejects_the_retired_flags(self):
        for retired in (["--shards", "8"], ["--autoscale"]):
            with pytest.raises(SystemExit):
                main(["serve-bench", "--async", "--requests", "10", *retired], out=io.StringIO())


class TestFigures:
    def test_writes_all_outputs(self, tmp_path):
        out_dir = tmp_path / "figs"
        code, text = _run(["figures", "--out", str(out_dir)])
        assert code == 0
        for name in ("table1", "table2", "figure5", "figure6", "figure7", "figure8"):
            assert (out_dir / f"{name}.txt").exists(), name
        fig8 = (out_dir / "figure8.txt").read_text()
        assert "1x2M" in fig8
