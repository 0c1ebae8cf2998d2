"""The three parameter-selection strategies of the paper, plus the
readers every solver front end shares for ``tuning=`` and ``cache=``."""

from typing import Union

from ...gpu.executor import Device
from ...util.errors import ConfigurationError
from ..config import SwitchPoints
from .base import Tuner, TuningTrace
from .cache import TuningCache, WorkloadClass, resolve_cache
from .default import DEFAULT_SWITCH_POINTS, DefaultTuner
from .dynamic import SelfTuner
from .search import exhaustive_min, pow2_hill_climb, pow2_range
from .static import MachineQueryTuner

__all__ = [
    "Tuner",
    "TuningTrace",
    "TuningCache",
    "DefaultTuner",
    "DEFAULT_SWITCH_POINTS",
    "MachineQueryTuner",
    "SelfTuner",
    "make_tuner",
    "resolve_tuning",
    "resolve_cache",
    "shape_free_switch_points",
    "pow2_hill_climb",
    "pow2_range",
    "exhaustive_min",
    "TUNER_NAMES",
]

TUNER_NAMES = ("default", "static", "dynamic")

# The canonical strategy of every accepted spelling.
_STRATEGY_OF = {
    **dict.fromkeys(("default", "untuned", "none"), "default"),
    **dict.fromkeys(("static", "machine", "machine-query"), "static"),
    **dict.fromkeys(("dynamic", "self", "self-tuned", "auto"), "dynamic"),
}


def _strategy(name) -> str:
    key = name.strip().lower() if isinstance(name, str) else None
    if key not in _STRATEGY_OF:
        raise ConfigurationError(
            f"unknown tuning strategy {name!r}; expected one of {TUNER_NAMES}"
        )
    return _STRATEGY_OF[key]


def make_tuner(name: str, **kwargs) -> Tuner:
    """Build a tuner by strategy name (``default``/``static``/``dynamic``)."""
    strategy = _strategy(name)
    if strategy == "default":
        return DefaultTuner()
    if strategy == "static":
        return MachineQueryTuner()
    return SelfTuner(**kwargs)


def resolve_tuning(tuning) -> Union[SwitchPoints, Tuner, str]:
    """A front end's ``tuning=``, checked when the front end is built.

    Switch points and tuners (anything with ``switch_points``) come back
    as given, a strategy name as its canonical name, ``None`` as
    ``"default"``; anything else raises :class:`ConfigurationError`.
    """
    if tuning is None:
        return "default"
    if isinstance(tuning, str):
        return _strategy(tuning)
    if isinstance(tuning, SwitchPoints) or hasattr(tuning, "switch_points"):
        return tuning
    raise ConfigurationError(
        "tuning must be SwitchPoints, a tuner, or a strategy name; "
        f"got {type(tuning).__name__}"
    )


def shape_free_switch_points(
    tuning: Union[SwitchPoints, Tuner, str],
    cache,
    device: Device,
    dsize: int,
    workload_class: WorkloadClass,
) -> SwitchPoints:
    """One set of switch points for every shape on ``device`` at ``dsize``.

    ``tuning`` is a :func:`resolve_tuning` result: switch points are used
    as given, a strategy name is tuned once through ``cache`` under
    ``workload_class``, and a tuner is asked directly at shape (0, 0).
    """
    if isinstance(tuning, SwitchPoints):
        return tuning
    if isinstance(tuning, str):
        return cache.get_or_tune(
            device.name,
            dsize,
            lambda: make_tuner(tuning).switch_points(device, 0, 0, dsize),
            workload_class=workload_class,
        )
    return tuning.switch_points(device, 0, 0, dsize)
