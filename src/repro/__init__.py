"""repro — auto-tuned multi-stage tridiagonal solving on a simulated GPU.

Reproduction of Davidson, Zhang & Owens, "An Auto-tuned Method for Solving
Large Tridiagonal Systems on the GPU" (IPDPS 2011).

The package is organised bottom-up:

- :mod:`repro.systems` — tridiagonal batch containers and generators;
- :mod:`repro.algorithms` — the reference algorithms (Thomas, CR, PCR,
  hybrids, LU), vectorised NumPy with LAPACK-checked numerics;
- :mod:`repro.gpu` — the simulated machine model (devices, occupancy,
  memory, cost, execution sessions);
- :mod:`repro.kernels` — the paper's kernels against that model;
- :mod:`repro.core` — the multi-stage solver, planner, and the three
  tuning strategies;
- :mod:`repro.baselines` — the CPU (MKL-class) and prior-GPU comparators;
- :mod:`repro.analysis` — figure/table regeneration for the evaluation;
- :mod:`repro.obs` — structured tracing, metrics, and trace export.

The most common entry points are re-exported here.
"""

__version__ = "1.5.0"

from . import algorithms, analysis, baselines, core, dist, gpu, kernels, numerics, obs, service, systems, util  # noqa: F401
from .core import MultiStageSolver, SelfTuner, SolveResult, SwitchPoints, solve  # noqa: F401
from .numerics import DominanceEstimate, Governor  # noqa: F401
from .obs import MetricsRegistry, Tracer  # noqa: F401
from .dist import DeviceGroup, DistributedSolver, make_device_group  # noqa: F401
from .service import BatchSolveService, ServiceResult  # noqa: F401
from .gpu import Device, DeviceSpec, make_device  # noqa: F401
from .systems import TridiagonalBatch, TridiagonalSystem  # noqa: F401

__all__ = [
    "__version__",
    "algorithms",
    "analysis",
    "baselines",
    "core",
    "dist",
    "gpu",
    "kernels",
    "numerics",
    "obs",
    "service",
    "systems",
    "util",
    "solve",
    "DominanceEstimate",
    "Governor",
    "MetricsRegistry",
    "Tracer",
    "BatchSolveService",
    "ServiceResult",
    "MultiStageSolver",
    "SolveResult",
    "SwitchPoints",
    "SelfTuner",
    "DeviceGroup",
    "DistributedSolver",
    "make_device_group",
    "Device",
    "DeviceSpec",
    "make_device",
    "TridiagonalBatch",
    "TridiagonalSystem",
]
