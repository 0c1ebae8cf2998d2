"""Numerical-safety layer: dominance estimation, governed solves, the
escalation ladder.

Entry points pass a caller tolerance down to a shared
:class:`Governor`, which (a) decides a priori whether the
truncated-SPIKE approximate path is safe to attempt (cheap
:class:`DominanceEstimate` over the coefficients) and (b) enforces a
posteriori that whatever path ran actually met the tolerance, walking

    accept -> one refinement step -> exact-path re-solve ->
    typed :class:`~repro.util.errors.NumericalBreakdownError`

so a governed solve never returns an unverified answer. See
``docs/robustness.md`` for the full contract.
"""

from .estimate import SAFETY_MARGIN, DominanceEstimate
from .governor import Governor, GovernorDecision, LadderOutcome, residual_refinement

__all__ = [
    "DominanceEstimate",
    "SAFETY_MARGIN",
    "Governor",
    "GovernorDecision",
    "LadderOutcome",
    "residual_refinement",
]
