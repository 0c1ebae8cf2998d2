"""Implicit finite-difference Black-Scholes option pricing.

Egloff's GPU PDE solvers (cited in the paper's introduction) target
exactly this workload: backward-in-time parabolic PDEs whose implicit
time steps are tridiagonal solves. This module prices batches of
European options on a log-price grid with backward Euler, factoring
the time-independent matrix once with
:func:`~repro.algorithms.factorized.factorize` and replaying only the
right-hand-side passes of the split chain each time step, and validates
against the Black-Scholes closed form (tested).

PDE in log-price ``y = ln S``:

    V_t + (r - σ²/2) V_y + (σ²/2) V_yy - r V = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms.factorized import factorize
from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import ConfigurationError
from ..util.validation import next_power_of_two

__all__ = ["BlackScholesPricer", "black_scholes_closed_form"]


def black_scholes_closed_form(
    spot: np.ndarray,
    strike: float,
    rate: float,
    sigma: float,
    maturity: float,
    *,
    call: bool = True,
) -> np.ndarray:
    """Closed-form European option value (the validation oracle)."""
    from scipy.special import ndtr

    spot = np.asarray(spot, dtype=float)
    with np.errstate(divide="ignore"):
        d1 = (
            np.log(spot / strike) + (rate + 0.5 * sigma**2) * maturity
        ) / (sigma * np.sqrt(maturity))
    d2 = d1 - sigma * np.sqrt(maturity)
    disc = strike * np.exp(-rate * maturity)
    if call:
        return spot * ndtr(d1) - disc * ndtr(d2)
    return disc * ndtr(-d2) - spot * ndtr(-d1)


def _cell_averaged_payoff(
    y: np.ndarray, dy: float, strikes: np.ndarray, call: bool
) -> np.ndarray:
    """Average the payoff over each grid cell ``[y - dy/2, y + dy/2]``.

    For a call, ``(1/dy) ∫ max(e^u - K, 0) du`` has the closed form used
    below; the put follows from the same integral on the other side of
    ``ln K``. Returns ``(strikes, grid)``.
    """
    lo = y[None, :] - dy / 2.0
    hi = y[None, :] + dy / 2.0
    k = np.log(strikes)[:, None]
    K = strikes[:, None]
    # Integration bounds clipped to the in-the-money part of each cell.
    if call:
        a = np.clip(k, lo, hi)
        b = hi
        integral = np.where(
            b > a, (np.exp(b) - np.exp(a)) - K * (b - a), 0.0
        )
    else:
        a = lo
        b = np.clip(k, lo, hi)
        integral = np.where(
            b > a, K * (b - a) - (np.exp(b) - np.exp(a)), 0.0
        )
    return np.maximum(integral, 0.0) / dy


@dataclass
class BlackScholesPricer:
    """Backward-Euler pricer on a shared log-price grid.

    One tridiagonal system per option per time step; all options price in
    a single batched factorise-once/solve-many loop.
    """

    rate: float = 0.03
    sigma: float = 0.25
    grid_points: int = 512
    time_steps: int = 200
    y_width: float = 4.0  # half-width of the log-moneyness grid

    def __post_init__(self) -> None:
        if self.sigma <= 0 or self.grid_points < 8 or self.time_steps < 1:
            raise ConfigurationError("invalid pricer configuration")
        # PCR machinery wants a power-of-two interior.
        self.grid_points = next_power_of_two(self.grid_points)

    def price(
        self,
        strikes: np.ndarray,
        maturity: float,
        spot: float,
        *,
        call: bool = True,
    ) -> np.ndarray:
        """Price European options for every strike; returns values at
        ``spot``."""
        strikes = np.atleast_1d(np.asarray(strikes, dtype=float))
        if maturity <= 0 or spot <= 0 or (strikes <= 0).any():
            raise ConfigurationError("maturity, spot and strikes must be positive")
        m = strikes.shape[0]
        n = self.grid_points
        r, sig = self.rate, self.sigma

        # Log-price grid centred on ln(spot), one grid per strike batch.
        y0 = np.log(spot)
        y = np.linspace(y0 - self.y_width, y0 + self.y_width, n)
        dy = y[1] - y[0]
        dt = maturity / self.time_steps
        S = np.exp(y)

        # Backward Euler: (I - dt L) V^{k} = V^{k+1} + boundary terms,
        # L = (r - sig^2/2) d_y + (sig^2/2) d_yy - r.
        drift = r - 0.5 * sig**2
        lower = dt * (0.5 * sig**2 / dy**2 - 0.5 * drift / dy)
        upper = dt * (0.5 * sig**2 / dy**2 + 0.5 * drift / dy)
        diag = 1.0 + dt * (sig**2 / dy**2 + r)

        a = np.full((m, n), -lower)
        b = np.full((m, n), diag)
        c = np.full((m, n), -upper)
        # Dirichlet boundaries: identity rows whose RHS carries the
        # asymptotic option values; interior rows couple to them.
        a[:, 0] = 0.0
        c[:, -1] = 0.0
        b[:, 0] = 1.0
        c[:, 0] = 0.0
        b[:, -1] = 1.0
        a[:, -1] = 0.0
        template = TridiagonalBatch(a, b, c, np.zeros((m, n)))
        factors = factorize(template)

        # Terminal payoff per strike, cell-averaged (Tavella-Randall):
        # sampling the kinked payoff pointwise costs O(dy) accuracy when
        # the strike falls between nodes; averaging the payoff over each
        # cell restores O(dy^2).
        V = _cell_averaged_payoff(y, dy, strikes, call)

        for k in range(self.time_steps):
            tau = (k + 1) * dt  # time to maturity after this step
            rhs = V.copy()
            # Dirichlet boundary values from the asymptotics.
            if call:
                rhs[:, 0] = 0.0
                rhs[:, -1] = S[-1] - strikes * np.exp(-r * tau)
            else:
                rhs[:, 0] = strikes * np.exp(-r * tau) - S[0]
                rhs[:, -1] = 0.0
            V = factors.solve(rhs)

        # The grid is centred on ln(spot) but ln(spot) is generally not a
        # node (even point count); interpolate linearly for O(dy^2)
        # readout accuracy.
        i = int(np.searchsorted(y, y0)) - 1
        i = min(max(i, 0), n - 2)
        w = (y0 - y[i]) / (y[i + 1] - y[i])
        return (1.0 - w) * V[:, i] + w * V[:, i + 1]
