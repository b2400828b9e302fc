"""Spectral analysis of killed kernels.

Computes the quasi-stationary distribution alpha (left Perron vector of
the killed kernel), the per-step survival eigenvalue rho, the survival
capacity eta (right Perron vector, scaled so alpha . eta = 1), and the
tilted measure beta = eta * alpha, which is the invariant law of the
chain conditioned to survive forever.

Also fits the log-linear decay rates (:func:`fit_log_decay`,
:func:`conditioned_tv_rate`) that the convergence reports use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Distribution, SubStochasticKernel, _eigen_residual, _shifted_solve

__all__ = [
    "PowerIterationError",
    "SpectralTriple",
    "compute_spectral",
    "fit_log_decay",
]


class PowerIterationError(RuntimeError):
    """Eigenpair iteration did not reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SpectralTriple:
    """Perron data of a killed kernel.

    alpha is the quasi-stationary distribution, rho the per-step survival
    eigenvalue, eta the positive right eigenvector with alpha . eta = 1,
    and beta = eta * alpha (entrywise).  ``residual`` is the largest
    eigen-equation defect actually achieved, ``iterations`` the power steps
    plus shifted inverse solves it took, and ``power_steps`` the first of
    these two counts.
    """

    alpha: Distribution
    rho: float
    eta: np.ndarray
    beta: Distribution
    residual: float
    iterations: int = 0
    power_steps: int = 0

    @property
    def lambda0(self) -> float:
        """Per-step exponential decay rate of survival, -ln(rho)."""
        return -math.log(self.rho)


#: Most shifted power steps before the solve switches to shifted inverse
#: iteration.  Fast-mixing kernels converge inside it (a few dozen to about 190
#: steps); a kernel whose warm-up cannot reach ``tol`` by its end hands off
#: earlier (see :data:`HANDOFF_WINDOW`).
WARMUP_STEPS = 200

#: From warm-up step ``2 * HANDOFF_WINDOW`` on, the per-step contraction of the
#: residual is read off the residuals ``HANDOFF_WINDOW`` steps apart.
HANDOFF_WINDOW = 10

#: The warm-up hands off once that contraction, continued to step
#: :data:`WARMUP_STEPS`, leaves the residual above ``HANDOFF_MARGIN * tol``.
#: An early window sees the residual fall faster than it will later (faster
#: modes still decay), so the projection errs towards staying in the warm-up.
HANDOFF_MARGIN = 1e3


def _warm_up_cannot_converge(residuals: list[float], tol: float) -> bool:
    """Whether the warm-up, at step ``len(residuals)``, visibly cannot reach ``tol``."""
    t = len(residuals)
    if t < 2 * HANDOFF_WINDOW:
        return False
    q = (residuals[-1] / residuals[-1 - HANDOFF_WINDOW]) ** (1.0 / HANDOFF_WINDOW)
    return q >= 1.0 or residuals[-1] * q ** (WARMUP_STEPS - t) > HANDOFF_MARGIN * tol


def _perron_upper_bound(row_max: float, a: np.ndarray, aA: np.ndarray,
                        h: np.ndarray, Ah: np.ndarray) -> float:
    """Collatz-Wielandt upper bound on rho, a few ulps up.

    ``max (A h / h)`` and ``max (a A / a)`` bound rho from above when the
    vector is positive; the largest row sum ``row_max`` always does.
    """
    bounds = [row_max]
    if np.all(h > 0):
        bounds.append(float(np.max(Ah / h)))
    if np.all(a > 0):
        bounds.append(float(np.max(aA / a)))
    sigma = min(bounds)
    return sigma + 4 * float(np.spacing(sigma))


def compute_spectral(
    K: SubStochasticKernel, tol: float = 1e-12, max_iters: int = 1_000_000
) -> SpectralTriple:
    """Left/right Perron pair: shifted power iteration, then Noda iteration.

    Up to :data:`WARMUP_STEPS` steps iterate on (K + I/2)/1.5; the shift
    suppresses any residual periodicity without moving eigenvectors.  From
    step ``2 * HANDOFF_WINDOW`` on, the warm-up ends early once its residual,
    contracting at the rate of the last :data:`HANDOFF_WINDOW` steps, would
    still be above ``HANDOFF_MARGIN * tol`` at step :data:`WARMUP_STEPS`
    (spectral-gap ratio near 1).  The solve then continues with Noda's
    shifted inverse iteration (Numer. Math. 17, 1971): solve
    ``(sigma I - K) h' = h`` and ``(sigma I - K)^T a' = a`` with sigma the
    Collatz-Wielandt upper bound on rho, which converges to rho
    superlinearly, so a few solves reach the rounding floor.  Each step of
    either phase forms ``a @ K`` and ``K @ h`` once, and rho, the residual,
    the bound and the next power step all read them.

    Deterministic: fixed uniform start, fixed iteration order.
    ``max_iters`` counts the steps of both phases, and the triple records
    the warm-up's share as ``power_steps``.  Raises
    :class:`PowerIterationError` with the last residual when ``max_iters``
    is exhausted or an inverse step stops lowering the residual above
    ``tol``, and rejects kernels whose survival eigenvalue reaches 1.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a positive finite number, not {tol!r}")
    A = K.entries
    n = K.n
    a = np.full(n, 1.0 / n)
    h = np.ones(n)
    aA, Ah = a @ A, A @ h
    residuals: list[float] = []
    residual = math.inf
    steps = 0
    while (residual > tol and steps < min(WARMUP_STEPS, max_iters)
           and not _warm_up_cannot_converge(residuals, tol)):
        a_new = (aA + 0.5 * a) / 1.5
        a = a_new / a_new.sum()
        h_new = (Ah + 0.5 * h) / 1.5
        h = h_new / h_new.max()
        aA, Ah = a @ A, A @ h
        rho = float(aA.sum())
        residual = _eigen_residual(a, aA, h, Ah, rho)  # max h is exactly 1
        residuals.append(residual)
        steps += 1
    power_steps = steps
    row_max = float(A.sum(axis=1).max())
    while residual > tol and steps < max_iters:
        steps += 1
        try:
            a_new, h_new = _shifted_solve(A, _perron_upper_bound(row_max, a, aA, h, Ah), a, h)
        except np.linalg.LinAlgError:  # the bound is an exact eigenvalue: nothing to gain
            res_new = math.inf
        else:
            a_new = a_new / a_new.sum()
            # max |h| = 1 and positive: a shift within rounding of rho may flip the sign
            h_new = h_new / h_new[np.argmax(np.abs(h_new))]
            aA_new, Ah_new = a_new @ A, A @ h_new
            rho_new = float(aA_new.sum())
            res_new = _eigen_residual(a_new, aA_new, h_new, Ah_new, rho_new)
        if not res_new < residual:
            raise PowerIterationError(
                f"inverse iteration stalled after {steps} iterations "
                f"(residual {residual:.3e})",
                residual,
            )
        a, h, aA, Ah, rho, residual = a_new, h_new, aA_new, Ah_new, rho_new, res_new
    if residual > tol:
        raise PowerIterationError(
            f"no convergence after {max_iters} iterations (residual {residual:.3e})",
            residual,
        )
    if rho >= 1.0 - 1e-12:
        raise ValueError(f"survival eigenvalue {float(rho)!r} >= 1: kernel has no absorption")
    eta = h / float(a @ h)
    beta = a * eta
    return SpectralTriple(alpha=a, rho=rho, eta=eta, beta=beta, residual=residual,
                          iterations=steps, power_steps=power_steps)


def fit_log_decay(points) -> float:
    """Rate gamma of a least-squares fit ln value = ln C - gamma t to (t, ln value)
    pairs, so values past a double's range fit too.

    Needs at least three points with distinct times.  Decay is not
    assumed: gamma is simply the negated slope.
    """
    pts = [(float(t), float(y)) for t, y in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit a decay rate")
    ts = np.array([t for t, _ in pts])
    ys = np.array([y for _, y in pts])
    if float(ts.std()) == 0.0:
        raise ValueError("degenerate series: all samples at the same time")
    slope, _ = np.polyfit(ts, ys, 1)
    return float(-slope)


def _tail_rate_fit(points) -> float:
    """Rate fit on the tail half of a (t, ln value) series.

    Early times carry subdominant-eigenvalue transients; the envelope
    rearrangement multiplies any rate bias by e^(gamma t), so the rate
    must come from the clean tail of the window: the points past its
    midpoint.  A tail with no nonzero point has an infinite rate (the
    series has reached exactly 0, as on a chain that mixes in one step).
    Otherwise points that are exactly 0 (ln -inf) are dropped, and a tail
    of fewer than three nonzero points falls back to every nonzero point;
    fewer than three of those is too short a window and raises ValueError.
    """
    ts = [t for t, _ in points]
    mid = (min(ts) + max(ts)) / 2.0
    finite = [(t, v) for t, v in points if v > -math.inf]
    tail = [(t, v) for t, v in finite if t > mid]
    if not tail:
        return math.inf
    return fit_log_decay(tail if len(tail) >= 3 else finite)


def conditioned_tv_rate(core, t_max: int = 60) -> float:
    """Decay rate of sup_x TV(law of X_t | survival, alpha).

    The series comes from the deflated core (a :class:`qsd.deflation.Deflation`;
    stepwise double-precision noise would swamp it past t ~ 45) and the rate
    is fitted by :func:`_tail_rate_fit` on t = 0 .. t_max, so on the times
    past t_max / 2.
    """
    conditioned, _, _ = core.series(t_max)
    return _tail_rate_fit(list(enumerate(conditioned)))
