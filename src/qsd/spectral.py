"""Spectral analysis of killed kernels.

Computes the quasi-stationary distribution alpha (left Perron vector of
the killed kernel), the per-step survival eigenvalue rho, the survival
capacity eta (right Perron vector, scaled so alpha . eta = 1), and the
tilted measure beta = eta * alpha, which is the invariant law of the
chain conditioned to survive forever.

Also certifies the one-shot minorization / survival-comparison condition
(nu, c1, c2) and provides the log-linear decay fitter used by every
convergence report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    Distribution,
    SubStochasticKernel,
    _backward,
    _eigen_residual,
    _forward,
    _shifted_solve,
)

__all__ = [
    "DecayFit",
    "MinorizationCert",
    "MinorizationRefused",
    "PowerIterationError",
    "SpectralTriple",
    "certify_minorization",
    "compute_spectral",
    "fit_decay",
    "fit_log_decay",
]


class PowerIterationError(RuntimeError):
    """Eigenpair iteration did not reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class MinorizationRefused(RuntimeError):
    """The minorization condition could not be certified at any probed t0."""


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


@dataclass(frozen=True)
class MinorizationCert:
    """Certified constants for the one-shot minorization condition.

    Every conditioned t0-step law dominates c1 * nu, and nu's survival
    probability dominates c2 times any state's, over the probed horizon
    with an eigenvector-sandwich tail bound beyond it.
    """

    t0: int
    nu: Distribution
    c1: float
    c2: float
    horizon: int


def _pilot_gamma(K: SubStochasticKernel, triple: SpectralTriple) -> float:
    """Crude conditioned-TV decay rate from a short double-precision run."""
    series = []
    steps = _forward(K, np.eye(K.n), 25)
    next(steps)  # t = 0: the start rows themselves
    for t, rows in enumerate(steps, start=1):
        worst = 0.5 * float(np.abs(rows - triple.alpha).sum(axis=1).max())
        if worst < 1e-12:
            break
        series.append((t, worst))
    if len(series) < 3:
        return 1.0
    return max(fit_decay(series).gamma, 1e-3)


def certify_minorization(
    K: SubStochasticKernel, t0: int = 1, horizon: int | None = None
) -> MinorizationCert:
    """Construct (nu, c1, c2) witnessing the minorization condition.

    nu is the entrywise minimum of the conditioned t0-step laws
    (renormalized), c1 its total mass.  c2 is the worst ratio of nu's
    survival probability to the best state's, probed for t <= horizon;
    the tail beyond the horizon is bounded through the eigenvector
    sandwich (survival ratios converge to eta ratios at the conditioned
    TV decay rate).

    If c1 = 0 at the given t0, t0 is incremented up to max(t0, n^2)
    before the condition is reported as not satisfied.  On a primitive
    kernel some t0 <= n^2 always works.
    """
    if t0 < 1:
        raise ValueError("t0 must be >= 1")
    triple = compute_spectral(K)
    gamma_hat = _pilot_gamma(K, triple)
    if horizon is None:
        horizon = int(math.ceil(20.0 / gamma_hat))
    if horizon < 1:
        raise ValueError("horizon must be >= 1")

    n = K.n
    limit = max(t0, n * n)
    t0_used = None
    for cand, rows in enumerate(_forward(K, np.eye(n), limit)):
        if cand < t0:
            continue
        mins = rows.min(axis=0)
        c1 = float(mins.sum())
        if c1 > 0.0:
            t0_used = cand
            break
    if t0_used is None:
        raise MinorizationRefused(
            f"entrywise minimum of conditioned laws is zero for every t0 from {t0} to {limit}"
        )
    nu = mins / c1

    # Survival-ratio curve: P_nu(t < absorption) / max_x P_x(t < absorption),
    # read off the max-rescaled survival shapes.
    ratios = [1.0] + [float(nu @ v) for t, v in enumerate(_backward(K, horizon)) if t]
    probe_min = min(ratios)

    # Tail beyond the horizon: survival ratios converge to the eta ratio
    # r_inf = nu(eta)/max eta, with relative deviation <= 2 a e^(-g t)/(1 - a e^(-g t)).
    r_inf = float(nu @ triple.eta) / float(triple.eta.max())
    a_loc = 0.0
    for t in range(1, horizon + 1):
        dev = abs(ratios[t] / r_inf - 1.0)
        if dev < 1e-12:
            continue
        # dev <= 2 a q / (1 - a q) with q = e^(-g t)  =>  a >= dev / (q (2 + dev))
        q = math.exp(-gamma_hat * t)
        a_loc = max(a_loc, dev / (q * (2.0 + dev)))
    q_h = math.exp(-gamma_hat * horizon)
    if a_loc * q_h < 1.0:
        tail = r_inf * (1.0 - 2.0 * a_loc * q_h / (1.0 - a_loc * q_h))
    else:
        tail = 0.0
    c2 = min(probe_min, max(tail, 0.0))
    if c2 <= 0.0:
        raise MinorizationRefused(
            f"survival-comparison constant vanished at t0={t0_used}, horizon={horizon}; "
            "probe a longer horizon"
        )
    return MinorizationCert(t0=t0_used, nu=nu, c1=c1, c2=c2, horizon=horizon)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log(value) = log(C) - gamma * t."""

    C: float
    gamma: float
    rms_residual: float


def _log_value(v) -> float:
    v = float(v)
    if v <= 0 or not math.isfinite(v):
        raise ValueError(f"nonpositive value in decay series: {v!r}")
    return math.log(v)


def fit_decay(series) -> DecayFit:
    """Fit C e^(-gamma t) to positive samples by least squares in log space.

    Needs at least three points with distinct times; any nonpositive value
    is rejected.  Decay is not assumed: gamma is simply the negated slope.
    """
    return fit_log_decay([(t, _log_value(v)) for t, v in series])


def fit_log_decay(points) -> DecayFit:
    """:func:`fit_decay` on (t, ln value) pairs, for values past a double's range."""
    pts = [(float(t), float(y)) for t, y in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit a decay rate")
    ts = np.array([t for t, _ in pts])
    ys = np.array([y for _, y in pts])
    if float(ts.std()) == 0.0:
        raise ValueError("degenerate series: all samples at the same time")
    slope, intercept = np.polyfit(ts, ys, 1)
    resid = ys - (slope * ts + intercept)
    return DecayFit(
        C=float(np.exp(intercept)),
        gamma=float(-slope),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
    )


def _tail_rate_fit(points) -> DecayFit:
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
        return DecayFit(C=0.0, gamma=math.inf, rms_residual=0.0)
    return fit_log_decay(tail if len(tail) >= 3 else finite)


def conditioned_tv_rate(core, t_max: int = 60) -> DecayFit:
    """Decay rate of sup_x TV(law of X_t | survival, alpha).

    The series comes from the deflated core (a :class:`qsd.deflation.Deflation`;
    stepwise double-precision noise would swamp it past t ~ 45) and the rate
    is fitted by :func:`_tail_rate_fit` on t = 0 .. t_max, so on the times
    past t_max / 2.
    """
    conditioned, _, _ = core.series(t_max)
    return _tail_rate_fit(list(enumerate(conditioned)))
