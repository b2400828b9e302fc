"""Exact conditional time-averages and their convergence envelopes.

Every plan-weighted conditional expectation here comes from the caller's
deflated core (:meth:`qsd.deflation.Deflation.plan_deviations`), never from
sampling: the deviation from beta(f) is carried itself, so errors far below
double-precision resolution keep their digits and an exactly zero error
stays exactly zero.  One core serves every plan and start state, so the
Perron triple is solved and refined once.  Time integrals over [0, T] are
discretized as averages over the integer steps 0..T-1 (left Riemann sum
with the step as unit), consistently everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deflation import Deflation, _log
from .qprocess import BoundReport, _fit_validate, _split_half

__all__ = [
    "SamplingPlan",
    "conditional_functional",
    "optimal_t0",
    "plan_envelope",
    "verify_ergodic_theorem",
]


@dataclass(frozen=True)
class SamplingPlan:
    """A probability measure over observation times in [0, T].

    ``atoms`` is a tuple of (t, weight) pairs with integer times and
    weights summing to 1.
    """

    T: int
    atoms: tuple

    def __post_init__(self):
        if self.T < 0:
            raise ValueError("T must be >= 0")
        if not self.atoms:
            raise ValueError("plan has no atoms")
        total = 0.0
        for t, w in self.atoms:
            if not (isinstance(t, (int, np.integer)) and 0 <= t <= self.T):
                raise ValueError(f"atom time {t!r} outside [0, {self.T}]")
            if w < 0:
                raise ValueError("atom weights must be >= 0")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom weights sum to {float(total)!r}, not 1")

    @classmethod
    def uniform(cls, T: int) -> "SamplingPlan":
        """Average over the steps 0..T-1 (left Riemann discretization)."""
        if T < 1:
            raise ValueError("uniform plan needs T >= 1")
        return cls(T, tuple((t, 1.0 / T) for t in range(T)))

    @classmethod
    def dirac(cls, t0: int, T: int) -> "SamplingPlan":
        return cls(T, ((int(t0), 1.0),))


def _test_vector(core: Deflation, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (core.kernel.n,):
        raise ValueError("f must be a length-n vector")
    return f


def conditional_functional(core: Deflation, x: int, f, plan: SamplingPlan) -> float:
    """Exact E(integral of f(X_t) against the plan | survival past T).

    beta(f) plus the signed deviation from x that
    :meth:`Deflation.plan_deviations` carries in deflated form, so large T
    cannot underflow.
    """
    f = _test_vector(core, f)
    if not 0 <= x < core.kernel.n:
        raise ValueError("state out of range")
    dev = core.plan_deviations(f, [plan])[0]
    return float(core.beta @ f) + float(np.ldexp(dev.hat[x], dev.exp))


def plan_envelope(gamma: float, gamma_prime: float, plan: SamplingPlan) -> float:
    """sum_atoms w (e^(-gamma' t) + e^(-gamma (T - t))), the envelope per unit
    ||f||_inf; 0 when a rate is not finite (the chain conditions in one step)."""
    if not (math.isfinite(gamma) and math.isfinite(gamma_prime)):
        return 0.0
    return sum(w * (math.exp(-gamma_prime * t) + math.exp(-gamma * (plan.T - t)))
               for t, w in plan.atoms)


def optimal_t0(gamma: float, gamma_prime: float, T: int) -> int:
    """Observation time minimizing the two-term envelope, rounded to a step."""
    if not (gamma > 0 and gamma_prime > 0):
        raise ValueError("rates must be positive")
    t0 = gamma * T / (gamma + gamma_prime)
    return min(max(int(math.floor(t0 + 0.5)), 0), T)


def verify_ergodic_theorem(core: Deflation, f, T_grid) -> BoundReport:
    """1/T envelope for the conditional time-average of f.

    For each probed horizon, compares sup_x |time-averaged conditional
    expectation - beta(f)| with a4 ||f||_inf / T; a4 is the supremum of
    T * error / ||f||_inf over the first half of the grid, validated on
    the second half.  The errors come from :meth:`Deflation.plan_errors` with
    their logs, so an error below double-precision resolution is measured,
    not rounding noise, and an exactly zero error (constant f) is exactly 0.
    """
    f = _test_vector(core, f)
    Ts = sorted({int(T) for T in T_grid})
    if not Ts or Ts[0] < 1:
        raise ValueError("T_grid must contain integers >= 1")
    f_inf = float(np.max(np.abs(f)))

    errors = core.plan_errors(f, [SamplingPlan.uniform(T) for T in Ts])

    fit_Ts, val_Ts = _split_half(Ts)
    points = [(T, None, T, obs, v, _log(f_inf / T)) for T, (obs, v) in zip(Ts, errors)]
    return _fit_validate("ergodic_theorem", 0.0, points, set(fit_Ts), set(val_Ts))
