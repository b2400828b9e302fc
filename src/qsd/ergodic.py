"""Exact conditional time-averages and their convergence envelopes.

All expectations here are computed exactly (to accumulation error) by
matrix propagation, never by sampling.  Time integrals over [0, T] are
discretized as averages over the integer steps 0..T-1 (left Riemann sum
with the step as unit), consistently everywhere.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .deflation import Deflation, _log
from .kernels import SubStochasticKernel, _backward, _forward
from .qprocess import BoundReport, _fit_validate, _split_half
from .spectral import SpectralTriple

__all__ = [
    "SamplingPlan",
    "conditional_functional",
    "envelope_grid_minimizer",
    "optimal_t0",
    "plan_envelope",
    "plan_errors",
    "verify_ergodic_theorem",
    "verify_general_bound",
]


@dataclass(frozen=True)
class SamplingPlan:
    """A probability measure over observation times in [0, T].

    ``atoms`` is a tuple of (t, weight) pairs with integer times and
    weights summing to 1.
    """

    kind: str
    T: int
    atoms: tuple

    def __post_init__(self):
        if self.kind not in ("uniform", "dirac", "custom"):
            raise ValueError(f"unknown plan kind {self.kind!r}")
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
            raise ValueError(f"atom weights sum to {total!r}, not 1")

    @classmethod
    def uniform(cls, T: int) -> "SamplingPlan":
        """Average over the steps 0..T-1 (left Riemann discretization)."""
        if T < 1:
            raise ValueError("uniform plan needs T >= 1")
        return cls("uniform", T, tuple((t, 1.0 / T) for t in range(T)))

    @classmethod
    def dirac(cls, t0: int, T: int) -> "SamplingPlan":
        return cls("dirac", T, ((int(t0), 1.0),))

    @classmethod
    def custom(cls, atoms, T: int) -> "SamplingPlan":
        return cls("custom", T, tuple((int(t), float(w)) for t, w in atoms))


def _test_vector(K: SubStochasticKernel, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (K.n,):
        raise ValueError("f must be a length-n vector")
    return f


def _plan_values(K: SubStochasticKernel, P: np.ndarray, f: np.ndarray, plans) -> np.ndarray:
    """E(f against plan | survival past plan.T) from each start row of ``P``.

    Entry (i, x) is plan i's value from start row x.  One backward pass
    gives the survival shapes v_lag ~ K^lag 1 (any rescale cancels) and one
    streamed forward pass the conditioned rows P_t, so a single row block is
    alive at a time; atom (t, w) of a plan with horizon T adds
    w (P_t (v_(T-t) f)) / (P_t v_(T-t)).
    """
    atoms = defaultdict(list)  # t -> [(plan index, weight, lag)]
    for i, plan in enumerate(plans):
        for t, w in plan.atoms:
            atoms[t].append((i, w, plan.T - t))
    lags = {lag for at in atoms.values() for _, _, lag in at}
    surv = {lag: v for lag, (v, _) in enumerate(_backward(K, max(lags))) if lag in lags}
    out = np.zeros((len(plans), len(P)))
    for t, (rows, _) in enumerate(_forward(K, P, max(atoms))):
        for i, w, lag in atoms.get(t, ()):
            v = surv[lag]
            out[i] += w * (rows @ (v * f)) / (rows @ v)
    return out


def conditional_functional(K: SubStochasticKernel, x: int, f, plan: SamplingPlan) -> float:
    """Exact E(integral of f(X_t) against the plan | survival past T).

    Equals the plan-weighted combination of f integrated against the
    bridge marginals at each atom time; survival reweighting is carried in
    renormalized form, so large T cannot underflow.
    """
    f = _test_vector(K, f)
    if not 0 <= x < K.n:
        raise ValueError("state out of range")
    row = np.zeros((1, K.n))
    row[0, x] = 1.0
    return float(_plan_values(K, row, f, [plan])[0, 0])


def plan_errors(K: SubStochasticKernel, S: SpectralTriple, f, plans) -> list[float]:
    """sup_x |E_x(f against plan | survival past plan.T) - beta(f)| per plan,
    for all start states and all plans in one pass."""
    f = _test_vector(K, f)
    values = _plan_values(K, np.eye(K.n), f, plans)
    return [float(e) for e in np.abs(values - float(S.beta @ f)).max(axis=1)]


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


def envelope_grid_minimizer(gamma: float, gamma_prime: float, T: int) -> int:
    """Exact integer minimizer of e^(-gamma' t) + e^(-gamma (T-t)) on [0, T]."""
    if not (gamma > 0 and gamma_prime > 0):
        raise ValueError("rates must be positive")
    return min(
        range(T + 1),
        key=lambda t: math.exp(-gamma_prime * t) + math.exp(-gamma * (T - t)),
    )


def verify_general_bound(
    K: SubStochasticKernel,
    S: SpectralTriple,
    reports,
    f,
    fit_plans,
    validation_plans,
) -> BoundReport:
    """Envelope constant a3 for plan-averaged conditional expectations.

    Checks sup_x |E_x(f against plan | survival past T) - beta(f)| against
    a3 ||f||_inf * sum_atoms w (e^(-gamma' t) + e^(-gamma (T-t))), with the
    rates taken from the supplied (eta-bound, mixing) report pair.  The
    constant is fitted on ``fit_plans`` and validated on
    ``validation_plans``.

    Both the expectation and the reference beta(f) come from the deflated
    propagation of :mod:`qsd.deflation`, with the same refined spectral
    pair: the point of the report is the conditioning error alone, which
    on a deep grid sits far below the double-precision spectral residual.
    """
    eta_report, mixing_report = reports
    gamma = eta_report.rate
    gamma_prime = mixing_report.rate
    f = _test_vector(K, f)
    fit_plans = list(fit_plans)
    validation_plans = list(validation_plans)
    if not fit_plans or not validation_plans:
        raise ValueError("need both fit and validation plans")
    f_inf = float(np.max(np.abs(f)))

    plans = fit_plans + validation_plans
    observed = Deflation(K, S).plan_errors(f, plans)

    details = {"gamma": gamma, "gamma_prime": gamma_prime}
    fit_Ts = [p.T for p in fit_plans]
    rate = min(gamma, gamma_prime)

    if not (math.isfinite(gamma) and math.isfinite(gamma_prime)):
        rows = [(_plan_time(p), p.T, math.exp(v), 0.0, 0.0) for p, v in zip(plans, observed)]
        return BoundReport("general_bound", constant=0.0, rate=rate, grid=fit_Ts,
                           max_violation=0.0, rows=rows, details=details)

    points = [(i, _plan_time(p), p.T, math.exp(v), v,
               _log(f_inf * plan_envelope(gamma, gamma_prime, p)))
              for i, (p, v) in enumerate(zip(plans, observed))]
    n_fit = len(fit_plans)
    return _fit_validate("general_bound", rate, fit_Ts, points, set(range(n_fit)),
                         set(range(n_fit, len(plans))), details)


def _plan_time(plan: SamplingPlan):
    return plan.atoms[0][0] if plan.kind == "dirac" else None


def verify_ergodic_theorem(
    K: SubStochasticKernel, S: SpectralTriple, f, T_grid
) -> BoundReport:
    """1/T envelope for the conditional time-average of f.

    For each probed horizon, compares sup_x |time-averaged conditional
    expectation - beta(f)| with a4 ||f||_inf / T; a4 is the supremum of
    T * error / ||f||_inf over the first half of the grid, validated on
    the second half, where the report also checks that T * error does not
    grow.  Plain double precision suffices: the errors decay like 1/T,
    never below the noise floor on sane grids.
    """
    f = _test_vector(K, f)
    Ts = sorted({int(T) for T in T_grid})
    if not Ts or Ts[0] < 1:
        raise ValueError("T_grid must contain integers >= 1")
    f_inf = float(np.max(np.abs(f)))
    beta_f = float(S.beta @ f)

    errors = dict(zip(Ts, plan_errors(K, S, f, [SamplingPlan.uniform(T) for T in Ts])))

    fit_Ts, val_Ts = _split_half(Ts)
    scaled = {T: T * errors[T] / f_inf if f_inf > 0 else 0.0 for T in Ts}
    non_increasing = all(scaled[b] <= scaled[a] + 1e-9 for a, b in zip(val_Ts, val_Ts[1:]))
    details = {
        "fit_grid": fit_Ts,
        "validation_grid": val_Ts,
        "non_increasing_on_validation": non_increasing,
        "beta_f": beta_f,
    }
    points = [(T, None, T, errors[T], _log(errors[T]), _log(f_inf / T)) for T in Ts]
    return _fit_validate("ergodic_theorem", 0.0, Ts, points, set(fit_Ts), set(val_Ts), details)
