"""The survival-conditioned chain and its convergence reports.

The h-transform of a killed kernel by its survival eigenvector turns it
into a stochastic matrix: the law of the chain conditioned to never be
absorbed.  This module builds that kernel and produces three empirical
bound reports:

* ``verify_eta_bound``: the relative error of the finite-horizon survival
  capacity against its limit, enveloped by a1 * e^(-gamma t);
* ``verify_qproc_approx``: total variation between the conditioned-forever
  marginals and the finite-horizon bridge marginals, enveloped by
  a2 * e^(-gamma (T - t));
* ``q_mixing_report``: mixing of the conditioned chain toward its
  invariant law beta, enveloped by C' * e^(-gamma' t).

Each report fits its constant on the first half of the supplied time
range and validates it on the second half, so a grid of two or more
values never validates a point that fitted the constant; a one-value
grid has no second half and is validated on its own fit point (the CLI
refuses such grids).  Observed values come from the
deflated propagation of :mod:`qsd.deflation` and are fitted in log space:
on these grids the true quantities decay far below double-precision
resolution, and past e^-700 below the range of a double.  Every report
takes a command's one :class:`~qsd.deflation.Deflation` core and reads its
series from the core's one walk (:meth:`~qsd.deflation.Deflation.series`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deflation import Deflation
from .kernels import SubStochasticKernel
from .spectral import SpectralTriple, _tail_rate_fit, conditioned_tv_rate

__all__ = [
    "BoundReport",
    "build_q_kernel",
    "fitted_rates",
    "q_mixing_report",
    "verify_eta_bound",
    "verify_qproc_approx",
]

#: A report is valid when no validation point exceeds its bound beyond this.
VIOLATION_SLACK = 1e-9


@dataclass
class BoundReport:
    """Empirically fitted envelope constant for one convergence bound.

    ``constant`` is the minimal envelope constant over the fitting grid,
    ``rate`` the per-step exponential rate used in the envelope, and
    ``max_violation`` the largest observed/bound ratio on the held-out
    validation grid (<= 1 + 1e-9 for a valid report).  ``rows`` hold
    (t, T, observed, bound, ratio) tuples for every probed point.
    """

    name: str
    constant: float
    rate: float
    max_violation: float
    rows: list

    @property
    def valid(self) -> bool:
        return self.max_violation <= 1.0 + VIOLATION_SLACK


def build_q_kernel(K: SubStochasticKernel, S: SpectralTriple) -> np.ndarray:
    """Doob h-transform Q(x,y) = K(x,y) eta(y) / (rho eta(x)), read-only.

    The stochastic kernel of the chain conditioned to survive forever.
    Rows are renormalized by their own sums (which differ from 1 only by
    the eigen-residual of ``S``); the invariant law of the result is
    beta = eta * alpha.
    """
    if np.any(S.eta < 1e-14):
        raise ValueError("eta has entries below 1e-14; h-transform is ill-conditioned")
    Q = K.entries * S.eta[None, :] / (S.rho * S.eta[:, None])
    sums = Q.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValueError("h-transform rows are far from stochastic; triple does not match kernel")
    Q /= sums[:, None]
    beta_defect = float(np.max(np.abs(S.beta @ Q - S.beta)))
    if beta_defect > 1e-10:
        raise ValueError(f"beta is not invariant under the transform (defect {beta_defect:.3e})")
    Q.setflags(write=False)
    return Q


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _split_half(values):
    """First-half / second-half split of a sorted list of distinct values by
    value midpoint; a single value is both the fit and the validation half."""
    mid = (values[0] + values[-1]) / 2.0
    fit = [v for v in values if v <= mid]
    return fit, [v for v in values if v > mid] or fit


def _fit_validate(name: str, rate: float, points, fit, val) -> BoundReport:
    """Fit one envelope constant in log space, validate it, build the report.

    ``points`` holds (key, t, T, observed, ln observed, ln envelope) per
    probed point; ``fit`` and ``val`` are the keys of the fitting and the
    validation points.  The constant is the smallest C with
    observed <= C * envelope on the fit points (a point whose observation
    or envelope is exactly 0 constrains nothing), and ``max_violation`` the
    largest observed/bound ratio on the validation points.  Ratios are
    taken in log space, so observations far below the range of a double
    still validate.
    """
    log_c = max((lo - le for key, _, _, _, lo, le in points
                 if key in fit and lo > -math.inf and le > -math.inf), default=-math.inf)
    rows = []
    max_violation = 0.0
    for key, t, T, obs, lo, le in points:
        log_bound = log_c + le
        if log_bound > -math.inf:
            ratio = _exp(lo - log_bound)
        else:
            ratio = 0.0 if lo == -math.inf else math.inf
        if key in val:
            max_violation = max(max_violation, ratio)
        rows.append((t, T, obs, _exp(log_bound), ratio))
    return BoundReport(name, constant=_exp(log_c), rate=rate,
                       max_violation=max_violation, rows=rows)


def _time_grid(t_grid) -> list[int]:
    ts = sorted({int(t) for t in t_grid})
    if not ts or ts[0] < 1:
        raise ValueError("t_grid must contain integers >= 1")
    return ts


def verify_eta_bound(core: Deflation, t_grid) -> BoundReport:
    """Envelope for the relative defect of finite-horizon survival capacity.

    Computes sup_x |eta_t(x) - eta(x)| / eta_t(x) on the grid, where
    eta_t(x) is the t-step survival probability from x normalized by the
    quasi-stationary survival probability.  The envelope constant a1 is
    the smallest constant matching the observed errors on the first half
    of the grid at the conditioned-TV decay rate; the second half
    validates it.  The two-sided eigenvector sandwich
    (1 -+ a1 e^(-gamma t)) eta_t <= eta <= (1 + a1 e^(-gamma t)) eta_t
    is this envelope rearranged, so it holds on the grid iff the report
    is ``valid``.
    """
    ts = _time_grid(t_grid)
    tvs, _, errs = core.series(ts[-1])

    fit_ts, val_ts = _split_half(ts)
    gamma = _tail_rate_fit([(t, tvs[t]) for t in fit_ts])
    points = [(t, t, None, _exp(errs[t]), errs[t], -gamma * t) for t in ts]
    return _fit_validate("eta_bound", gamma, points, set(fit_ts), set(val_ts))


def verify_qproc_approx(core: Deflation, pairs, gamma: float | None = None) -> BoundReport:
    """Envelope for TV(conditioned-forever law, survival-past-T law).

    For every supplied (t, T) pair, compares the conditioned-forever chain
    from each state with the chain conditioned on survival past T, and
    fits a2 in the envelope a2 * e^(-gamma (T - t)).  The constant is
    fitted on the pairs whose lag T - t falls in the first half of the lag
    range and validated on the rest.

    The two laws of the whole path (X_0..X_t) differ by a density that,
    by the Markov property at t, is a function of X_t alone, so the
    marginal TV compared here is also the TV of the path laws.

    ``gamma`` defaults to the conditioned-TV decay rate fitted on a fresh
    grid.
    """
    pts = sorted({(int(t), int(T)) for t, T in pairs})
    if not pts:
        raise ValueError("no (t, T) pairs supplied")
    if any(t < 0 or T < t for t, T in pts):
        raise ValueError("pairs must satisfy 0 <= t <= T")
    lag_max = max(T - t for t, T in pts)

    if gamma is None:
        gamma = conditioned_tv_rate(core, t_max=max(40, min(120, 4 * lag_max)))
    if gamma == math.inf:
        # conditionally mixed in one step: observed TVs are identically zero
        rows = [(t, T, 0.0, 0.0, 0.0) for t, T in pts]
        return BoundReport("qproc_approx", constant=0.0, rate=math.inf,
                           max_violation=0.0, rows=rows)

    observed = core.bridge_gaps(pts)
    fit_lags, val_lags = _split_half(sorted({T - t for t, T in pts}))
    points = [(T - t, t, T, _exp(observed[(t, T)]), observed[(t, T)], -gamma * (T - t))
              for t, T in pts]
    return _fit_validate("qproc_approx", gamma, points, set(fit_lags), set(val_lags))


def q_mixing_report(core: Deflation, t_grid) -> BoundReport:
    """Mixing envelope of the conditioned-forever chain toward beta.

    Fits C' and gamma' in sup_x TV(t-step law from x, beta)
    <= C' e^(-gamma' t); the rate is a least-squares fit on the tail of
    the fitting half, the constant the minimal envelope constant there,
    both validated on the second half.  A chain that mixes exactly (one
    state, or TV identically zero) reports C' = 0 with an infinite rate.
    """
    ts = _time_grid(t_grid)
    _, series, _ = core.series(ts[-1])

    fit_ts, val_ts = _split_half(ts)
    gamma = _tail_rate_fit([(t, series[t]) for t in fit_ts])
    points = [(t, t, None, _exp(series[t]), series[t], -gamma * t) for t in ts]
    return _fit_validate("q_mixing", gamma, points, set(fit_ts), set(val_ts))


def fitted_rates(core: Deflation) -> tuple[float, float]:
    """(gamma, gamma'): the rates :func:`conditioned_tv_rate` and
    :func:`q_mixing_report` on range(1, 61) fit (the latter on its fit
    half, t <= 30), read from the core's series."""
    # built only to refuse a kernel whose h-transform is ill-conditioned
    build_q_kernel(core.kernel, core.triple)
    _, q_tv, _ = core.series(60)
    return (conditioned_tv_rate(core, 60),
            _tail_rate_fit([(t, q_tv[t]) for t in range(1, 31)]))
