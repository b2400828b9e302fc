"""Bridge contraction and the converse certification.

The bridge operator at lag t under horizon T maps a starting state to the
law of X_t conditioned on survival past T.  These operators compose like
a (time-inhomogeneous) Markov semigroup, so a uniform-in-T contraction of
the pair supremum at one lag forces geometric decay of the pair supremum
of the full conditioned evolution - which is what the certification
checks, and what ultimately pins down a unique quasi-stationary law.

The search forms every bridge law it probes from one forward walk of the
conditioned rows P_t and one walk of the rescaled survival vectors v_s:
row x of the bridge at (t, T) is P_t[x] * v_(T-t), renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .deflation import Deflation
from .kernels import HorizonTooLarge, SubStochasticKernel, _backward, _forward, _max_pair_tv
from .qprocess import build_q_kernel
from .spectral import compute_spectral, fit_decay

__all__ = [
    "ContractionReport",
    "HypothesisReport",
    "certify_converse",
    "hypothesis_check",
]


@dataclass
class ContractionReport:
    """Outcome of the contraction search.

    When ``certified`` is set, every probed horizon T >= T1 (a geometric
    grid plus the infinite-horizon limit) has pair-supremum TV at lag t1
    of at most ``delta`` <= 1/2, and ``decay_curve`` records the pair
    supremum of the full conditioned evolution along T together with the
    implied geometric envelope.
    """

    t1: int
    T1: int
    delta: float
    decay_curve: list
    certified: bool
    probed: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def envelope(self, T: int) -> float:
        return 0.5 ** ((T - self.T1) // self.t1) if T >= self.T1 else 1.0


def certify_converse(
    K: SubStochasticKernel, t1_max: int | None = None, T_max: int = 200
) -> ContractionReport:
    """Find the smallest lag whose bridge contraction is uniformly <= 1/2.

    For each candidate lag the horizon supremum is probed on a geometric
    grid {t1, 2 t1, 4 t1, ...} up to ``T_max`` and completed with the
    infinite-horizon limit (on a finite primitive chain the bridge
    coefficient converges in T, so the probe plus the limit is the honest
    finite-compute rendering of a supremum over all horizons).  On
    success, the pair supremum of the conditioned evolution is tabulated
    along T against the geometric envelope (1/2)^floor((T - T1)/t1); a
    search that exhausts its limits returns a not-certified report with
    the probed frontier, never a silent pass.
    """
    if t1_max is None:
        t1_max = max(8, K.n)
    if t1_max < 1 or T_max < 1:
        raise ValueError("search limits must be positive")
    S = compute_spectral(K)
    Q = build_q_kernel(K, S)
    forward = _forward(K, np.eye(K.n), t1_max)
    next(forward)  # P_0
    surv = list(_backward(K, T_max))

    def bridge_tv(P: np.ndarray, lag: int) -> float:
        """Pair supremum of the bridge laws: rows of P reweighted by v_lag."""
        if lag == 0:  # no future to condition on; renormalizing again would move bits
            return _max_pair_tv(P)
        M = P * surv[lag]
        mass = M.sum(axis=1, keepdims=True)
        if np.any(mass <= 0.0):
            raise HorizonTooLarge("no surviving mass for the requested bridge")
        return _max_pair_tv(M / mass)

    probed: dict[int, list] = {}
    chosen = None
    for t1 in range(1, t1_max + 1):
        grid = []
        T = t1
        while T <= max(T_max, t1):
            grid.append(T)
            T *= 2
        P = next(forward)
        deltas = [(T, bridge_tv(P, T - t1)) for T in grid]
        # infinite-horizon limit: as T grows the bridge laws converge to
        # those of the conditioned-forever chain
        limit = _max_pair_tv(np.linalg.matrix_power(Q, t1))
        sup_delta = max(max(d for _, d in deltas), limit)
        probed[t1] = deltas + [(None, limit)]
        if sup_delta <= 0.5:
            chosen = (t1, sup_delta)
            break
    if chosen is None:
        return ContractionReport(
            t1=0, T1=0, delta=math.nan, decay_curve=[], certified=False,
            probed=probed, details={"t1_max": t1_max, "T_max": T_max},
        )
    t1, delta = chosen
    T1 = t1

    # Decay of the pair supremum of the conditioned evolution along T,
    # probed on the lattice T1 + k t1 (where the floor in the envelope is
    # exact), from the deflated rows, since the true values decay below the
    # double-precision noise floor of a stepwise product.
    # An empty lattice (T1 > T_max) leaves the envelope check vacuous.
    curve_Ts = range(T1, T_max + 1, t1)
    decay_curve = []
    if curve_Ts:
        core = Deflation(K, S)
        decay_curve = [(T, math.exp(v)) for Ts, D in core.blocks(curve_Ts)
                       for T, v in zip(Ts, core.conditioned_pair_tv(D))]
    report = ContractionReport(
        t1=t1, T1=T1, delta=delta, decay_curve=decay_curve, certified=True,
        probed=probed, details={"t1_max": t1_max, "T_max": T_max},
    )
    report.details["envelope_ok"] = all(
        v <= report.envelope(T) * (1.0 + 1e-9) for T, v in decay_curve
    )
    return report


@dataclass
class HypothesisReport:
    """Decay curves behind the converse certification's two hypotheses.

    ``marginal_curve``: per horizon T, the worst TV distance (over states
    and probed lags) between the conditioned-forever marginal and the
    bridge marginal.  ``coupling_curve``: per lag t, the worst pair TV
    distance between conditioned-forever marginals.  Both must vanish for
    the converse machinery to apply; fitted rates are reported when the
    curves carry signal.
    """

    marginal_curve: list
    coupling_curve: list
    marginal_decays: bool
    coupling_decays: bool
    marginal_rate: float | None = None
    coupling_rate: float | None = None


def hypothesis_check(core: Deflation, t_grid, T_grid) -> HypothesisReport:
    """Evaluate the two decay curves the converse certification rests on.

    The marginal curve at horizon T takes the supremum over probed lags
    t <= T (so ``t_grid`` should stay well below the horizons in
    ``T_grid``); the coupling curve is indexed by the lag alone.  Both
    come from one walk of the deflated rows D_t and are flagged if they
    fail to decay.
    """
    ts = sorted({int(t) for t in t_grid})
    Ts = sorted({int(T) for T in T_grid})
    if not ts or not Ts or ts[0] < 1 or Ts[0] < 1:
        raise ValueError("grids must contain integers >= 1")
    walked = core.bridge_gaps([(t, T) for t in ts for T in Ts if t <= T], pair_ts=ts)
    coupling_curve = [(t, math.exp(walked[t])) for t in ts]
    marginal_curve = [(T, math.exp(max((walked[(t, T)] for t in ts if t <= T),
                                       default=-math.inf)))
                      for T in Ts]

    def decays(curve):
        head = curve[0][1]
        tail = curve[-1][1]
        return tail == 0.0 or tail <= 0.5 * head

    def rate(curve):
        pos = [(t, v) for t, v in curve if v > 0]
        if len(pos) < 3:
            return None
        try:
            return fit_decay(pos).gamma
        except ValueError:
            return None

    return HypothesisReport(
        marginal_curve=marginal_curve,
        coupling_curve=coupling_curve,
        marginal_decays=decays(marginal_curve),
        coupling_decays=decays(coupling_curve),
        marginal_rate=rate(marginal_curve),
        coupling_rate=rate(coupling_curve),
    )
