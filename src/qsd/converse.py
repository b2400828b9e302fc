"""Bridge contraction and the converse certification.

The bridge operator at lag t under horizon T maps a starting state to the
law of X_t conditioned on survival past T.  These operators compose like
a (time-inhomogeneous) Markov semigroup, so a uniform-in-T contraction of
the pair supremum at one lag forces geometric decay of the pair supremum
of the full conditioned evolution - which is what the certification
checks, and what ultimately pins down a unique quasi-stationary law.

The search forms every bridge law it probes from one forward walk of the
conditioned rows P_t and one backward walk of the rescaled survival
vectors v_s (:func:`_backward`): row x of the bridge at (t, T) is
P_t[x] * v_(T-t), renormalized.  Its T = infinity limit, the t-step law of
the conditioned-forever chain, is P_t[x] * eta, renormalized, with the
refined eta of the command's :class:`qsd.deflation.Deflation` core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deflation import Deflation
from .kernels import HorizonTooLarge, SubStochasticKernel, _forward, _max_pair_tv
from .qprocess import build_q_kernel
from .spectral import compute_spectral

__all__ = ["ContractionReport", "certify_converse"]


@dataclass
class ContractionReport:
    """Outcome of the contraction search.

    When ``certified`` is set, every probed horizon T >= t1 (a geometric
    grid plus the infinite-horizon limit) has pair-supremum TV at lag t1
    of at most ``delta`` <= 1/2, and ``decay_curve`` records the pair
    supremum of the full conditioned evolution along T, which
    ``envelope_ok`` checks against the implied geometric envelope.
    ``probed`` holds each tried lag's (T, pair TV) probes, the limit
    last with T = None.
    """

    t1: int
    delta: float
    decay_curve: list
    certified: bool
    probed: dict

    def envelope(self, T: int) -> float:
        return 0.5 ** ((T - self.t1) // self.t1) if T >= self.t1 else 1.0

    @property
    def envelope_ok(self) -> bool:
        """Whether the decay curve stays under its envelope (up to 1e-9)."""
        return all(v <= self.envelope(T) * (1.0 + 1e-9) for T, v in self.decay_curve)


def certify_converse(
    K: SubStochasticKernel, t1_max: int | None = None, T_max: int = 200
) -> ContractionReport:
    """Find the smallest lag whose bridge contraction is uniformly <= 1/2.

    For each candidate lag the horizon supremum is probed on a geometric
    grid {t1, 2 t1, 4 t1, ...} up to ``T_max`` and completed with the
    infinite-horizon limit, the rows of P_t1 reweighted by the refined eta (on a
    finite primitive chain the bridge coefficient converges in T, so the
    probe plus the limit is the honest finite-compute rendering of a
    supremum over all horizons).  On success, the pair supremum of the
    conditioned evolution is tabulated along T against the geometric
    envelope (1/2)^floor((T - t1)/t1) (see ``envelope_ok``); a
    search that exhausts its limits returns a not-certified report with
    the probed frontier, never a silent pass.
    """
    if t1_max is None:
        t1_max = max(8, K.n)
    if t1_max < 1 or T_max < 1:
        raise ValueError("search limits must be positive")
    S = compute_spectral(K)
    build_q_kernel(K, S)  # refuses a kernel whose h-transform is ill-conditioned
    core = Deflation(K, S)
    forward = _forward(K, np.eye(K.n), t1_max)
    next(forward)  # P_0
    surv = list(_backward(K, T_max))

    def bridge_tv(P: np.ndarray, v: np.ndarray | None) -> float:
        """Pair supremum of the rows of P reweighted by v, renormalized."""
        if v is None:  # lag 0: no future to condition on; renormalizing again would move bits
            return _max_pair_tv(P)
        M = P * v
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
        deltas = [(T, bridge_tv(P, surv[T - t1] if T > t1 else None)) for T in grid]
        # infinite-horizon limit: as T grows the bridge laws converge to
        # those of the conditioned-forever chain, Q^t1(x, .) = P_t1[x] * eta
        limit = bridge_tv(P, core.eta)
        sup_delta = max(max(d for _, d in deltas), limit)
        probed[t1] = deltas + [(None, limit)]
        if sup_delta <= 0.5:
            chosen = (t1, sup_delta)
            break
    if chosen is None:
        return ContractionReport(t1=0, delta=math.nan, decay_curve=[],
                                 certified=False, probed=probed)
    t1, delta = chosen

    # Decay of the pair supremum of the conditioned evolution along T,
    # probed on the lattice t1 + k t1 (where the floor in the envelope is
    # exact), from the deflated rows, since the true values decay below the
    # double-precision noise floor of a stepwise product.
    # An empty lattice (t1 > T_max) leaves the envelope check vacuous.
    decay_curve = [(T, math.exp(v)) for Ts, D in core.blocks(range(t1, T_max + 1, t1))
                   for T, v in zip(Ts, core.conditioned_pair_tv(D))]
    return ContractionReport(t1=t1, delta=delta, decay_curve=decay_curve,
                             certified=True, probed=probed)


def _backward(K: SubStochasticKernel, t_max: int):
    """Yield v_s for s = 0..t_max: ``K^s 1`` rescaled to ``max v_s = 1``.

    On a primitive kernel ``max K v > 0``: column y of K, where v(y) = 1,
    has a positive entry.
    """
    v = np.ones(K.n)
    yield v
    for _ in range(t_max):
        v = K.entries @ v
        v /= v.max()
        yield v
