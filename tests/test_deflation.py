"""The deflated float64 propagation against extended-precision propagation.

Every observable the bound reports read from :mod:`qsd.deflation` is
recomputed from the laws themselves in mpmath (conditioned rows,
h-transformed rows, survival vectors, a dense high-precision Perron pair)
at enough digits to resolve it, and compared relatively.
"""

import math

import numpy as np
import pytest
from mpmath import log as mp_log
from mpmath import mp

from oracles import (
    mp_bridge_row,
    mp_conditioned_rows,
    mp_h_rows,
    mp_matrix,
    mp_perron,
    mp_survival_vectors,
    mp_tv,
    second_eigenvalue_magnitude,
)
from qsd import models
from qsd.deflation import Deflation
from qsd.ergodic import SamplingPlan
from qsd.spectral import compute_spectral

BRIDGE_TS = (1, 3)
# the last plan's later atom is the larger one, so its sum changes binary scale
PLANS = [SamplingPlan.uniform(12), SamplingPlan.dirac(4, 12), SamplingPlan.dirac(0, 7),
         SamplingPlan.custom([(6, 0.5), (12, 0.5)], 12)]


def _pair_sup(rows):
    n = len(rows)
    return max((mp_tv(rows[i], rows[j]) for i in range(n) for j in range(i + 1, n)),
               default=mp.mpf(0))


def _core_series(K, t_max, f):
    core = Deflation(K, compute_spectral(K))
    D = list(core.rows(t_max))
    e = list(core.survival(t_max))
    out = {}
    for t in range(t_max + 1):
        out[("conditioned_tv", t)] = core.conditioned_tv(D[t])
        out[("conditioned_pair_tv", t)] = core.conditioned_pair_tv(D[t])
        out[("q_tv", t)] = core.q_tv(D[t])
        out[("q_pair_tv", t)] = core.q_pair_tv(D[t])
        out[("eta_defect", t)] = core.eta_defect(e[t])
        for s in BRIDGE_TS:
            if s <= t:
                out[("bridge_gap", s, t)] = core.bridge_gap(D[s], e[t - s])
    for k, (_, log_err) in enumerate(core.plan_errors(f, PLANS)):
        out[("plan_error", k)] = log_err
    return out


def _oracle_series(K, t_max, f, dps):
    n = K.n
    out = {}
    with mp.workdps(dps):
        M = mp_matrix(K.entries)
        alpha, rho, eta = mp_perron(M)
        beta = [a * h for a, h in zip(alpha, eta)]
        surv = mp_survival_vectors(M, t_max)
        cond = {}
        for t, rows in mp_conditioned_rows(M, t_max):
            cond[t] = [r[:] for r in rows]
            out[("conditioned_tv", t)] = max(mp_tv(r, alpha) for r in rows)
            out[("conditioned_pair_tv", t)] = _pair_sup(rows)
        qrows = {}
        for t, rows in mp_h_rows(M, rho, eta, t_max):
            qrows[t] = [r[:] for r in rows]
            out[("q_tv", t)] = max(mp_tv(r, beta) for r in rows)
            out[("q_pair_tv", t)] = _pair_sup(rows)
        for t in range(t_max + 1):
            s = surv[t]
            scale = sum(a * v for a, v in zip(alpha, s))
            out[("eta_defect", t)] = max(abs(v / scale - h) / (v / scale) for v, h in zip(s, eta))
            for s0 in BRIDGE_TS:
                if s0 <= t:
                    out[("bridge_gap", s0, t)] = max(
                        mp_tv(mp_bridge_row(cond[s0][x], surv[t - s0]), qrows[s0][x])
                        for x in range(n))
        beta_f = sum(b * v for b, v in zip(beta, f))
        for k, plan in enumerate(PLANS):
            out[("plan_error", k)] = max(
                abs(sum(w * (sum(p * v for p, v in zip(
                    mp_bridge_row(cond[t][x], surv[plan.T - t]), f)) - beta_f)
                        for t, w in plan.atoms))
                for x in range(n))
        floor = mp.mpf(10) ** (20 - dps)
        return {key: (None if v < floor else float(mp_log(v))) for key, v in out.items()}


def _worst_relative_error(K, t_max):
    # digits to resolve values of size (|lambda2|/rho)^t_max, plus a cushion
    gap_rate = 0.0
    if K.n > 1:
        gap_rate = math.log(compute_spectral(K).rho / second_eigenvalue_magnitude(K.entries))
    dps = int(gap_rate * t_max / math.log(10.0)) + 40
    f = np.sin(np.arange(K.n) + 1.0)
    got = _core_series(K, t_max, f)
    want = _oracle_series(K, t_max, f, dps)
    worst = 0.0
    for key, log_want in want.items():
        if log_want is None:  # zero to the oracle's precision
            assert got[key] == -math.inf, f"{key}: {got[key]!r}, oracle 0"
            continue
        worst = max(worst, abs(math.expm1(got[key] - log_want)))
    return worst


CASES = {
    "w3": ([models.w3()], 200, 1e-10),
    "t3": ([models.t3()], 200, 1e-10),
    "single": ([models.birth_death(1, death=0.5)], 50, 1e-10),
    "random-corpus": (None, 40, 1e-10),
    "ou_discretized-12": ([models.ou_discretized(12)], 80, 1e-8),
    "linear_bd_truncated-10": ([models.linear_bd_truncated(10)], 80, 1e-8),
}


@pytest.mark.parametrize("case", list(CASES))
def test_deflated_series_match_extended_precision(case, random_kernels):
    kernels, t_max, rtol = CASES[case]
    for K in kernels or random_kernels:
        err = _worst_relative_error(K, t_max)
        assert err <= rtol, f"{case} n={K.n}: relative error {err:.3e} > {rtol:g}"


@pytest.mark.parametrize("name", ["w3", "rs8", "ou8"])
def test_streamed_bridge_gaps_match_per_pair(name):
    K = {"w3": models.w3, "rs8": lambda: models.random_substochastic(8, 3),
         "ou8": lambda: models.ou_discretized(8)}[name]()
    core = Deflation(K, compute_spectral(K))
    pairs = [(t, t + lag) for t in range(0, 9) for lag in range(0, 31, 3)]
    gaps = core.bridge_gaps(pairs)
    D = list(core.rows(8))
    e = list(core.survival(30))
    assert sorted(gaps) == sorted(pairs)
    for t, T in pairs:
        want = core.bridge_gap(D[t], e[T - t]) if t else -math.inf
        assert gaps[(t, T)] == want, (t, T)


@pytest.mark.parametrize("name", ["w3", "rs8", "ou8"])
def test_series_served_from_a_longer_walk_equals_a_fresh_walk(name):
    K = {"w3": models.w3, "rs8": lambda: models.random_substochastic(8, 3),
         "ou8": lambda: models.ou_discretized(8)}[name]()
    S = compute_spectral(K)
    core = Deflation(K, S)
    core.series(200)
    for t_max in (0, 1, 7, 60, 200):
        assert core.series(t_max) == Deflation(K, S).series(t_max), t_max
    # a longer request than any walked so far walks again
    short = Deflation(K, S)
    short.series(10)
    assert short.series(60) == core.series(60)
    D = list(core.rows(60))
    e = list(core.survival(60))
    assert core.series(60) == ([core.conditioned_tv(d) for d in D], [core.q_tv(d) for d in D],
                               [core.eta_defect(v) for v in e])
