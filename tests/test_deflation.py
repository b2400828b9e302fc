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
from qsd import deflation, models
from qsd.converse import certify_converse
from qsd.deflation import Deflation
from qsd.ergodic import SamplingPlan
from qsd.kernels import SubStochasticKernel
from qsd.spectral import compute_spectral

BRIDGE_TS = (1, 3)
# the last plan's later atom is the larger one, so its sum changes binary scale
PLANS = [SamplingPlan.uniform(12), SamplingPlan.dirac(4, 12), SamplingPlan.dirac(0, 7),
         SamplingPlan(12, ((6, 0.5), (12, 0.5)))]


def _pair_sup(rows):
    n = len(rows)
    return max((mp_tv(rows[i], rows[j]) for i in range(n) for j in range(i + 1, n)),
               default=mp.mpf(0))


def _core_series(K, t_max, f):
    core = Deflation(K, compute_spectral(K))
    series = dict(zip(("conditioned_tv", "q_tv", "eta_defect"), core.series(t_max)))
    series["conditioned_pair_tv"] = [v for _, D in core.blocks(range(t_max + 1))
                                     for v in core.conditioned_pair_tv(D)]
    out = {(key, t): v for key, vals in series.items() for t, v in enumerate(vals)}
    gaps = core.bridge_gaps([(s, t) for s in BRIDGE_TS for t in range(s, t_max + 1)])
    out.update((("bridge_gap", s, t), v) for (s, t), v in gaps.items())
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
def test_streamed_bridge_gaps_match_per_pair(monkeypatch, name):
    K = {"w3": models.w3, "rs8": lambda: models.random_substochastic(8, 3),
         "ou8": lambda: models.ou_discretized(8)}[name]()
    S = compute_spectral(K)
    pairs = [(t, t + lag) for t in range(0, 9) for lag in range(0, 31, 3)]
    gaps = Deflation(K, S).bridge_gaps(pairs)
    assert sorted(gaps) == sorted(pairs)
    # one pair a call, and one step or lag a stack
    monkeypatch.setattr(deflation, "CHUNK_BYTES", 8 * K.n ** 2)
    core = Deflation(K, S)
    for t, T in pairs:
        want = core.bridge_gaps([(t, T)])[(t, T)]
        assert gaps[(t, T)] == want, (t, T)
        assert (want == -math.inf) == (t == 0), (t, T)  # exact 0 at t = 0 only


@pytest.mark.parametrize("name", ["w3", "rs8", "ou8"])
def test_series_served_from_a_longer_walk_equals_a_fresh_walk(monkeypatch, name):
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
    # a walk whose stacks hold one step each
    monkeypatch.setattr(deflation, "CHUNK_BYTES", 8 * K.n ** 2)
    assert core.series(60) == Deflation(K, S).series(60)
    # the survival walk: a shorter request is a slice, a longer one extends it
    fresh = Deflation(K, S).survivals(200)
    grown = Deflation(K, S)
    for t_max in (0, 1, 7, 60, 200, 60, 0):
        got = grown.survivals(t_max)
        assert np.array_equal(got.exp, fresh.exp[:t_max + 1]), t_max
        assert np.array_equal(got.hat, fresh.hat[:t_max + 1]), t_max


# -- stacked steps against one step at a time ----------------------------------
# The references below are the observables' closed forms applied to one step,
# written out here, so the stacks are checked against code they do not share.

BATCH_KERNELS = {
    "w3": models.w3,
    "t3": models.t3,
    "rs8": lambda: models.random_substochastic(8, 3),
    "rs64": lambda: models.random_substochastic(64, 5),
    "ou12": lambda: models.ou_discretized(12),
    "lbd10": lambda: models.linear_bd_truncated(10),
    "half": lambda: SubStochasticKernel([[0.5]]),
}
LN2 = math.log(2.0)
# verify's default pairs, with the t = 0 pairs added
GAP_PAIRS = [(t, t + lag) for t in range(0, 11) for lag in range(1, 51)]


def _ln(x, exp):
    return (math.log(x) if x > 0.0 else -math.inf) + exp * LN2


def _ref_half_l1(exp, rows):
    return _ln(0.5 * float(np.abs(rows).sum(axis=1).max()), exp)


def _ref_pair(exp, rows):
    worst = 0.0
    for i in range(len(rows) - 1):
        worst = max(worst, 0.5 * float(np.abs(rows[i + 1:] - rows[i]).sum(axis=1).max()))
    return _ln(worst, exp)


def _ref_conditioned(core, D):
    mass = 1.0 + np.ldexp(D.hat, D.exp).sum(axis=1)
    return (D.hat - np.outer(D.hat.sum(axis=1), core.alpha)) / mass[:, None]


def _ref_gap(core, D, e):
    Dv = np.ldexp(D.hat, D.exp)
    P = core.alpha + Dv
    r = Dv @ e.hat
    gap = (P * e.hat - r[:, None] * P * core.eta) / (1.0 + np.ldexp(r, e.exp))[:, None]
    return _ref_half_l1(e.exp, gap)


def _reference(K, t_max=200):
    """Series, pair suprema, bridge gaps and the converse decay curve, one step
    at a time, as float hex."""
    S = compute_spectral(K)
    core = Deflation(K, S)
    D = list(core.rows(t_max))
    surv = core.survivals(t_max)
    e = [deflation.Deviation(int(x), h) for x, h in zip(surv.exp, surv.hat)]
    out = {
        "conditioned_tv": [_ref_half_l1(d.exp, _ref_conditioned(core, d)) for d in D],
        "q_tv": [_ref_half_l1(d.exp, d.hat * core.eta) for d in D],
        "eta_defect": [_ln(float(np.max(np.abs(v.hat) / (core.eta + np.ldexp(v.hat, v.exp)))),
                           v.exp) for v in e],
        "conditioned_pair_tv": [_ref_pair(d.exp, _ref_conditioned(core, d)) for d in D],
        "bridge_gaps": [_ref_gap(core, D[t], e[T - t]) if t else -math.inf
                        for t, T in GAP_PAIRS],
    }
    rep = certify_converse(K)
    lattice = {T for T, _ in rep.decay_curve}
    out["decay_curve"] = [math.exp(_ref_pair(d.exp, _ref_conditioned(core, d)))
                          for T, d in enumerate(D) if T in lattice]
    return {k: [v.hex() for v in vals] for k, vals in out.items()}


def _batched(K, t_max=200):
    core = Deflation(K, compute_spectral(K))
    tvs, q_tvs, errs = core.series(t_max)
    pair = []
    for _, D in core.blocks(range(t_max + 1)):
        pair += core.conditioned_pair_tv(D)
    gaps = core.bridge_gaps(GAP_PAIRS)
    out = {"conditioned_tv": tvs, "q_tv": q_tvs, "eta_defect": errs,
           "conditioned_pair_tv": pair,
           "bridge_gaps": [gaps[p] for p in GAP_PAIRS],
           "decay_curve": [v for _, v in certify_converse(K).decay_curve]}
    return {k: [v.hex() for v in vals] for k, vals in out.items()}


@pytest.mark.parametrize("name", list(BATCH_KERNELS))
def test_stacked_observables_equal_one_step_at_a_time(name):
    K = BATCH_KERNELS[name]()
    want = _reference(K)
    assert _batched(K) == want
    if name == "half":  # one state: every deviation is exactly 0
        assert {v for k, vals in want.items() if k != "decay_curve" for v in vals} == {"-inf"}
    if name == "t3":  # the bridge laws equal the Q-process laws exactly
        assert set(want["bridge_gaps"]) == {"-inf"}


@pytest.mark.parametrize("name", ["w3", "rs8", "rs64", "half"])
@pytest.mark.parametrize("steps", [1, 3])
def test_chunk_size_changes_no_value(monkeypatch, name, steps):
    K = BATCH_KERNELS[name]()
    want = _batched(K)
    monkeypatch.setattr(deflation, "CHUNK_BYTES", steps * 8 * K.n ** 2)
    assert deflation._chunk(K.n) == steps
    assert _batched(K) == want


def test_blocks_stack_the_steps_asked_for(monkeypatch):
    K = models.random_substochastic(8, 3)
    core = Deflation(K, compute_spectral(K))
    monkeypatch.setattr(deflation, "CHUNK_BYTES", 2 * 8 * K.n ** 2)
    rows = list(core.rows(9))
    got = list(core.blocks([9, 0, 4, 5, 7]))
    assert [ts for ts, _ in got] == [[0, 4], [5, 7], [9]]
    for ts, D in got:
        assert D.exp.tolist() == [rows[t].exp for t in ts]
        assert np.array_equal(D.hat, np.array([rows[t].hat for t in ts]))
    assert list(core.blocks([])) == []
