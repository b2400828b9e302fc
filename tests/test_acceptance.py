"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -v`` (test names carry the criterion numbers) or
``pytest -s`` to see the [PASS]/[FAIL] lines directly.
"""

import math
import time

import numpy as np
import pytest

from mpmath import mp

from oracles import (
    eig_triple,
    envelope_argmin,
    mp_bridge_row,
    mp_conditioned_rows,
    mp_h_rows,
    mp_matrix,
    mp_perron,
    mp_survival_vectors,
    mp_tv,
    tv_distance,
)
from qsd.cli import main as cli_main
from qsd.converse import certify_converse
from qsd.deflation import Deflation
from qsd.ergodic import optimal_t0, verify_ergodic_theorem
from qsd.estimator import sweep_error_vs_N
from qsd.kernels import conditioned_evolve, write_kernel
from qsd.qprocess import (
    build_q_kernel,
    fitted_rates,
    q_mixing_report,
    verify_eta_bound,
    verify_qproc_approx,
)
from qsd.spectral import compute_spectral, fit_log_decay

SLACK = 1e-9


def _line(num: int, desc: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_01_spectral_correctness(w3, random_kernels):
    ok = True
    detail = ""
    for K in [w3] + random_kernels:
        S = compute_spectral(K, tol=1e-13)
        alpha, rho, eta, _ = eig_triple(K.entries)
        comp = max(
            float(np.max(np.abs(S.alpha - alpha))),
            abs(S.rho - rho),
            float(np.max(np.abs(S.eta - eta))),
        )
        inner = abs(float(S.alpha @ S.eta) - 1.0)
        resid = float(np.max(np.abs(S.alpha @ K.entries - S.rho * S.alpha)))
        if comp > 1e-10 or inner > 1e-12 or resid > 1e-12:
            ok = False
            detail = f"(n={K.n}: comp={comp:.2e}, alpha(eta)-1={inner:.2e}, resid={resid:.2e})"
            break
    _line(1, "spectral triple matches dense eigen oracle on W3 + 20 seeded kernels", ok, detail)


def test_criterion_02_fixed_point_and_geometric_survival(w3, t3, random_kernels):
    ok = True
    detail = ""
    for K in [w3, t3] + random_kernels[:3]:
        S = compute_spectral(K, tol=1e-13)
        v = S.alpha.copy()
        for t in range(1, 101):
            evolved = conditioned_evolve(K, S.alpha, t) if t in (1, 7, 29, 100) else None
            if evolved is not None and tv_distance(evolved, S.alpha) > 1e-10:
                ok, detail = False, f"(fixed point broke at t={t}, n={K.n})"
                break
            v = v @ K.entries
            if abs(v.sum() - S.rho**t) > 1e-10 * S.rho**t:
                ok, detail = False, f"(survival broke at t={t}, n={K.n})"
                break
        if not ok:
            break
    _line(2, "alpha is a conditioned fixed point with exactly geometric survival (t <= 100)", ok, detail)


def test_criterion_03_eta_error_envelope(w3, t3, single, w3_triple, t3_triple):
    rep = verify_eta_bound(Deflation(w3, w3_triple), range(1, 201))
    ok = 0 < rep.constant < math.inf and rep.max_violation <= 1.0 + SLACK
    ok = ok and rep.valid  # the two-sided eta sandwich is this envelope rearranged
    rep_t3 = verify_eta_bound(Deflation(t3, t3_triple), range(1, 201))
    rep_1 = verify_eta_bound(Deflation(single, compute_spectral(single)), range(1, 101))
    ok = ok and rep_t3.constant == 0.0 and rep_1.constant == 0.0
    _line(
        3,
        "a1 fitted on t in [1,100] bounds the survival-capacity error on [101,200]; "
        "a1 = 0 exactly on constant-capacity chains",
        ok,
        f"(a1={rep.constant:.4g}, viol={rep.max_violation!r}, "
        f"t3={rep_t3.constant!r}, n1={rep_1.constant!r})",
    )


def test_criterion_04_bridge_to_conditioned_forever_envelope(w3, w3_triple):
    pairs = [(t, t + lag) for t in range(1, 11) for lag in range(1, 51)]
    rep = verify_qproc_approx(Deflation(w3, w3_triple), pairs)
    all_rows_within = all(r[4] <= 1.0 + SLACK for r in rep.rows)
    sup_by_lag = {}
    for t, T, obs, _, _ in rep.rows:
        sup_by_lag[T - t] = max(sup_by_lag.get(T - t, 0.0), obs)
    fitted = fit_log_decay([(lag, math.log(v)) for lag, v in sup_by_lag.items()])
    rate_ok = abs(fitted - rep.rate) <= 0.05 * rep.rate
    ok = all_rows_within and rep.max_violation <= 1.0 + SLACK and rate_ok
    _line(
        4,
        "bridge marginals approach the conditioned-forever marginals at rate gamma "
        "(a2 envelope holds on t <= 10, lag <= 50; fitted rate within 5%)",
        ok,
        f"(a2={rep.constant:.4g}, viol={rep.max_violation!r}, "
        f"rate={fitted:.6f} vs {rep.rate:.6f})",
    )


def test_criterion_05_conditioned_forever_ergodicity(w3, t3, w3_triple, t3_triple):
    Q = build_q_kernel(w3, w3_triple)
    beta_ok = float(np.max(np.abs(w3_triple.beta @ Q - w3_triple.beta))) <= 1e-10
    mix3 = q_mixing_report(Deflation(t3, t3_triple), range(1, 61))
    rate_ok = abs(mix3.rate - math.log(7.0)) <= 0.01 * math.log(7.0)
    conj_ok = True
    for t in range(1, 9):
        lhs = np.linalg.matrix_power(Q, t)
        rhs = (
            w3_triple.rho ** (-t)
            * np.linalg.matrix_power(w3.entries, t)
            * w3_triple.eta[None, :]
            / w3_triple.eta[:, None]
        )
        if np.max(np.abs(lhs - rhs)) > 1e-10:
            conj_ok = False
            break
    ok = beta_ok and rate_ok and conj_ok
    _line(
        5,
        "beta is invariant for the conditioned-forever kernel, its mixing rate is "
        "ln 7 on the 2-state chain, and the t-step conjugation identity holds (t <= 8)",
        ok,
        f"(beta_ok={beta_ok}, rate={mix3.rate:.6f}, conj_ok={conj_ok})",
    )


def test_criterion_06_conditional_ergodic_theorem(w3, w3_triple):
    ok = True
    detail = ""
    for coord in range(3):
        f = np.eye(3)[coord]
        rep = verify_ergodic_theorem(Deflation(w3, w3_triple), f, range(10, 201, 5))
        if not (math.isfinite(rep.constant) and rep.max_violation <= 1.0 + SLACK):
            ok, detail = False, f"(f=e_{coord}: viol={rep.max_violation!r})"
            break
        # validation rows: the horizons past the grid's midpoint, 105
        scaled = [T * obs for (_, T, obs, _, _) in rep.rows if T > 105]
        if any(b > a + 1e-9 for a, b in zip(scaled, scaled[1:])):
            ok, detail = False, f"(f=e_{coord}: T*error grew on the validation half)"
            break
    _line(
        6,
        "T * |conditional time-average - beta(f)| is bounded and non-increasing "
        "on horizons [100,200] for every coordinate indicator",
        ok,
        detail,
    )


def test_criterion_07_optimal_observation_time(w3, w3_triple):
    gamma, gamma_prime = fitted_rates(Deflation(w3, w3_triple))
    T_lo = int(math.ceil(10.0 / min(gamma, gamma_prime)))
    ok = True
    detail = ""
    for T in [T_lo, 2 * T_lo, 40, 80, 160, 320]:
        grid = envelope_argmin(gamma, gamma_prime, T)
        formula = optimal_t0(gamma, gamma_prime, T)
        if abs(grid - formula) > 1:
            ok, detail = False, f"(T={T}: grid={grid}, formula={formula})"
            break
    _line(
        7,
        "the grid minimizer of the two-term envelope sits within one step of "
        "gamma T/(gamma+gamma') for all T >= 10/min(gamma, gamma')",
        ok,
        detail,
    )


def test_criterion_08_tradeoff_exponent(w3, w3_triple):
    gamma, gamma_prime = fitted_rates(Deflation(w3, w3_triple))
    lam0 = w3_triple.lambda0
    zeta = gamma * gamma_prime / (2 * gamma * gamma_prime + lam0 * (gamma + gamma_prime))
    start = time.monotonic()
    rows = sweep_error_vs_N(
        w3, w3_triple, [1.0, 0.0, 0.0],
        [100, 1_000, 10_000, 100_000, 1_000_000],
        replications=32, seed=20_240_601,
        gamma=gamma, gamma_prime=gamma_prime,
    )
    elapsed = time.monotonic() - start
    assert not any(r.flagged for r in rows)
    slope = float(np.polyfit(
        np.log([r.N for r in rows]), np.log([r.abs_error for r in rows]), 1
    )[0])
    ok = abs(slope - (-zeta)) <= 0.15 and elapsed <= 180.0
    _line(
        8,
        "median sweep error over N in {1e2..1e6} (32 replications) has log-log "
        "slope within 0.15 of -zeta, under the runtime budget",
        ok,
        f"(slope={slope:.4f}, -zeta={-zeta:.4f}, elapsed={elapsed:.1f}s)",
    )


def _hypothesis_curves(K, ts, Ts, dps=50):
    """The two hypotheses of the converse, in extended precision.

    Marginal curve, per horizon T: the largest TV between the bridge law at
    (t, T) and Q^t(x, .), over t in ``ts`` with t <= T and start states x.
    Coupling curve, per lag t in ``ts``: the largest TV between two rows of
    Q^t.
    """
    with mp.workdps(dps):
        M = mp_matrix(K.entries, dps)
        _, rho, eta = mp_perron(M)
        surv = mp_survival_vectors(M, max(Ts))
        marginal = dict.fromkeys(Ts, mp.mpf(0))
        coupling = []
        walks = zip(mp_conditioned_rows(M, max(ts)), mp_h_rows(M, rho, eta, max(ts)))
        for (t, rows), (_, q) in walks:
            if t not in ts:
                continue
            coupling.append(max((mp_tv(a, b) for a in q for b in q), default=mp.mpf(0)))
            for T in Ts:
                if t <= T:
                    gap = max(mp_tv(mp_bridge_row(rows[x], surv[T - t]), q[x])
                              for x in range(K.n))
                    marginal[T] = max(marginal[T], gap)
        return [marginal[T] for T in Ts], coupling


def test_criterion_09_converse_certification(w3, t3, random_kernels):
    ok = True
    detail = ""
    for K in [w3, t3] + random_kernels:
        rep = certify_converse(K, T_max=200 if K.n <= 3 else 64)
        if not rep.certified:
            ok, detail = False, f"(n={K.n} not certified)"
            break
        S = compute_spectral(K, tol=1e-13)
        rows = np.eye(K.n)
        series = []
        for t in range(1, 26):
            rows = rows @ K.entries
            rows /= rows.sum(axis=1, keepdims=True)
            worst = max(tv_distance(rows[i], S.alpha) for i in range(K.n))
            if worst > 1e-13:
                series.append((t, worst))
        gamma = fit_log_decay([(t, math.log(v)) for t, v in series])
        if gamma < 0.9 * math.log(2.0) / rep.t1:
            ok, detail = False, f"(n={K.n}: gamma={gamma:.3f} < 0.9 ln2/{rep.t1})"
            break
    if ok:
        for K in (w3, t3):
            marginal, coupling = _hypothesis_curves(K, range(1, 61), range(70, 161, 10))
            m_end, c_end = float(marginal[-1]), float(coupling[-1])
            if m_end >= 1e-6 or c_end >= 1e-6:
                ok, detail = False, f"(curve ends {m_end:.2e}, {c_end:.2e})"
                break
    _line(
        9,
        "bridge contraction certifies on W3, T3 and all seeded kernels with "
        "gamma >= 0.9 ln2/t1, and both hypothesis curves fall below 1e-6",
        ok,
        detail,
    )


def test_criterion_10_cli_reproducibility(tmp_path, w3):
    kf = tmp_path / "w3.txt"
    write_kernel(w3, kf)
    captures = []
    for threads in ("1", "4"):
        out = tmp_path / f"run{threads}"
        runs = [
            ["spectral", "--kernel", str(kf), "--out", str(out / "s")],
            ["verify", "--kernel", str(kf), "--out", str(out / "v"),
             "--t-max", "40", "--pair-t-max", "3", "--pair-lag-max", "10"],
            ["estimate", "--kernel", str(kf), "--out", str(out / "e"),
             "--f", "1,0,0", "--N", "20000", "--seed", "5"],
            ["sweep", "--kernel", str(kf), "--out", str(out / "w"),
             "--f", "1,0,0", "--N-list", "100,1000", "--reps", "4",
             "--seed", "5", "--threads", threads],
            ["converse", "--kernel", str(kf), "--out", str(out / "c"),
             "--T-max", "50"],
        ]
        blobs = []
        for argv in runs:
            assert cli_main(argv) == 0
        for csv in sorted(out.rglob("*.csv")):
            blobs.append(csv.relative_to(out).as_posix())
            blobs.append(csv.read_bytes().decode())
        captures.append(blobs)
    ok = captures[0] == captures[1]
    _line(10, "every CLI artifact is byte-identical on a rerun, sweep's under --threads 1 vs 4",
          ok)
