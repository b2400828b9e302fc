"""Checks of qsd's output files against the oracle and the method's properties.

Each check of a subcommand's files returns a list of problems (empty when
the output is right) and the exit code the CLI documents for the outcome
the files describe: 0 for success, 3 for a failed certification or bound
validation.  Nothing is compared with a stored copy of earlier output.
Monte Carlo values are compared with the exact finite-horizon law at
5 standard errors, never with beta(f): the gap between the two is the
conditioning bias the paper bounds.
"""

from __future__ import annotations

import math
import os

import numpy as np

from oracle import EPS, Powers, max_pair_tv

#: Documented slack of every fit-then-validate report: valid iff ratio <= 1 + 1e-9.
VIOLATION_SLACK = 1e-9
#: Report values below this are not compared with the float64 oracle.
COMPARE_FLOOR = 1e-6
RATE_RTOL = 0.01
SIGMAS = 5.0
# defaults of the subcommands as the workloads run them
SPECTRAL_TOL = 1e-12  # spectral --tol
CONVERSE_T_MAX = 200  # converse --T-max


def _value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_table(path: str) -> tuple[dict, list[dict]]:
    """Parse a qsd CSV: 'k=v' header or '# k=v' trailer pairs, then a table."""
    meta: dict = {}
    cols = None
    rows = []
    with open(path) as fh:
        for line in fh.read().splitlines():
            if line.startswith("#") or "=" in line:
                meta.update(
                    (k, _value(v)) for k, v in (p.split("=", 1) for p in line.lstrip("#").split())
                )
            elif cols is None:
                cols = line.split(",")
            else:
                rows.append({c: (float(v) if v else None) for c, v in zip(cols, line.split(","))})
    return meta, rows


class Problems(list):
    def close(self, what: str, got, want, rtol: float, atol: float = 0.0) -> None:
        if not abs(got - want) <= atol + rtol * abs(want):
            self.append(f"{what}: got {got!r}, want {want!r} (rtol {rtol:g}, atol {atol:g})")

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def _split_half(keys: list) -> set:
    """Validation half of a sorted key list: keys above the value midpoint."""
    mid = (keys[0] + keys[-1]) / 2.0
    val = {k for k in keys if k > mid}
    if not val or len(val) == len(keys):
        k = max(1, len(keys) // 2)
        val = set(keys[k:] or keys[-1:])
    return val


def check_spectral(out_dir: str, K: np.ndarray, pw: Powers):
    """Triple against eig, with tolerances scaled by residual / spectral gap."""
    meta, rows = read_table(os.path.join(out_dir, "spectral.csv"))
    P = pw.P
    n = K.shape[0]
    p = Problems()
    if len(rows) != n:
        p.append(f"spectral.csv has {len(rows)} rows for {n} states")
        return p, 0
    alpha = np.array([r["alpha"] for r in rows])
    eta = np.array([r["eta"] for r in rows])
    beta = np.array([r["beta"] for r in rows])
    rho = meta["rho"]
    res_a = float(np.max(np.abs(alpha @ K - rho * alpha)))
    res_h = float(np.max(np.abs(K @ eta - rho * eta)) / np.max(eta))
    floor = 8 * n * EPS
    p.require(max(res_a, res_h) <= SPECTRAL_TOL + floor,
              f"recomputed residuals {res_a:.3e}, {res_h:.3e} exceed tol {SPECTRAL_TOL:g}")
    p.require(bool(np.all(alpha > 0) and np.all(eta > 0)), "alpha or eta not positive")
    p.close("sum(alpha)", float(alpha.sum()), 1.0, 0.0, floor)
    p.close("alpha . eta", float(alpha @ eta), 1.0, 0.0, floor * P.cond)
    p.close("beta - alpha*eta", float(np.max(np.abs(beta - alpha * eta))), 0.0, 0.0,
            1e-15 * float(np.max(beta)))
    res = max(meta["residual"], res_a, res_h, floor)
    p.close("rho", rho, P.rho, 0.0, 10.0 * P.cond * res)
    vec_tol = 10.0 * P.cond * res / P.gap
    # alpha and beta sum to 1 and the residual is absolute; eta is scaled to max 1
    for name, got, want, scale in (("alpha", alpha, P.alpha, 1.0), ("beta", beta, P.beta, 1.0),
                                   ("eta", eta, P.eta, float(np.max(P.eta)))):
        err = float(np.max(np.abs(got - want))) / scale
        p.require(err <= vec_tol, f"{name} differs from eig by {err:.3e} > {vec_tol:.3e}")
    return p, 0


def _check_report(p: Problems, path: str, pw: Powers, key, observed_fn) -> float:
    """One fit-then-validate report: oracle values, envelope, rate, split."""
    meta, rows = read_table(path)
    name = meta["name"]
    rate, const = meta["rate"], meta["constant"]
    p.close(f"{name} rate vs ln(rho/|lambda2|)", rate, pw.P.rate, RATE_RTOL)
    keys = sorted({key(r) for r in rows})
    val = _split_half(keys)
    fit_c = 0.0
    worst = 0.0
    for r in rows:
        k = key(r)
        obs, bound, ratio = r["observed"], r["bound"], r["ratio"]
        want = observed_fn(r)
        if max(obs, want) >= COMPARE_FLOOR:
            p.close(f"{name} observed at {k}", obs, want, 1e-5)
        p.close(f"{name} bound at {k}", bound, const * math.exp(-rate * k), 1e-9)
        if bound > 0:
            p.close(f"{name} ratio at {k}", ratio, obs / bound, 1e-9)
        if k in val:
            worst = max(worst, ratio)
        else:
            fit_c = max(fit_c, obs * math.exp(rate * k))
    p.close(f"{name} constant (max over the fit half)", const, fit_c, 1e-9)
    p.close(f"{name} max_violation (max over the validation half)", meta["max_violation"], worst, 1e-12)
    return meta["max_violation"]


def check_verify(out_dir: str, pw: Powers):
    p = Problems()
    t = lambda r: int(r["t"])
    worst = max(
        _check_report(p, os.path.join(out_dir, "eta_bound.csv"), pw, t,
                      lambda r: pw.eta_defect(int(r["t"]))),
        _check_report(p, os.path.join(out_dir, "qproc_approx.csv"), pw,
                      lambda r: int(r["T"]) - int(r["t"]),
                      lambda r: pw.qproc_gap(int(r["t"]), int(r["T"]))),
        _check_report(p, os.path.join(out_dir, "q_mixing.csv"), pw, t,
                      lambda r: pw.q_mixing(int(r["t"]))),
    )
    return p, 0 if worst <= 1.0 + VIOLATION_SLACK else 3


def _dobrushin(pw: Powers, t1: int) -> float:
    """Lag-t1 bridge coefficient over the geometric horizon grid and its limit."""
    T, sup = t1, max_pair_tv(pw.q_power(t1))
    while T <= max(CONVERSE_T_MAX, t1):
        sup = max(sup, max_pair_tv(pw.bridge(t1, T)))
        T *= 2
    return sup


def check_converse(out_dir: str, pw: Powers):
    meta, rows = read_table(os.path.join(out_dir, "converse.csv"))
    p = Problems()
    if meta["certified"] != "True":
        return p, 3
    t1, T1, delta = int(meta["t1"]), int(meta["T1"]), meta["delta"]
    p.require([int(r["T"]) for r in rows] == list(range(T1, CONVERSE_T_MAX + 1, t1)),
              "decay curve is not on the lattice T1 + k t1")
    for r in rows:
        T = int(r["T"])
        env = 0.5 ** ((T - T1) // t1)
        p.close(f"envelope at {T}", r["envelope"], env, 1e-15)
        p.require(r["sup_pair_tv"] <= env * (1 + VIOLATION_SLACK), f"decay curve above envelope at {T}")
        want = max_pair_tv(pw.conditioned(T))
        if max(r["sup_pair_tv"], want) >= COMPARE_FLOOR:
            p.close(f"sup pair TV at {T}", r["sup_pair_tv"], want, 1e-5)
    p.close("delta", delta, _dobrushin(pw, t1), 1e-9, 1e-12)
    p.require(delta <= 0.5, f"delta {delta!r} > 1/2")
    for shorter in range(1, t1):
        p.require(_dobrushin(pw, shorter) > 0.5 - VIOLATION_SLACK,
                  f"lag {shorter} < t1 = {t1} already contracts")
    return p, 0


def check_ergodic(out_dir: str, pw: Powers, f: np.ndarray):
    """Uniform-plan report: exact time averages and the 1/T envelope."""
    _, rows = read_table(os.path.join(out_dir, "ergodic.csv"))
    p = Problems()
    f_inf = float(np.max(np.abs(f)))
    Ts = [int(r["time"]) for r in rows]
    val = _split_half(Ts)
    a4 = max(T * r["error"] / f_inf for T, r in zip(Ts, rows) if T not in val)
    worst = 0.0
    for T, r in zip(Ts, rows):
        want = pw.time_average_error(f, T)
        if max(r["error"], want) >= COMPARE_FLOOR:
            p.close(f"time-average error at T={T}", r["error"], want, 1e-6, 1e-12)
        p.close(f"1/T bound at T={T}", r["bound"], a4 * f_inf / T, 1e-9)
        p.close(f"ratio at T={T}", r["ratio"], r["error"] / r["bound"], 1e-9)
        if T in val:
            worst = max(worst, r["ratio"])
    return p, 0 if worst <= 1.0 + VIOLATION_SLACK else 3


def _law_of_f(pw: Powers, x0: int, f: np.ndarray, t0: int, T: int) -> tuple[float, float, float]:
    """Mean, variance and fourth central moment of f(X_t0) given alive at T."""
    law = pw.bridge(t0, T)[x0]
    mu = float(law @ f)
    return mu, float(law @ (f - mu) ** 2), float(law @ (f - mu) ** 4)


def check_sample(p: Problems, what: str, pw: Powers, x0: int, f: np.ndarray,
                 N: int, T: int, t0: int, N_T: float, est: float, se: float,
                 check_spread: bool) -> None:
    """A survivor average against the exact finite-horizon law.

    N_T against N * P_x0(alive at T) at 5 binomial sigma, the estimate
    against E_x0(f(X_t0) | alive at T) at 5 standard errors and, when
    ``check_spread``, the standard error against the exact conditional
    spread at 5 sigma of a sample standard deviation.
    """
    surv = pw.survival(x0, T)
    p.close(f"{what} N_T", N_T, N * surv, 0.0,
            SIGMAS * math.sqrt(N * surv * (1 - surv)) + 0.5)
    mu, var, m4 = _law_of_f(pw, x0, f, t0, T)
    p.require(se > 0, f"{what} stderr {se!r} is not positive")
    p.close(f"{what} estimate (5 stderr)", est, mu, 0.0, SIGMAS * se)
    if check_spread and var > 0:
        sd_rel = math.sqrt(max(m4 / var**2 - 1.0, 0.0) / (4.0 * N_T))
        p.close(f"{what} stderr * sqrt(N_T)", se * math.sqrt(N_T), math.sqrt(var),
                SIGMAS * sd_rel)


def check_mc_table(out_dir: str, csv: str, pw: Powers, f: np.ndarray, x0: int):
    """estimate.csv / sweep.csv rows: horizons, exact column and samples."""
    _, rows = read_table(os.path.join(out_dir, csv))
    p = Problems()
    P = pw.P
    lam0 = -math.log(P.rho)
    zeta = P.rate / (2.0 * P.rate + 2.0 * lam0)  # gamma = gamma' = ln(rho/|lambda2|)
    for r in rows:
        N, T, t0 = int(r["N"]), int(r["T"]), int(r["t0"])
        what = f"{csv} N={N}"
        T_star = max(1, math.floor(math.log(N) / (lam0 + P.rate) + 0.5))
        p.require(abs(T - T_star) <= 1, f"{what}: T={T}, oracle T*={T_star}")
        p.require(abs(t0 - T / 2) <= 1, f"{what}: t0={t0} is not the midpoint of T={T}")
        p.close(f"{what} exact", r["exact"], float(P.beta @ f), 1e-9, 1e-12)
        if csv == "estimate.csv":  # a sweep row holds the median of per-replication errors
            p.close(f"{what} abs_error", r["abs_error"], abs(r["estimate"] - r["exact"]), 1e-12)
        p.close(f"{what} log predicted", math.log(r["predicted"]), -zeta * math.log(N), 0.02)
        check_sample(p, what, pw, x0, f, N, T, t0, r["N_T"], r["estimate"], r["stderr"],
                     check_spread=(csv == "estimate.csv"))
    return p, 0
