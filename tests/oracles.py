"""Independent oracles for the test suite.

Deliberately different machinery from the library: dense eigensolves
(mpmath's QR-based ``eig``) instead of power iteration, direct matrix
powers instead of stepwise renormalized propagation, extended-precision
propagation of the laws themselves instead of float64 deviations, and
exhaustive path enumeration instead of any linear-algebra shortcut.
Expected values in the tests come from these, never from the code under
test.
"""

from __future__ import annotations

import itertools

import numpy as np
from mpmath import eig, matrix, mp, mpf


def mp_matrix(entries, dps: int = 40) -> matrix:
    n = entries.shape[0]
    M = matrix(n, n)
    for i in range(n):
        for j in range(n):
            M[i, j] = float(entries[i, j])
    return M


def mp_perron(M: matrix):
    """(alpha, rho, eta) of an mp matrix from one dense eigensolve.

    alpha sums to 1 and alpha . eta = 1; accurate to the working precision
    of the enclosing ``mp.workdps``.
    """
    n = M.rows
    E, EL, ER = eig(M, left=True, right=True)
    k = max(range(n), key=lambda i: E[i].real)
    alpha = [abs(EL[k, i].real) for i in range(n)]
    s = sum(alpha)
    alpha = [a / s for a in alpha]
    eta = [abs(ER[i, k].real) for i in range(n)]
    ah = sum(a * h for a, h in zip(alpha, eta))
    return alpha, E[k].real, [h / ah for h in eta]


def eig_triple(entries, dps: int = 40):
    """(alpha, rho, eta, beta) from a dense eigendecomposition of K.

    Normalized exactly like the library contract: alpha sums to 1, eta is
    scaled so alpha . eta = 1, beta = alpha * eta entrywise.
    """
    with mp.workdps(dps):
        alpha, rho, eta = mp_perron(mp_matrix(entries, dps))
        beta = [a * h for a, h in zip(alpha, eta)]
    return (
        np.array([float(a) for a in alpha]),
        float(rho),
        np.array([float(h) for h in eta]),
        np.array([float(b) for b in beta]),
    )


def tv_distance(mu, nu) -> float:
    """Total variation distance, fixed as half the L1 distance."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if mu.shape != nu.shape:
        raise ValueError("distributions have different lengths")
    return 0.5 * float(np.abs(mu - nu).sum())


def mp_tv(u, v):
    """Half-L1 distance between two mp weight lists."""
    return sum(abs(a - b) for a, b in zip(u, v)) / 2


def mp_conditioned_rows(M: matrix, t_max: int):
    """Yield (t, rows) for t = 0..t_max, where rows[x] is the law of X_t
    conditioned on survival, started from x (stepwise renormalized)."""
    n = M.rows
    rows = [[mpf(1) if j == i else mpf(0) for j in range(n)] for i in range(n)]
    yield 0, rows
    for t in range(1, t_max + 1):
        for i in range(n):
            nxt = [sum(rows[i][k] * M[k, j] for k in range(n)) for j in range(n)]
            mass = sum(nxt)
            rows[i] = [x / mass for x in nxt]
        yield t, rows


def mp_h_rows(M: matrix, rho, eta, t_max: int):
    """Yield (t, rows) for t = 0..t_max, where rows[x] is the t-step law from
    x of the h-transform Q(x,y) = M(x,y) eta(y) / (rho eta(x))."""
    n = M.rows
    Q = matrix(n, n)
    for i in range(n):
        for j in range(n):
            Q[i, j] = M[i, j] * eta[j] / (rho * eta[i])
    rows = [[mpf(1) if j == i else mpf(0) for j in range(n)] for i in range(n)]
    yield 0, rows
    for t in range(1, t_max + 1):
        for i in range(n):
            rows[i] = [sum(rows[i][k] * Q[k, j] for k in range(n)) for j in range(n)]
        yield t, rows


def mp_survival_vectors(M: matrix, t_max: int) -> list:
    """Renormalized survival vectors v_t (proportional to M^t 1), t = 0..t_max."""
    n = M.rows
    out = [[mpf(1)] * n]
    v = out[0]
    for _ in range(t_max):
        v = [sum(M[i, j] * v[j] for j in range(n)) for i in range(n)]
        top = max(v)
        v = [x / top for x in v]
        out.append(v)
    return out


def mp_bridge_row(prefix_row, surv) -> list:
    """Conditioned bridge law: prefix law reweighted by remaining survival."""
    w = [p * s for p, s in zip(prefix_row, surv)]
    mass = sum(w)
    return [x / mass for x in w]


def dense_perron(entries):
    """(alpha, rho, eta, gap, cond) from numpy's dense ``eig`` of K and K^T.

    alpha sums to 1 and alpha . eta = 1; ``gap`` is rho - |lambda2| (rho for
    one state) and ``cond`` the eigenvalue condition number |alpha| |eta|.
    """
    def perron_vector(M):
        w, V = np.linalg.eig(M)
        k = int(np.argmax(w.real))
        return float(w[k].real), np.abs(V[:, k].real), np.sort(np.abs(w))[::-1]

    rho, eta, mods = perron_vector(entries)
    _, alpha, _ = perron_vector(entries.T)
    alpha = alpha / alpha.sum()
    eta = eta / float(alpha @ eta)
    gap = rho - (float(mods[1]) if len(mods) > 1 else 0.0)
    return alpha, rho, eta, gap, float(np.linalg.norm(alpha) * np.linalg.norm(eta))


def wielandt_primitive(entries) -> bool:
    """Primitivity by Wielandt's bound: B^((n-1)^2 + 1) is entrywise positive
    for the zero pattern B, by repeated boolean squaring."""
    n = entries.shape[0]
    b = np.asarray(entries) > 0.0
    acc = np.eye(n, dtype=bool)
    k = (n - 1) ** 2 + 1
    while k:
        if k & 1:
            acc = acc @ b
        b = b @ b
        k >>= 1
    return bool(acc.all())


def second_eigenvalue_magnitude(entries) -> float:
    ev = np.linalg.eigvals(entries)
    ev = ev[np.argsort(-np.abs(ev))]
    return float(np.abs(ev[1]))


def power_marginal(entries, mu, t: int, dps: int = 60) -> np.ndarray:
    """Conditioned law of X_t by direct extended-precision matrix power."""
    n = entries.shape[0]
    with mp.workdps(dps):
        M = mp_matrix(entries, dps)
        P = M ** t
        row = [sum(mp.mpf(float(mu[i])) * P[i, j] for i in range(n)) for j in range(n)]
        mass = sum(row)
        out = [float(r / mass) for r in row]
    return np.array(out)


def power_bridge(entries, t: int, T: int, dps: int = 40) -> np.ndarray:
    """Row x: law of X_t given X_0 = x and survival past T, by direct
    extended-precision matrix powers ``K^t(x, .) * (K^(T-t) 1)``, normalized."""
    n = entries.shape[0]
    with mp.workdps(dps):
        M = mp_matrix(entries, dps)
        P, S = M ** t, M ** (T - t)
        surv = [sum(S[y, j] for j in range(n)) for y in range(n)]
        rows = []
        for x in range(n):
            w = [P[x, y] * surv[y] for y in range(n)]
            mass = sum(w)
            rows.append([float(v / mass) for v in w])
    return np.array(rows)


def power_c1(entries, t0: int) -> float:
    """Mass of the entrywise minimum of the conditioned t0-step laws, from
    one direct matrix power ``K^t0`` with its rows normalized."""
    P = np.linalg.matrix_power(np.asarray(entries, dtype=float), t0)
    return float((P / P.sum(axis=1, keepdims=True)).min(axis=0).sum())


def envelope_argmin(gamma: float, gamma_prime: float, T: int) -> int:
    """First integer t in [0, T] minimizing e^(-gamma' t) + e^(-gamma (T - t)),
    by evaluating the envelope at every step."""
    t = np.arange(T + 1)
    return int(np.argmin(np.exp(-gamma_prime * t) + np.exp(-gamma * (T - t))))


def paths_upto(n: int, length: int):
    return itertools.product(range(n), repeat=length)


def enum_bridge(entries, x: int, t: int, T: int) -> np.ndarray:
    """Law of X_t given X_0 = x and survival past T, by summing the
    probability of every surviving length-T path."""
    n = entries.shape[0]
    weights = np.zeros(n)
    total = 0.0
    for path in paths_upto(n, T):
        p = 1.0
        prev = x
        for s in path:
            p *= entries[prev, s]
            if p == 0.0:
                break
            prev = s
        if p == 0.0:
            continue
        total += p
        at_t = x if t == 0 else path[t - 1]
        weights[at_t] += p
    return weights / total


def enum_functional(entries, x: int, f, atoms, T: int) -> float:
    """E(sum_atoms w f(X_t) | survival past T) by path enumeration."""
    n = entries.shape[0]
    f = np.asarray(f, dtype=float)
    num = 0.0
    den = 0.0
    for path in paths_upto(n, T):
        p = 1.0
        prev = x
        for s in path:
            p *= entries[prev, s]
            if p == 0.0:
                break
            prev = s
        if p == 0.0:
            continue
        den += p
        states = (x,) + path
        num += p * sum(w * f[states[t]] for t, w in atoms)
    return num / den


def enum_survival(entries, x: int, t: int) -> float:
    """P(t < absorption | X_0 = x) by summing every surviving path."""
    n = entries.shape[0]
    total = 0.0
    for path in paths_upto(n, t):
        p = 1.0
        prev = x
        for s in path:
            p *= entries[prev, s]
            if p == 0.0:
                break
            prev = s
        total += p
    return total


def enum_pair_tv(entries, t: int, T: int) -> float:
    """Dobrushin coefficient of the bridge at (t, T) by path enumeration."""
    n = entries.shape[0]
    rows = [enum_bridge(entries, x, t, T) for x in range(n)]
    return max(
        0.5 * float(np.abs(rows[i] - rows[j]).sum())
        for i in range(n)
        for j in range(i + 1, n)
    )


def enum_path_tv(entries, t: int, T: int, dps: int = 80) -> float:
    """sup_x TV between the laws of the path (X_1..X_t) from x given survival
    past T and under the h-transform Q, summed over all n^t paths.

    A path's weight ``K(x, x_1) ... K(x_(t-1), x_t)`` is enumerated in
    float64.  The first law multiplies it by ``s_(T-t)(x_t) / s_T(x)`` with
    ``s_k = K^k 1`` from mpmath matrix powers, the second by
    ``eta(x_t) / (rho^t eta(x))`` from a dense mpmath eigensolve; the
    difference of the two factors is formed in mpmath, so it keeps its
    digits however close the laws are.
    """
    n = entries.shape[0]
    with mp.workdps(dps):
        M = mp_matrix(entries, dps)
        _, rho, eta = mp_perron(M)
        surv_T = M ** T * matrix([1] * n)
        surv_lag = M ** (T - t) * matrix([1] * n)
        factor = [[float(abs(surv_lag[y] / surv_T[x] - eta[y] / (rho ** t * eta[x])))
                   for y in range(n)] for x in range(n)]
    worst = 0.0
    for x in range(n):
        tv = 0.0
        for path in paths_upto(n, t):
            p, prev = 1.0, x
            for s in path:
                p *= entries[prev, s]
                prev = s
            tv += p * factor[x][prev]
        worst = max(worst, 0.5 * tv)
    return worst


def mp_time_average_errors(entries, f, Ts, dps: int = 60) -> dict:
    """sup_x |E_x(mean of f(X_0..X_(T-1)) | survival past T) - beta(f)| per T.

    Laws by stepwise-renormalized extended-precision propagation, reweighted
    by the survival vectors; beta from a dense eigensolve.  Returns floats.
    """
    n = entries.shape[0]
    T_max = max(Ts)
    with mp.workdps(dps):
        M = mp_matrix(entries, dps)
        alpha, _, eta = mp_perron(M)
        f = [mpf(float(v)) for v in f]
        beta_f = sum(a * h * v for a, h, v in zip(alpha, eta, f))
        surv = mp_survival_vectors(M, T_max)
        rows_at = [[r[:] for r in rows] for _, rows in mp_conditioned_rows(M, T_max - 1)]
        out = {}
        for T in Ts:
            worst = mpf(0)
            for x in range(n):
                laws = (mp_bridge_row(rows_at[t][x], surv[T - t]) for t in range(T))
                total = sum(sum(p * v for p, v in zip(law, f)) for law in laws)
                worst = max(worst, abs(total / T - beta_f))
            out[T] = float(worst)
    return out


_MASK64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    """splitmix64 finalizer on one Python integer, masked to 64 bits."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def counter_uniform_reference(key: int, index: int, step: int) -> float:
    """The counter uniform of (key, index, step), one address at a time:
    ``mix64(mix64(mix64(key) ^ index) ^ step) >> 11`` scaled by 2^-53."""
    h = splitmix64(splitmix64(splitmix64(key & _MASK64) ^ index) ^ (step & _MASK64))
    return (h >> 11) * 2.0 ** -53


def simulate_reference(K, x0: int, T: int, N: int, seed: int, chunks: int = 1):
    """(paths, survivor_indices) from the one-chunk-at-a-time loop.

    Each step compares every live trajectory's uniform with the whole
    cumulative row of its state (an N x n temporary) and counts the
    entries at or below it; ``chunks`` splits the batch to bound that
    temporary and never changes the result.
    """
    from qsd.rng import counter_uniforms

    n = K.n
    cum = np.cumsum(K.entries, axis=1)
    paths = np.full((N, T + 1), -1, dtype=np.int16)
    paths[:, 0] = x0
    bounds = np.linspace(0, N, chunks + 1).astype(np.int64)
    for c in range(chunks):
        lo, hi = int(bounds[c]), int(bounds[c + 1])
        if lo == hi:
            continue
        alive = np.arange(lo, hi, dtype=np.int64)
        states = np.full(hi - lo, x0, dtype=np.int64)
        for step in range(1, T + 1):
            u = counter_uniforms(seed, alive, step)
            nxt = (u[:, None] >= cum[states]).sum(axis=1)
            keep = nxt < n
            alive = alive[keep]
            states = nxt[keep]
            paths[alive, step] = states.astype(np.int16)
            if alive.size == 0:
                break
    return paths, np.nonzero(paths[:, T] >= 0)[0]
