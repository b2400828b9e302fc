"""Seeded Monte Carlo estimation from survival-conditioned trajectories.

Simulation randomness is addressed, not streamed: the variate driving
trajectory i at step s is a pure function of (seed, i, s).  Trajectories
run in fixed blocks, one after another on the calling thread, each
returning only its own survivors' rows.  All reductions run in
trajectory-index order.

A step samples by exact indexed search (Chen & Asau 1974; Devroye,
*Non-Uniform Random Variate Generation*, 1986, sec. III.2.4): one gather
from a guide table addressed by the state and the top bits of the step's
hash settles nearly every trajectory, and a per-state binary search
settles the rest.  The table is exact, not approximate: it answers only
where every hash of a bucket gives the same next state, so the sample is
the one the comparison ``cum[s, j] <= u`` gives, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ergodic import SamplingPlan, optimal_t0
from .kernels import SubStochasticKernel
from .rng import derive_key, hash_uniforms, step_hashes, trajectory_keys
from .spectral import SpectralTriple

# Trajectories advanced together: small enough that a block's working set
# (2 bytes a trajectory a step, plus per-step arrays) is bounded whatever N
# is, large enough that numpy's per-call overhead is a small share of a step.
_BLOCK = 1 << 16
# Byte budget of the guide table: it stays in cache, and from n = 129 on
# (32 n > 2**12 buckets a state) it holds fewer than 32 n buckets a state,
# so more lookups fall back.
_TABLE_BYTES = 1 << 20

__all__ = [
    "ExtinctionError",
    "SweepRow",
    "TradeoffPrediction",
    "TrajectoryBatch",
    "choose_horizon",
    "estimate_beta",
    "predict_tradeoff",
    "simulate",
    "sweep_error_vs_N",
]


class ExtinctionError(RuntimeError):
    """Too few surviving trajectories to estimate anything."""


@dataclass(frozen=True)
class TrajectoryBatch:
    """N absorbed trajectories up to horizon T, keeping only survivors' histories.

    ``survivor_indices`` lists (in increasing order) the trajectories alive
    at step T; row k of ``survivor_paths`` holds trajectory
    ``survivor_indices[k]``'s states at steps 0 .. T, as the smallest
    unsigned dtype that holds n.  ``steps`` counts the transitions sampled.
    """

    seed: int
    x0: int
    T: int
    N: int
    survivor_paths: np.ndarray
    survivor_indices: np.ndarray
    steps: int

    @property
    def N_T(self) -> int:
        return int(self.survivor_indices.size)

    @property
    def extinct(self) -> bool:
        return self.N_T == 0


def simulate(
    K: SubStochasticKernel, x0: int, T: int, N: int, seed: int, chunks: int = 1
) -> TrajectoryBatch:
    """Sample N trajectories of the absorbed chain from x0 up to step T.

    Trajectories run in fixed blocks of ``2**16``, one after another, each
    carried through all T steps.  Blocks return their survivors' rows,
    joined in block order: O(N_T (T+1)) bytes.  Next states come from
    :func:`_guide_table`, built once per call.  ``chunks`` is checked to be
    at least 1 and changes nothing else.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if T < 0:
        raise ValueError("T must be >= 0")
    if not 0 <= x0 < K.n:
        raise ValueError("x0 out of range")
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    cum = np.cumsum(K.entries, axis=1)  # u >= cum[s, n-1] means absorption
    table, k = _guide_table(cum)

    survivors, rows, steps = zip(*(
        _advance_block(cum, table, k, lo, min(lo + _BLOCK, N), x0, T, seed)
        for lo in range(0, N, _BLOCK)))
    return TrajectoryBatch(seed=seed, x0=x0, T=T, N=N, survivor_paths=np.concatenate(rows),
                           survivor_indices=np.concatenate(survivors), steps=sum(steps))


def _guide_table(cum: np.ndarray) -> tuple[np.ndarray, int]:
    """(table, k): the next state of each (state, hash bucket), or n + 1 where it varies.

    A step's hash h gives ``u = (h >> 11) * 2**-53`` exactly, so
    ``cum[s, j] <= u`` holds iff ``thr[s, j] <= h >> 11`` for the integer
    ``thr = min(ceil(cum * 2**53), 2**53)``.  Bucket b of state s holds the
    hashes whose top k bits are b, that is ``h >> 11`` in
    ``[b << (53-k), (b+1) << (53-k))``.  Where no threshold of row s lies
    strictly inside that range, every hash of the bucket counts the same
    thresholds, and ``table[(s << k) + b]`` is that count: the next state,
    n for absorption.  Elsewhere it holds the sentinel n + 1 and the step
    falls back to :func:`_next_states`.  A state gets about 32 n buckets,
    fewer once that would pass ``_TABLE_BYTES``, and never fewer than 2.
    """
    n = cum.shape[0]
    dtype = np.min_scalar_type(n + 1)
    k = min((32 * n - 1).bit_length(), (_TABLE_BYTES // (n * dtype.itemsize)).bit_length() - 1)
    k = max(k, 1)
    shift, buckets = 53 - k, 1 << k
    thr = np.ldexp(cum, 53)
    np.ceil(thr, out=thr)
    thr = np.minimum(thr, 2.0 ** 53, out=thr).astype(np.int64)
    # a threshold counts from its own bucket on; that bucket is the sentinel's
    # unless the threshold is its first hash; 2**53 falls in the extra column
    at = (thr >> shift) + np.arange(0, n * (buckets + 1), buckets + 1)[:, None]
    table = np.cumsum(np.bincount(at.ravel(), minlength=n * (buckets + 1)).reshape(n, -1),
                      axis=1, dtype=dtype)
    table.ravel()[at[(thr & ((1 << shift) - 1)) != 0]] = n + 1
    return table[:, :buckets].ravel(), k


def _advance_block(cum: np.ndarray, table: np.ndarray, k: int, lo: int, hi: int,
                   x0: int, T: int, seed: int):
    """(survivor indices, their rows, transitions sampled) of trajectories lo .. hi-1.

    Each step samples with :func:`_indexed_next_states` and keeps its
    survival mask and the surviving states; a walk back through them from
    the survivors at T fills rows and indices.
    """
    n = cum.shape[0]
    keys = trajectory_keys(seed, np.arange(lo, hi, dtype=np.int64))
    state_dtype = np.min_scalar_type(n)  # holds n: absorbed
    states = np.full(hi - lo, x0, dtype=state_dtype)
    history = []  # (survival mask, surviving states) per step: 2 bytes a trajectory
    steps = 0
    for step in range(1, T + 1):
        steps += states.size
        nxt = _indexed_next_states(cum, table, k, states, step_hashes(keys, step))
        alive = nxt < n
        keep = np.flatnonzero(alive)  # integer gathers beat boolean masks here
        keys, states = keys[keep], nxt[keep].astype(state_dtype, copy=False)
        history.append((alive, states))
        if states.size == 0:
            break
    rows = np.full((states.size, T + 1), x0, dtype=states.dtype)
    at = np.arange(states.size)  # survivors' positions among those alive after a step
    for step in range(len(history), 0, -1):
        alive, visited = history[step - 1]
        rows[:, step] = visited[at]
        at = np.flatnonzero(alive)[at]
    return lo + at, rows, steps


def _indexed_next_states(cum: np.ndarray, table: np.ndarray, k: int,
                         states: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Next states for hashes ``h``: one gather from :func:`_guide_table`'s table.

    Entries that draw the sentinel, a few percent while the table keeps
    about 32 n buckets a state, go to :func:`_next_states` with their
    uniforms alone.  The result is the
    count of ``cum[states[i]]`` at or below ``hash_uniforms(h)[i]`` for
    every i.
    """
    idx = (h >> np.uint64(64 - k)).view(np.int64)
    idx += np.left_shift(states, k, dtype=np.int64)
    nxt = table[idx]
    miss = np.flatnonzero(nxt > cum.shape[0])
    if miss.size:
        nxt[miss] = _next_states(cum, states[miss], hash_uniforms(h[miss]))
    return nxt


def _next_states(cum: np.ndarray, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each i, how many entries of ``cum[states[i]]`` are at or below ``u[i]``.

    The exact search behind the guide table's sentinel entries.
    Trajectories are grouped by state with a stable sort and each group is
    looked up with one ``searchsorted`` in its nondecreasing ``cum`` row:
    the same count as comparing ``u`` with the whole row, without an N x n
    temporary.  A result of n means absorption.
    """
    order = np.argsort(states, kind="stable")
    counts = np.bincount(states, minlength=cum.shape[0])
    u_sorted = u[order]
    nxt_sorted = np.empty_like(states)
    start = 0
    for s in np.flatnonzero(counts).tolist():
        end = start + int(counts[s])
        nxt_sorted[start:end] = np.searchsorted(cum[s], u_sorted[start:end], side="right")
        start = end
    nxt = np.empty_like(states)
    nxt[order] = nxt_sorted
    return nxt


def estimate_beta(batch: TrajectoryBatch, f, plan: SamplingPlan) -> tuple[float, float]:
    """Plan-weighted survivor average of f and its standard error.

    Averages sum_atoms w * f(X_t) over the surviving trajectories; the
    standard error is the sample standard deviation over survivors divided
    by sqrt(N_T).  Refuses batches with fewer than two survivors.
    """
    if batch.N_T < 2:
        raise ExtinctionError(
            f"{batch.N_T} survivor(s) out of {batch.N}; nothing to estimate"
        )
    f = np.asarray(f, dtype=float)
    if plan.T > batch.T:
        raise ValueError("plan horizon exceeds the simulated horizon")
    sp = batch.survivor_paths
    vals = np.zeros(batch.N_T)
    for t, w in plan.atoms:
        vals += w * f[sp[:, t]]
    estimate = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(batch.N_T))
    return estimate, stderr


@dataclass(frozen=True)
class TradeoffPrediction:
    """Error exponent and optimal horizon for the N-vs-T tradeoff.

    zeta = g g' / (2 g g' + lambda0 (g + g')) is the power of N in the
    best achievable error; T_star the matching horizon; N_star the sample
    count matched to a given horizon.
    """

    zeta: float
    T_star: float
    N_star: float
    predicted_error: float


def predict_tradeoff(
    lambda0: float,
    gamma: float,
    gamma_prime: float,
    N: float | None = None,
    T: float | None = None,
) -> TradeoffPrediction:
    """Balance the sampling error against the conditioning bias.

    With the per-sample survival cost e^(lambda0 T), the stochastic error
    scales like e^(lambda0 T / 2)/sqrt(N) while the bias at the optimal
    observation time scales like e^(-g g' T/(g+g')).  Given N, the two
    balance at T_star = ln N / (lambda0 + 2 g g'/(g+g')) with error of
    order N^(-zeta); given T, at N_star = e^((lambda0 + 2 g g'/(g+g')) T).
    """
    if not (lambda0 > 0 and gamma > 0 and gamma_prime > 0):
        raise ValueError("all rates must be positive")
    if (N is None) == (T is None):
        raise ValueError("give exactly one of N or T")
    gbar = 2.0 * gamma * gamma_prime / (gamma + gamma_prime)
    zeta = gamma * gamma_prime / (2.0 * gamma * gamma_prime + lambda0 * (gamma + gamma_prime))
    denom = lambda0 + gbar
    if N is not None:
        if N < 1:
            raise ValueError("N must be >= 1")
        T_star = math.log(N) / denom
        return TradeoffPrediction(zeta=zeta, T_star=T_star, N_star=float(N),
                                  predicted_error=float(N) ** (-zeta))
    if T < 0:
        raise ValueError("T must be >= 0")
    N_star = math.exp(denom * T)
    return TradeoffPrediction(zeta=zeta, T_star=float(T), N_star=N_star,
                              predicted_error=math.exp(-0.5 * gbar * T))


def choose_horizon(
    lambda0: float, gamma: float, gamma_prime: float, N: int, T: int | None = None
) -> tuple[int, int, float]:
    """(T, t0, predicted error) for N samples.

    T defaults to the predicted optimal horizon rounded to a step, and t0
    is the envelope-optimal observation time for T.  With an infinite
    fitted rate the chain conditions in one step and any horizon works:
    T defaults to 1, t0 is 0 and the predicted error N^(-1/2).
    """
    if not (math.isfinite(gamma) and math.isfinite(gamma_prime)):
        return (1 if T is None else T), 0, float(N) ** -0.5
    pred = predict_tradeoff(lambda0, gamma, gamma_prime, N=N)
    if T is None:
        T = max(1, int(math.floor(pred.T_star + 0.5)))
    return T, optimal_t0(gamma, gamma_prime, T), pred.predicted_error


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: medians over replications at a fixed N.

    ``survivors`` and ``steps`` are totals over every replication, extinct
    ones included: the survivors at T and the transitions sampled.
    """

    N: int
    T: int
    t0: int
    N_T: float
    estimate: float
    stderr: float
    exact: float
    abs_error: float
    predicted: float
    extinct_replications: int
    survivors: int
    steps: int

    @property
    def flagged(self) -> bool:
        return not math.isfinite(self.abs_error)


def sweep_error_vs_N(
    K: SubStochasticKernel,
    S: SpectralTriple,
    f,
    N_list,
    replications: int,
    seed: int,
    gamma: float,
    gamma_prime: float,
    x0: int = 0,
) -> list[SweepRow]:
    """Median estimation error at the predicted optimal horizon, per N.

    For each N the horizon is T_star(N) rounded to a step, the observation
    time the envelope-optimal one, and the error |estimate - beta(f)| is
    summarized by its median over seeded replications (robust to the heavy
    tail when few trajectories survive).  Replications that go extinct are
    counted but not resampled: the extinction-versus-horizon tradeoff is
    the phenomenon under study.  Fully deterministic for a fixed seed.
    """
    N_list = [int(N) for N in N_list]
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be strictly increasing")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    f = np.asarray(f, dtype=float)
    exact = float(S.beta @ f)
    rows = []
    for iN, N in enumerate(N_list):
        T, t0, predicted = choose_horizon(S.lambda0, gamma, gamma_prime, N)
        plan = SamplingPlan.dirac(t0, T)
        estimates, stderrs, survivors, errors = [], [], [], []
        extinct = total_survivors = steps = 0
        for rep in range(replications):
            batch = simulate(K, x0, T, N, derive_key(seed, iN, rep))
            total_survivors += batch.N_T
            steps += batch.steps
            if batch.N_T < 2:
                extinct += 1
                continue
            est, se = estimate_beta(batch, f, plan)
            estimates.append(est)
            stderrs.append(se)
            survivors.append(batch.N_T)
            errors.append(abs(est - exact))
        if not errors:
            rows.append(SweepRow(N=N, T=T, t0=t0, N_T=0.0, estimate=math.nan,
                                 stderr=math.nan, exact=exact, abs_error=math.nan,
                                 predicted=predicted, extinct_replications=extinct,
                                 survivors=total_survivors, steps=steps))
            continue
        rows.append(SweepRow(
            N=N, T=T, t0=t0,
            N_T=float(np.median(survivors)),
            estimate=float(np.median(estimates)),
            stderr=float(np.median(stderrs)),
            exact=exact,
            abs_error=float(np.median(errors)),
            predicted=predicted,
            extinct_replications=extinct,
            survivors=total_survivors,
            steps=steps,
        ))
    return rows
