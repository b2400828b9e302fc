"""Seeded Monte Carlo estimation from survival-conditioned trajectories.

Simulation randomness is addressed, not streamed: the variate driving
trajectory i at step s is a pure function of (seed, i, s).  Trajectories
run in fixed blocks, one after another on the calling thread, each
returning only its own survivors' rows.  All reductions run in
trajectory-index order.  A sweep's replications, each addressed by its
own key, may run on forked worker processes; the parent reduces their
results in replication order, so the rows do not depend on the worker
count.

A step samples by exact indexed search (Chen & Asau 1974; Devroye,
*Non-Uniform Random Variate Generation*, 1986, sec. III.2.4): one gather
from a guide table addressed by the state and the top bits of the step's
hash settles nearly every trajectory, and one binary search over the
flattened cumulative rows settles the rest, all states at once.  The
table is exact, not approximate: it answers only where every hash of a
bucket gives the same next state, so the sample is the one the
comparison ``cum[s, j] <= u`` gives, bit for bit.
"""

from __future__ import annotations

import math
import os
import threading
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
# Byte budget of the guide table: it stays in cache.  A state's buckets
# shrink as n grows, so more lookups fall back to the binary search.
_TABLE_BYTES = 1 << 20

__all__ = [
    "ExtinctionError",
    "SweepRow",
    "TrajectoryBatch",
    "choose_horizon",
    "estimate_beta",
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


def simulate(
    K: SubStochasticKernel, x0: int, T: int, N: int, seed: int, chunks: int = 1
) -> TrajectoryBatch:
    """Sample N trajectories of the absorbed chain from x0 up to step T.

    Trajectories run in fixed blocks of ``2**16``, one after another, each
    carried through all T steps.  Blocks return their survivors' rows,
    joined in block order: O(N_T (T+1)) bytes.  Next states come from
    :func:`_sampler`, built once per call.  ``chunks`` is checked to be at
    least 1 and changes nothing else.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if T < 0:
        raise ValueError("T must be >= 0")
    if not 0 <= x0 < K.n:
        raise ValueError("x0 out of range")
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    return _simulate(_sampler(K), x0, T, N, seed)


def _sampler(K: SubStochasticKernel) -> tuple[np.ndarray, np.ndarray, int]:
    """(cum, table, k): K's cumulative rows and their :func:`_guide_table`."""
    cum = np.cumsum(K.entries, axis=1)  # u >= cum[s, n-1] means absorption
    return (cum, *_guide_table(cum))


def _simulate(sampler, x0: int, T: int, N: int, seed: int) -> TrajectoryBatch:
    """:func:`simulate` on checked arguments, with a built :func:`_sampler`."""
    survivors, rows, steps = zip(*(
        _advance_block(*sampler, lo, min(lo + _BLOCK, N), x0, T, seed)
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
    falls back to a binary search.  k is the most bits whose table fits
    ``_TABLE_BYTES``, at most 16.
    """
    n = cum.shape[0]
    dtype = np.min_scalar_type(n + 1)
    k = min(16, (_TABLE_BYTES // (n * dtype.itemsize)).bit_length() - 1)
    shift, buckets = 53 - k, 1 << k
    table = np.empty((n, buckets), dtype)
    rows = max(1, _TABLE_BYTES // (8 * (n + 2)))  # a block's int64 arrays fit the budget
    for lo in range(0, n, rows):
        thr = np.ldexp(cum[lo:lo + rows], 53)
        np.ceil(thr, out=thr)
        thr = np.minimum(thr, 2.0 ** 53, out=thr).astype(np.int64)
        # a threshold counts from its own bucket on; that bucket is the sentinel's
        # unless the threshold is its first hash; 2**53 falls in the extra column
        split = (thr & ((1 << shift) - 1)) != 0
        at = np.right_shift(thr, shift, out=thr)
        # rows are nondecreasing, so row s is the counts 0 .. n in runs that end
        # at its thresholds' buckets
        runs = np.diff(at, axis=1, prepend=0, append=buckets + 1)
        block = np.repeat(np.tile(np.arange(n + 1, dtype=dtype), len(at)), runs.ravel())
        at += np.arange(0, len(at) * (buckets + 1), buckets + 1)[:, None]
        block[at[split]] = n + 1
        table[lo:lo + rows] = block.reshape(len(at), buckets + 1)[:, :buckets]
    return table.ravel(), k


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
    """For each i, the count of ``cum[states[i]]`` at or below ``hash_uniforms(h)[i]``.

    One gather from :func:`_guide_table`'s table settles nearly every
    entry.  The sentinel entries take one vectorized binary search over
    the flattened rows of ``cum``: each count grows by the powers of two
    from the largest at most n down, by each one where the entries it
    adds are at or below the uniform (rows are nondecreasing).  A result
    of n means absorption.
    """
    n = cum.shape[0]
    idx = (h >> np.uint64(64 - k)).view(np.int64)
    idx += np.left_shift(states, k, dtype=np.int64)
    nxt = table[idx]
    miss = np.flatnonzero(nxt > n)
    if miss.size:
        u = hash_uniforms(h[miss])
        flat = cum.ravel()
        row = np.multiply(states[miss], n, dtype=np.int64) - 1  # flat[row + j] is cum[s, j-1]
        count = np.zeros(miss.size, dtype=np.int64)
        step = 1 << (n.bit_length() - 1)
        while step:
            wider = count + step
            np.add(count, step, out=count,
                   where=(wider <= n) & (flat[np.minimum(wider, n) + row] <= u))
            step >>= 1
        nxt[miss] = count
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


def choose_horizon(
    lambda0: float, gamma: float, gamma_prime: float, N: int, T: int | None = None
) -> tuple[int, int, float]:
    """(T, t0, predicted error) for N samples: the sampling error against the bias.

    With the per-sample survival cost e^(lambda0 T), the stochastic error
    scales like e^(lambda0 T / 2)/sqrt(N) while the bias at the optimal
    observation time scales like e^(-g g' T/(g+g')).  The two balance at
    T_star = ln N / (lambda0 + 2 g g'/(g+g')), with error N^(-zeta) for
    zeta = g g' / (2 g g' + lambda0 (g + g')).  T defaults to T_star
    rounded to a step, and t0 is the envelope-optimal observation time for
    T.  With an infinite fitted rate the chain conditions in one step and
    any horizon works: T defaults to 1, t0 is 0 and the predicted error
    N^(-1/2).
    """
    if not (math.isfinite(gamma) and math.isfinite(gamma_prime)):
        return (1 if T is None else T), 0, float(N) ** -0.5
    if not (lambda0 > 0 and gamma > 0 and gamma_prime > 0):
        raise ValueError("all rates must be positive")
    if N < 1:
        raise ValueError("N must be >= 1")
    zeta = gamma * gamma_prime / (2.0 * gamma * gamma_prime + lambda0 * (gamma + gamma_prime))
    if T is None:
        gbar = 2.0 * gamma * gamma_prime / (gamma + gamma_prime)
        T = max(1, int(math.floor(math.log(N) / (lambda0 + gbar) + 0.5)))
    return T, optimal_t0(gamma, gamma_prime, T), float(N) ** (-zeta)


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
    workers: int = 1,
) -> list[SweepRow]:
    """Median estimation error at the predicted optimal horizon, per N.

    For each N the horizon is T_star(N) rounded to a step, the observation
    time the envelope-optimal one, and the error |estimate - beta(f)| is
    summarized by its median over seeded replications (robust to the heavy
    tail when few trajectories survive).  Replications that go extinct are
    left out of the medians but not resampled: the extinction-versus-horizon
    tradeoff is the phenomenon under study.  Fully deterministic for a fixed
    seed.

    A replication is one :func:`simulate` then :func:`estimate_beta`.  With
    ``workers > 1`` they run on that many forked worker processes, capped
    at the usable CPUs and the replication count; processes, not threads,
    because the sampler's gathers and compares hold the GIL.  The sampler
    is built once, before the fork.  Each worker returns four numbers a
    replication and the parent reduces them in replication order, so the
    rows are the same for every ``workers``.  Without ``fork``, with one
    worker, or beside other threads, the replications run in this process.
    """
    N_list = [int(N) for N in N_list]
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be strictly increasing")
    if N_list and N_list[0] < 1:
        raise ValueError("N must be >= 1")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not 0 <= x0 < K.n:
        raise ValueError("x0 out of range")
    f = np.asarray(f, dtype=float)
    exact = float(S.beta @ f)
    horizons = [choose_horizon(S.lambda0, gamma, gamma_prime, N) for N in N_list]
    jobs = [(N, T, t0, derive_key(seed, iN, rep))
            for iN, (N, (T, t0, _)) in enumerate(zip(N_list, horizons))
            for rep in range(replications)]
    results = _replications((_sampler(K), x0, f), jobs, workers)
    rows = []
    for iN, (N, (T, t0, predicted)) in enumerate(zip(N_list, horizons)):
        reps = results[iN * replications:(iN + 1) * replications]
        total_survivors = sum(r[0] for r in reps)
        steps = sum(r[1] for r in reps)
        kept = [r for r in reps if r[2] is not None]
        if not kept:
            rows.append(SweepRow(N=N, T=T, t0=t0, N_T=0.0, estimate=math.nan,
                                 stderr=math.nan, exact=exact, abs_error=math.nan,
                                 predicted=predicted, survivors=total_survivors, steps=steps))
            continue
        survivors, _, estimates, stderrs = zip(*kept)
        rows.append(SweepRow(
            N=N, T=T, t0=t0,
            N_T=float(np.median(survivors)),
            estimate=float(np.median(estimates)),
            stderr=float(np.median(stderrs)),
            exact=exact,
            abs_error=float(np.median([abs(est - exact) for est in estimates])),
            predicted=predicted,
            survivors=total_survivors,
            steps=steps,
        ))
    return rows


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _replications(inputs, jobs: list, workers: int) -> list:
    """:func:`_replicate` of each job, in job order, on up to ``workers`` processes.

    The pool's initializer binds ``inputs`` (sampler, x0, f) in each worker:
    on fork they are inherited, not pickled a job.  Jobs go in largest N
    first, so the last ones to finish are short.  Every worker has exited
    when this returns or raises; a worker that dies raises
    ``BrokenProcessPool``, a ``RuntimeError``.  A fork copies the calling
    thread alone, and a lock another thread held would stay held in the
    copy, so with other threads alive the jobs run here.
    """
    workers = min(workers, _usable_cpus(), len(jobs))
    if workers > 1 and threading.active_count() == 1:
        # about 25 ms to import, paid by a parallel sweep alone
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_bind, initargs=(inputs,))
            try:
                futures = [pool.submit(_replicate_bound, *job) for job in reversed(jobs)]
                return [future.result() for future in reversed(futures)]
            finally:
                pool.shutdown(cancel_futures=True)
    return [_replicate(inputs, *job) for job in jobs]


# A worker's (sampler, x0, f), set by the pool's initializer.
_bound = None


def _bind(inputs) -> None:
    global _bound
    _bound = inputs


def _replicate_bound(N: int, T: int, t0: int, key: int):
    return _replicate(_bound, N, T, t0, key)


def _replicate(inputs, N: int, T: int, t0: int, key: int):
    """(survivors, steps, estimate, stderr) of one replication.

    Below two survivors there is nothing to estimate, and the last two are
    None.
    """
    sampler, x0, f = inputs
    batch = _simulate(sampler, x0, T, N, key)
    if batch.N_T < 2:
        return batch.N_T, batch.steps, None, None
    return (batch.N_T, batch.steps, *estimate_beta(batch, f, SamplingPlan.dirac(t0, T)))
