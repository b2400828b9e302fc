import math
import os
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    counter_uniform_reference,
    enum_bridge,
    enum_survival,
    simulate_reference,
    splitmix64,
)
from qsd import estimator, models
from qsd.deflation import Deflation
from qsd.ergodic import SamplingPlan, conditional_functional, optimal_t0
from qsd.estimator import (
    _TABLE_BYTES,
    ExtinctionError,
    _guide_table,
    _indexed_next_states,
    _usable_cpus,
    choose_horizon,
    estimate_beta,
    simulate,
    sweep_error_vs_N,
)
from qsd.rng import (
    counter_uniforms,
    derive_key,
    hash_uniforms,
    mix64,
    step_uniforms,
    trajectory_keys,
    uniform_field,
)
from qsd.spectral import compute_spectral

# simulate only reads ``entries`` and ``n``; a row of zeros (immediate
# absorption) makes a kernel reducible, so it is built without validation
ZERO_ROW = SimpleNamespace(
    entries=np.array([[0.2, 0.5, 0.3], [0.0, 0.0, 0.0], [0.4, 0.1, 0.2]]), n=3)
# zero entries repeat cumulative values; dyadic ones (0.25, 0.5) put
# thresholds exactly on bucket edges; row 1 absorbs at once; in row 3,
# cum * 2**53 = 2**45 + 1/2 lies just past a bucket edge (for any k >= 8)
SPARSE = SimpleNamespace(entries=np.array([
    [0.25, 0.0, 0.0, 0.25, 0.3],
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.1, 0.0, 0.0, 0.9],
    [2.0**-8 + 2.0**-54, 0.0, 0.0, 0.0, 0.3],
    [1 / 3, 0.0, 1 / 3, 0.0, 0.2],
]), n=5)


class TestRng:
    def test_addressed_not_streamed(self):
        idx = np.arange(1000)
        a = counter_uniforms(7, idx, 3)
        b = counter_uniforms(7, idx[::-1], 3)[::-1]
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_decorrelate(self):
        idx = np.arange(1000)
        a = counter_uniforms(1, idx, 0)
        b = counter_uniforms(2, idx, 0)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_range_and_mean(self):
        u = counter_uniforms(3, np.arange(200_000), 5)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 4 * (1 / math.sqrt(12 * 200_000))

    def test_derive_key_order_sensitive(self):
        assert derive_key(1, 2) != derive_key(2, 1)

    @pytest.mark.parametrize("z", [0, 1, 0x9E3779B97F4A7C15, 2**63, 2**64 - 1])
    def test_mix64_matches_splitmix64(self, z):
        assert int(mix64(np.array([z], dtype=np.uint64))[0]) == splitmix64(z)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (500, 500)], ids=["1x1", "3x5", "500x500"])
    def test_uniform_field_rows_are_counter_uniforms(self, shape):
        rows, cols = shape
        want = np.array([counter_uniforms(derive_key(11, i), np.arange(cols), 0)
                         for i in range(rows)])
        got = uniform_field(11, rows, cols)
        assert got.shape == shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("key", [0, 7, derive_key(3, 4), 2**64 - 1])
    def test_split_matches_one_line_formula(self, key):
        gen = np.random.default_rng(key % 1000)
        idx = np.concatenate([gen.integers(0, 2**32, 40, dtype=np.uint64),
                              gen.integers(2**32, 2**64 - 1, 40, dtype=np.uint64,
                                           endpoint=True)])
        for step in (0, 1, 17, 2**40):
            want = np.array([counter_uniform_reference(key, int(i), step) for i in idx])
            np.testing.assert_array_equal(counter_uniforms(key, idx, step), want)
            np.testing.assert_array_equal(
                step_uniforms(trajectory_keys(key, idx), step), want)


class TestSimulate:
    def test_single_state_bernoulli(self, single):
        N = 40_000
        batch = simulate(single, 0, 3, N, seed=11)
        p = 0.125
        sigma = math.sqrt(p * (1 - p) / N)
        assert abs(batch.N_T / N - p) < 4 * sigma

    def test_t3_survival_rate(self, t3):
        N = 40_000
        batch = simulate(t3, 0, 5, N, seed=12)
        p = 0.7**5
        sigma = math.sqrt(p * (1 - p) / N)
        assert abs(batch.N_T / N - p) < 4 * sigma

    def test_w3_survivor_frequencies_match_bridge(self, w3):
        N, T, t = 60_000, 8, 4
        batch = simulate(w3, 0, T, N, seed=13)
        want = enum_bridge(w3.entries, 0, t, T)
        states = batch.survivor_paths[:, t]
        for y in range(3):
            phat = float(np.mean(states == y))
            sigma = math.sqrt(want[y] * (1 - want[y]) / batch.N_T)
            assert abs(phat - want[y]) < 4 * sigma + 1e-12

    def test_expected_survivors(self, w3):
        N, T = 50_000, 6
        batch = simulate(w3, 1, T, N, seed=14)
        p = enum_survival(w3.entries, 1, T)
        sigma = math.sqrt(p * (1 - p) / N)
        assert abs(batch.N_T / N - p) < 4 * sigma

    def test_chunk_partition_invariance(self, w3):
        a = simulate(w3, 0, 12, 5_001, seed=9, chunks=1)
        b = simulate(w3, 0, 12, 5_001, seed=9, chunks=4)
        c = simulate(w3, 0, 12, 5_001, seed=9, chunks=13)
        paths, survivors = simulate_reference(w3, 0, 12, 5_001, seed=9)
        for batch in (a, b, c):
            np.testing.assert_array_equal(batch.survivor_paths, paths[survivors])
            np.testing.assert_array_equal(batch.survivor_indices, survivors)

    def test_seed_changes_output(self, w3):
        a = simulate(w3, 0, 6, 500, seed=1)
        b = simulate(w3, 0, 6, 500, seed=2)
        assert not np.array_equal(a.survivor_indices, b.survivor_indices)
        for batch, seed in ((a, 1), (b, 2)):
            paths, survivors = simulate_reference(w3, 0, 6, 500, seed=seed)
            np.testing.assert_array_equal(batch.survivor_paths, paths[survivors])
            np.testing.assert_array_equal(batch.survivor_indices, survivors)

    def test_absorbed_recorded_up_to_absorption(self, w3):
        # absorbed trajectories leave no row, but each step they lived through
        # is one sampled transition: the reference's count of live states
        batch = simulate(w3, 0, 10, 2_000, seed=3)
        paths, survivors = simulate_reference(w3, 0, 10, 2_000, seed=3)
        assert survivors.size < 2_000
        np.testing.assert_array_equal(batch.survivor_indices, survivors)
        np.testing.assert_array_equal(batch.survivor_paths, paths[survivors])
        assert batch.steps == sum(np.count_nonzero(paths[:, s] >= 0) for s in range(10))

    def test_survivor_paths_all_alive(self, w3):
        batch = simulate(w3, 0, 9, 2_000, seed=4)
        assert np.all(batch.survivor_paths >= 0) and np.all(batch.survivor_paths < w3.n)

    def test_validation(self, w3):
        with pytest.raises(ValueError):
            simulate(w3, 0, 5, 0, seed=0)
        with pytest.raises(ValueError):
            simulate(w3, 5, 5, 10, seed=0)

    @pytest.mark.parametrize("N,kernel,T", [
        *(pytest.param(N, kernel, 7, id=f"{N}-{kernel}")
          for N in (1, 2**16 - 1, 2**16 + 3, 3 * 2**16)
          for kernel in ("rs64", "single", "t3", "w3", "zero_row", "sparse")),
        # n > 255: uint16 states; the table's byte cap binds (1024 < 32 n buckets)
        pytest.param(2**16 + 3, "rs300", 7, id="65539-rs300"),
        # uint8 states, but the sentinel 256 needs a uint16 table
        pytest.param(2**16 + 3, "rs255", 7, id="65539-rs255"),
        pytest.param(2**16 + 3, "w3", 0, id="65539-w3-T0"),  # the walk back takes no step
    ])
    def test_bit_identical_to_reference_loop(self, request, kernel, N, T):
        if kernel.startswith("rs"):
            K = models.random_substochastic(int(kernel[2:]), 5)
        elif kernel == "zero_row":
            K = ZERO_ROW
        elif kernel == "sparse":
            K = SPARSE
        else:
            K = request.getfixturevalue(kernel)
        x0 = K.n - 1  # != 0 except on the one-state kernel
        # the reference's N x n temporary is split into pieces of 2**14 rows
        paths, survivors = simulate_reference(K, x0, T, N, seed=31, chunks=-(-N // 2**14))
        for chunks in (1, 2, 4, 13):
            batch = simulate(K, x0, T, N, seed=31, chunks=chunks)
            np.testing.assert_array_equal(batch.survivor_paths, paths[survivors])
            np.testing.assert_array_equal(batch.survivor_indices, survivors)
            assert batch.steps == sum(np.count_nonzero(paths[:, s] >= 0) for s in range(T))

    def test_blocks_join_in_order(self, w3):
        # each block returns its own survivors' rows; a row that landed in
        # another block's place, or was lost, would change the batch
        batch = simulate(w3, 1, 6, 5 * 2**16 + 7, seed=8)
        paths, survivors = simulate_reference(w3, 1, 6, 5 * 2**16 + 7, seed=8, chunks=24)
        np.testing.assert_array_equal(batch.survivor_paths, paths[survivors])
        np.testing.assert_array_equal(batch.survivor_indices, survivors)
        assert batch.steps == sum(np.count_nonzero(paths[:, s] >= 0) for s in range(6))

    def test_simulate_runs_on_the_calling_thread(self, w3, monkeypatch):
        threads = []
        advance = estimator._advance_block

        def record(*args):
            threads.append(threading.get_ident())
            return advance(*args)

        monkeypatch.setattr(estimator, "_advance_block", record)
        simulate(w3, 0, 5, 3 * 2**16, seed=2, chunks=8)
        assert threads == [threading.get_ident()] * 3

    def test_memory_stays_near_paths(self):
        K = models.random_substochastic(64, 5)
        tracemalloc.start()
        try:
            batch = simulate(K, 0, 10, 200_000, seed=1, chunks=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < batch.survivor_paths.nbytes + 16 * 2**20

    def test_memory_of_a_million_trajectories(self, w3):
        # only survivors' histories are kept: an N x (T+1) state array would
        # take 15 MiB here even as uint8
        tracemalloc.start()
        try:
            simulate(w3, 0, 15, 10**6, seed=5, chunks=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize(
        "kernel", ["w3", "sparse", "rs64", "rs255", "half", "rs256", "zero-runs"])
    def test_table_exact_at_every_threshold(self, request, kernel):
        # hashes whose top 53 bits sit on, just below and just above each
        # threshold thr = ceil(cum * 2**53), with random low bits
        if kernel == "half":  # n = 1
            K = SimpleNamespace(entries=np.array([[0.5]]), n=1)
        elif kernel == "zero-runs":
            # runs of zero entries repeat non-dyadic cumulative values inside
            # sentinel buckets: the binary search must count every copy
            entries = models.random_substochastic(64, 5).entries.copy()
            entries[7, 10:30] = 0.0
            entries[9, ::2] = 0.0
            K = SimpleNamespace(entries=entries, n=64)
        elif kernel.startswith("rs"):  # rs256: uint16 states and table
            K = models.random_substochastic(int(kernel[2:]), 5)
        else:
            K = SPARSE if kernel == "sparse" else request.getfixturevalue(kernel)
        cum = np.cumsum(K.entries, axis=1)
        table, k = _guide_table(cum)
        thr = np.minimum(np.ceil(np.ldexp(cum, 53)), 2.0**53).astype(np.int64)
        s = np.repeat(np.arange(K.n), K.n)
        states = s.astype(np.min_scalar_type(K.n))
        low = np.random.default_rng(0).integers(0, 2**11, s.size, dtype=np.uint64)
        for d in (0, -1, 1):
            m = np.clip(thr.ravel() + d, 0, 2**53 - 1).astype(np.uint64)
            h = (m << np.uint64(11)) | low
            want = (cum[s] <= (m * 2.0**-53)[:, None]).sum(axis=1)
            np.testing.assert_array_equal(_indexed_next_states(cum, table, k, states, h), want)

    def test_random_hashes_match_full_comparison(self):
        # on rs64 about 0.4% of random hashes draw a sentinel, spread over
        # every state, so one call searches many rows at once
        K = models.random_substochastic(64, 5)
        cum = np.cumsum(K.entries, axis=1)
        table, k = _guide_table(cum)
        gen = np.random.default_rng(3)
        for _ in range(10):
            states = gen.integers(0, K.n, 20_000).astype(np.uint8)
            h = gen.integers(0, 2**64 - 1, states.size, dtype=np.uint64, endpoint=True)
            bucket = (states.astype(np.int64) << k) + (h >> np.uint64(64 - k)).astype(np.int64)
            assert np.unique(states[table[bucket] > K.n]).size >= 20
            want = (cum[states] <= hash_uniforms(h)[:, None]).sum(axis=1)
            np.testing.assert_array_equal(_indexed_next_states(cum, table, k, states, h), want)

    def test_table_built_in_bounded_memory(self):
        # rows go through in blocks: at rs1000 the table is 0.98 MiB from a
        # 7.6 MiB cum, and a whole-matrix build peaked at 24.8 MiB
        cum = np.cumsum(models.random_substochastic(1000, 7).entries, axis=1)
        tracemalloc.start()
        try:
            table, _ = _guide_table(cum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= table.nbytes + 6 * _TABLE_BYTES

    @pytest.mark.parametrize("n", [1, 3, 64, 128, 129, 181, 200, 255, 300, 1000])
    def test_table_bytes_bounded(self, n):
        cum = np.cumsum(np.full((n, n), 0.9 / n), axis=1)
        table, k = _guide_table(cum)
        assert table.nbytes <= _TABLE_BYTES == 2**20
        assert table.size == n << k
        # the byte budget alone sets k, up to 16 bits; up to n = 128 that is
        # at least 32 n buckets a state, from n = 129 on fewer
        assert k == 16 or 2 * table.nbytes > _TABLE_BYTES
        assert ((1 << k) >= 32 * n) == (n <= 128)
        assert (1 << k) >= 32 * n or 2 * table.nbytes > _TABLE_BYTES

    def test_steps_count_live_transitions(self, w3):
        batch = simulate(w3, 0, 9, 2**16 + 3, seed=6)
        paths, _ = simulate_reference(w3, 0, 9, 2**16 + 3, seed=6, chunks=5)
        alive_before = [np.count_nonzero(paths[:, s] >= 0) for s in range(9)]
        assert batch.steps == sum(alive_before)
        assert simulate(w3, 0, 0, 10, seed=6).steps == 0


class TestEstimateBeta:
    def test_constant_f(self, w3):
        batch = simulate(w3, 0, 6, 5_000, seed=21)
        est, se = estimate_beta(batch, [4.2, 4.2, 4.2], SamplingPlan.dirac(3, 6))
        assert est == pytest.approx(4.2, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_t3_symmetric_estimate(self, t3):
        batch = simulate(t3, 0, 12, 80_000, seed=22)
        est, se = estimate_beta(batch, [1.0, 0.0], SamplingPlan.dirac(10, 12))
        assert abs(est - 0.5) < 4 * se

    def test_refuses_extinct_batch(self, single):
        batch = simulate(single, 0, 40, 3, seed=23)
        assert batch.N_T < 2
        with pytest.raises(ExtinctionError):
            estimate_beta(batch, [1.0], SamplingPlan.dirac(1, 40))

    def test_unbiased_against_exact_conditional(self, w3):
        # seed-ensemble mean of the estimator matches the exact module
        t, T, f = 3, 7, np.array([1.0, 0.0, 0.0])
        exact = conditional_functional(Deflation(w3, compute_spectral(w3)), 0, f,
                                       SamplingPlan.dirac(t, T))
        ests, ses = [], []
        for s in range(40):
            batch = simulate(w3, 0, T, 4_000, seed=derive_key(99, s))
            e, se = estimate_beta(batch, f, SamplingPlan.dirac(t, T))
            ests.append(e)
            ses.append(se)
        mean = np.mean(ests)
        ensemble_sigma = np.std(ests, ddof=1) / math.sqrt(len(ests))
        assert abs(mean - exact) < 4 * ensemble_sigma

    def test_plan_longer_than_batch_rejected(self, w3):
        batch = simulate(w3, 0, 5, 100, seed=1)
        with pytest.raises(ValueError, match="horizon"):
            estimate_beta(batch, [1.0, 0.0, 0.0], SamplingPlan.dirac(6, 8))

    def test_w3_optimal_plan_within_predicted_envelope(self, w3, w3_triple):
        # at the matched horizon and observation time, the realized error
        # stays within 5x the predicted N^-zeta in at least 95 of 100 seeds
        from qsd.qprocess import fitted_rates

        gamma, gamma_prime = fitted_rates(Deflation(w3, w3_triple))
        N = 10_000
        T, t0, predicted = choose_horizon(w3_triple.lambda0, gamma, gamma_prime, N)
        f = np.array([1.0, 0.0, 0.0])
        exact = float(w3_triple.beta @ f)
        hits = 0
        for s in range(100):
            batch = simulate(w3, 0, T, N, seed=derive_key(1234, s))
            est, _ = estimate_beta(batch, f, SamplingPlan.dirac(t0, T))
            if abs(est - exact) <= 5.0 * predicted:
                hits += 1
        assert hits >= 95


def _zeta(lambda0, gamma, gamma_prime):
    """The error exponent g g' / (2 g g' + lambda0 (g + g'))."""
    return gamma * gamma_prime / (2 * gamma * gamma_prime + lambda0 * (gamma + gamma_prime))


class TestPredictTradeoff:
    """choose_horizon's balance of the sampling error against the bias."""

    def test_equal_rates_quarter(self):
        _, _, predicted = choose_horizon(1.0, 1.0, 1.0, 100)
        assert predicted == pytest.approx(100 ** -0.25)

    def test_no_killing_limit_half(self):
        _, _, predicted = choose_horizon(1e-12, 1.0, 1.0, 100)
        assert predicted == pytest.approx(100 ** -0.5, rel=1e-9)

    def test_given_N_formulas(self):
        lam0, g, gp, N = 0.2, 0.8, 0.6, 10_000
        T, t0, predicted = choose_horizon(lam0, g, gp, N)
        gbar = 2 * g * gp / (g + gp)
        assert T == round(math.log(N) / (lam0 + gbar))
        assert t0 == optimal_t0(g, gp, T)
        assert predicted == pytest.approx(N ** -_zeta(lam0, g, gp))
        # a given horizon keeps its T and its prediction
        assert choose_horizon(lam0, g, gp, N, 25) == (25, optimal_t0(g, gp, 25), predicted)

    def test_zeta_in_open_interval(self):
        for lam0, g, gp in [(0.1, 0.5, 0.9), (2.0, 0.3, 0.3), (0.01, 3.0, 1.0)]:
            _, _, predicted = choose_horizon(lam0, g, gp, 10)
            assert predicted == pytest.approx(10 ** -_zeta(lam0, g, gp))
            assert 10 ** -0.5 < predicted < 1.0

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="positive"):
            choose_horizon(-1.0, 1.0, 1.0, 10)
        with pytest.raises(ValueError, match="positive"):
            choose_horizon(1.0, 0.0, 1.0, 10, 5)
        with pytest.raises(ValueError, match="N must be"):
            choose_horizon(1.0, 1.0, 1.0, 0)


class TestSweep:
    def test_single_state_zero_errors(self, single):
        S = compute_spectral(single)
        rows = sweep_error_vs_N(
            single, S, [1.0], [100, 1000], 4, seed=5,
            gamma=math.inf, gamma_prime=math.inf,
        )
        assert all(r.abs_error == 0.0 for r in rows)

    def test_deterministic_under_seed(self, w3, w3_triple):
        f = [1.0, 0.0, 0.0]
        a = sweep_error_vs_N(w3, w3_triple, f, [200, 2000], 4, 7, 0.77, 0.77)
        b = sweep_error_vs_N(w3, w3_triple, f, [200, 2000], 4, 7, 0.77, 0.77)
        assert a == b

    def test_rows_shape_and_prediction(self, t3, t3_triple):
        g = math.log(7.0)
        rows = sweep_error_vs_N(t3, t3_triple, [1.0, 0.0], [100, 1000, 10_000], 8, 3, g, g)
        zeta = _zeta(t3_triple.lambda0, g, g)
        for r in rows:
            assert r.predicted == pytest.approx(r.N ** (-zeta))
            assert r.T >= 1 and 0 <= r.t0 <= r.T

    def test_extinct_rows_flagged(self, single):
        S = compute_spectral(single)
        # vanishing conditioning rates push T_star to ln N / lambda0, which
        # pins the expected survivor count near 1 for every N; with this
        # seed all replications come back with N_T < 2 and stay flagged
        rows = sweep_error_vs_N(
            single, S, [1.0], [10, 20], 3, seed=1,
            gamma=1e-3, gamma_prime=1e-3,
        )
        assert all(r.flagged for r in rows)
        assert all(r.extinct_replications == 3 for r in rows)

    def test_requires_increasing_N(self, w3, w3_triple):
        with pytest.raises(ValueError, match="increasing"):
            sweep_error_vs_N(w3, w3_triple, [1.0, 0, 0], [100, 100], 2, 1, 0.7, 0.7)

    def test_t3_slope_tracks_exponent(self, t3, t3_triple):
        # closed-form rates: gamma = gamma' = ln 7, so zeta is exact
        g = math.log(7.0)
        zeta = _zeta(t3_triple.lambda0, g, g)
        rows = sweep_error_vs_N(
            t3, t3_triple, [1.0, 0.0], [100, 1_000, 10_000, 100_000], 24, 77, g, g
        )
        slope = float(np.polyfit(
            np.log([r.N for r in rows]), np.log([r.abs_error for r in rows]), 1
        )[0])
        assert abs(slope + zeta) <= 0.15


class TestParallelSweep:
    """Replications on forked workers give the rows of the inline loop."""

    @pytest.mark.parametrize("case", ["w3", "t3", "rs8", "single"])
    def test_two_workers_match_one(self, request, monkeypatch, case):
        K = (models.random_substochastic(8, 3) if case == "rs8"
             else request.getfixturevalue(case))
        S = compute_spectral(K)
        args, x0 = {
            # the largest N spans two blocks of 2**16 trajectories
            "w3": (([0.0, 0.5, 1.0], [1000, 2**16 + 5], 3, 7, 0.77, 0.77), 2),
            "t3": (([1.0, 0.0], [100, 1000, 10_000], 5, 3, math.log(7.0), math.log(7.0)), 0),
            "rs8": (([(x % 3) / 2 for x in range(8)], [100, 400], 4, 11, 1.79, 1.79), 5),
            # every replication leaves fewer than two survivors
            "single": (([1.0], [10, 20], 3, 1, 1e-3, 1e-3), 0),
        }[case]
        inline = sweep_error_vs_N(K, S, *args, x0=x0)
        parent, replicate = os.getpid(), estimator._replicate

        def in_a_worker(*job):
            assert os.getpid() != parent, "a replication ran in the parent"
            return replicate(*job)

        monkeypatch.setattr(estimator, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(estimator, "_replicate", in_a_worker)
        forked = sweep_error_vs_N(K, S, *args, x0=x0, workers=2)
        assert [repr(r) for r in forked] == [repr(r) for r in inline]
        assert all(r.flagged for r in inline) == (case == "single")

    def test_workers_must_be_positive(self, w3, w3_triple):
        with pytest.raises(ValueError, match="workers"):
            sweep_error_vs_N(w3, w3_triple, [1.0, 0, 0], [100], 2, 1, 0.7, 0.7, workers=0)

    def test_usable_cpus_reads_the_affinity_set(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert _usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert _usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _usable_cpus() == 1
