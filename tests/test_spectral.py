import math
import time

import numpy as np
import pytest

from oracles import dense_perron, eig_triple, second_eigenvalue_magnitude, tv_distance
from qsd import models
from qsd.deflation import Deflation
from qsd.kernels import SubStochasticKernel, conditioned_evolve
from qsd.spectral import (
    HANDOFF_WINDOW,
    WARMUP_STEPS,
    PowerIterationError,
    compute_spectral,
    conditioned_tv_rate,
    fit_log_decay,
    _tail_rate_fit,
)


class _CountingProducts(np.ndarray):
    """A kernel matrix that counts the matrix products it enters."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.products += 1
        inputs = [x.view(np.ndarray) if isinstance(x, _CountingProducts) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestComputeSpectral:
    def test_single_state(self, single):
        S = compute_spectral(single)
        assert S.alpha.tolist() == [1.0]
        assert S.rho == pytest.approx(0.5, abs=1e-14)
        assert S.eta.tolist() == [1.0]
        assert S.beta.tolist() == [1.0]

    def test_t3_symmetric(self, t3_triple):
        np.testing.assert_allclose(t3_triple.alpha, [0.5, 0.5], atol=1e-13)
        assert t3_triple.rho == pytest.approx(0.7, abs=1e-13)
        np.testing.assert_allclose(t3_triple.eta, [1.0, 1.0], atol=1e-13)
        np.testing.assert_allclose(t3_triple.beta, [0.5, 0.5], atol=1e-13)

    def test_w3_matches_eigen_oracle(self, w3, w3_triple):
        alpha, rho, eta, beta = eig_triple(w3.entries)
        np.testing.assert_allclose(w3_triple.alpha, alpha, atol=1e-10)
        assert w3_triple.rho == pytest.approx(rho, abs=1e-10)
        np.testing.assert_allclose(w3_triple.eta, eta, atol=1e-10)
        np.testing.assert_allclose(w3_triple.beta, beta, atol=1e-10)

    def test_random_kernels_match_oracle(self, random_kernels):
        for K in random_kernels[:6]:
            S = compute_spectral(K, tol=1e-13)
            alpha, rho, eta, beta = eig_triple(K.entries)
            np.testing.assert_allclose(S.alpha, alpha, atol=1e-10)
            assert S.rho == pytest.approx(rho, abs=1e-10)
            np.testing.assert_allclose(S.eta, eta, atol=1e-10)

    def test_normalizations(self, w3_triple):
        assert w3_triple.alpha.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(w3_triple.alpha @ w3_triple.eta) == pytest.approx(1.0, abs=1e-12)
        assert w3_triple.beta.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(w3_triple.beta, w3_triple.alpha * w3_triple.eta)

    def test_residual_honored(self, w3, w3_triple):
        A = w3.entries
        assert np.max(np.abs(w3_triple.alpha @ A - w3_triple.rho * w3_triple.alpha)) <= 1e-13
        assert np.max(np.abs(A @ w3_triple.eta - w3_triple.rho * w3_triple.eta)) <= 1e-12

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12])
    def test_rejects_tol_that_is_not_positive_finite(self, w3, tol):
        with pytest.raises(ValueError, match="tol"):
            compute_spectral(w3, tol=tol)

    def test_nonconvergence_reports_residual(self, w3):
        with pytest.raises(PowerIterationError) as exc:
            compute_spectral(w3, tol=1e-13, max_iters=3)
        assert exc.value.residual > 0

    def test_warm_up_is_plain_shifted_power_iteration(self, w3, t3, random_kernels):
        # a kernel that converges inside the warm-up gets the bytes of the
        # plain loop on (K + I/2)/1.5, and the step count; ou_discretized
        # n=12 and n=13 take 163 and 188 steps, the birth-death chain 195,
        # so the hand-off rule stays quiet up to the end of the warm-up
        slow = [models.ou_discretized(12), models.ou_discretized(13),
                models.birth_death(6, birth=0.3, death=0.5)]
        for K in [w3, t3] + slow + random_kernels:
            A = K.entries
            a, h = np.full(K.n, 1.0 / K.n), np.ones(K.n)
            for step in range(1, WARMUP_STEPS + 1):
                a_new = (a @ A + 0.5 * a) / 1.5
                a = a_new / a_new.sum()
                h_new = (A @ h + 0.5 * h) / 1.5
                h = h_new / h_new.max()
                rho = float((a @ A).sum())
                residual = max(float(np.max(np.abs(a @ A - rho * a))),
                               float(np.max(np.abs(A @ h - rho * h))))
                if residual <= 1e-12:
                    break
            S = compute_spectral(K)
            np.testing.assert_array_equal(S.alpha, a)
            np.testing.assert_array_equal(S.eta, h / float(a @ h))
            assert (S.rho, S.residual, S.iterations, S.power_steps) == (rho, residual, step, step)
        assert [compute_spectral(K).iterations for K in slow] == [163, 188, 195]

    @pytest.mark.parametrize("kind", ["w3", "ou200"])
    def test_two_products_per_step(self, kind):
        K = models.w3() if kind == "w3" else models.ou_discretized(200)
        plain = compute_spectral(K)
        K.entries = A = K.entries.view(_CountingProducts)
        A.products = 0
        S = compute_spectral(K)
        # two for the start vectors, then a @ K and K @ h once per step of either phase
        assert A.products == 2 * (S.iterations + 1)
        assert (S.rho, S.residual, S.iterations) == (plain.rho, plain.residual, plain.iterations)
        np.testing.assert_array_equal(S.alpha, plain.alpha)
        np.testing.assert_array_equal(S.eta, plain.eta)

    @pytest.mark.parametrize("tol", [1e-20, 1e-300])
    @pytest.mark.parametrize("kind", ["w3", "ou200"])
    def test_unreachable_tol_stalls_fast(self, kind, tol):
        K = models.w3() if kind == "w3" else models.ou_discretized(200)
        start = time.perf_counter()
        with pytest.raises(PowerIterationError, match="stalled") as exc:
            compute_spectral(K, tol=tol)
        assert time.perf_counter() - start < 2.0
        assert 0 < exc.value.residual < 1e-13

    def test_max_iters_counts_both_phases(self):
        K = models.ou_discretized(200)
        S = compute_spectral(K)
        assert S.power_steps < S.iterations <= 2 * HANDOFF_WINDOW + 10
        with pytest.raises(PowerIterationError, match="no convergence") as exc:
            compute_spectral(K, max_iters=S.iterations - 1)
        assert exc.value.residual > 1e-12
        assert compute_spectral(K, max_iters=S.iterations).iterations == S.iterations

    def test_alpha_is_fixed_point(self, w3, w3_triple):
        for t in (1, 5, 20, 100):
            evolved = conditioned_evolve(w3, w3_triple.alpha, t)
            assert tv_distance(evolved, w3_triple.alpha) < 1e-10

    def test_geometric_survival(self, w3, w3_triple):
        v = w3_triple.alpha.copy()
        for t in range(1, 101):
            v = v @ w3.entries
            assert v.sum() == pytest.approx(w3_triple.rho**t, rel=1e-10)

    def test_eta_one_step_harmonic(self, w3, w3_triple):
        # E_x[eta(X_1); survival] = rho * eta(x)
        np.testing.assert_allclose(
            w3.entries @ w3_triple.eta, w3_triple.rho * w3_triple.eta, atol=1e-12
        )

    def test_time_unit_scaling_invariance(self, w3):
        fast = SubStochasticKernel(w3.entries, time_unit=0.25)
        S1 = compute_spectral(w3)
        S2 = compute_spectral(fast)
        np.testing.assert_array_equal(S1.alpha, S2.alpha)
        np.testing.assert_array_equal(S1.eta, S2.eta)
        assert S1.rho == S2.rho
        # only the physical-rate conversion changes
        assert S2.lambda0 / fast.time_unit == pytest.approx(4 * S1.lambda0 / w3.time_unit)

    def test_lambda0(self, t3_triple):
        assert t3_triple.lambda0 == pytest.approx(-math.log(0.7), abs=1e-13)


STRESS = {
    "ou_discretized-200": lambda: models.ou_discretized(200),
    "linear_bd_truncated-60": lambda: models.linear_bd_truncated(60),
    "linear_bd_truncated-200": lambda: models.linear_bd_truncated(200),
    "logistic_bd-100": lambda: models.logistic_bd(100, birth_step=0.003),
}


class TestSlowMixingSolve:
    """Gap ratios 0.997 to 0.9998: the warm-up hands off early and inverse iteration finishes."""

    @pytest.mark.parametrize("case", list(STRESS))
    def test_matches_dense_eig(self, case):
        K = STRESS[case]()
        A = K.entries
        S = compute_spectral(K)
        assert S.residual <= 1e-12
        assert S.power_steps < S.iterations <= 2 * HANDOFF_WINDOW + 10
        assert np.all(S.alpha > 0) and np.all(S.eta > 0)
        alpha, rho, eta, gap, cond = dense_perron(A)
        # tolerances scale with the condition number over the spectral gap
        res = max(S.residual, float(np.max(np.abs(A @ S.eta - S.rho * S.eta)) / S.eta.max()),
                  8 * K.n * np.finfo(float).eps)
        assert S.rho == pytest.approx(rho, abs=10 * cond * res)
        vec_tol = 10 * cond * res / gap
        assert float(np.max(np.abs(S.alpha - alpha))) <= vec_tol
        assert float(np.max(np.abs(S.eta - eta))) <= vec_tol * float(eta.max())

    @pytest.mark.parametrize("K", [models.ou_discretized(12), models.linear_bd_truncated(10)],
                             ids=["ou_discretized-12", "linear_bd_truncated-10"])
    def test_matches_extended_precision_eig(self, K):
        S = compute_spectral(K, tol=1e-13)
        assert S.residual <= 1e-13
        assert S.iterations <= WARMUP_STEPS + 10
        alpha, rho, eta, beta = eig_triple(K.entries)
        np.testing.assert_allclose(S.alpha, alpha, rtol=0, atol=1e-10)
        assert S.rho == pytest.approx(rho, abs=1e-13)
        np.testing.assert_allclose(S.eta, eta, rtol=1e-9)
        np.testing.assert_allclose(S.beta, beta, rtol=0, atol=1e-10)


class TestThousandStates:
    """n = 1000 against dense eig, which takes about 2 s on one BLAS thread."""

    def test_random_kernel_matches_dense_eig(self):
        K = models.random_substochastic(1000, 7)
        S = compute_spectral(K)
        alpha, rho, eta, _, _ = dense_perron(K.entries)
        # measured: rho 9e-16, alpha 1.2e-13 and eta 1.6e-12, entrywise relative
        assert S.rho == pytest.approx(rho, rel=1e-11, abs=0)
        np.testing.assert_allclose(S.alpha, alpha, rtol=1e-11, atol=0)
        np.testing.assert_allclose(S.eta, eta, rtol=1e-11, atol=0)

    def test_birth_death_rho_matches_dense_eig(self):
        # rho only (6.8e-14 measured): dense eig's alpha is 70x off in its
        # tiniest entries, so it is no oracle for the vectors here
        K = models.linear_bd_truncated(1000)
        rho = float(np.linalg.eigvals(K.entries).real.max())
        assert compute_spectral(K).rho == pytest.approx(rho, rel=1e-11, abs=0)


class TestFitDecay:
    def test_exact_log_linear(self):
        series = [(t, math.log(2.0) - t * math.log(3.0)) for t in range(1, 11)]
        assert fit_log_decay(series) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_t3_conditioned_tv_closed_form(self, t3, t3_triple):
        # two-state diagonalization: TV(law_t from 0, alpha) = (1/7)^t / 2
        series = []
        for t in range(1, 11):
            law = conditioned_evolve(t3, [1.0, 0.0], t)
            series.append((t, tv_distance(law, t3_triple.alpha)))
        for t, v in series:
            assert v == pytest.approx(0.5 * 7.0 ** (-t), rel=1e-6)
        gamma = fit_log_decay([(t, math.log(v)) for t, v in series])
        assert gamma == pytest.approx(math.log(7.0), rel=1e-8)

    def test_w3_q_mixing_rate_matches_eigen_oracle(self, w3, w3_triple):
        gamma = conditioned_tv_rate(Deflation(w3, w3_triple), t_max=60)
        lam2 = second_eigenvalue_magnitude(w3.entries)
        expected = -math.log(lam2 / w3_triple.rho)
        assert gamma == pytest.approx(expected, rel=0.02)

    @pytest.mark.parametrize("name", ["w3", "rs8"])
    @pytest.mark.parametrize("t_max", [40, 41])
    def test_conditioned_tv_rate_fits_the_second_half(self, name, t_max):
        K = models.w3() if name == "w3" else models.random_substochastic(8, 3)
        S = compute_spectral(K)
        core = Deflation(K, S)
        tvs = [v for _, D in core.blocks(range(t_max + 1)) for v in core.conditioned_tv(D)]
        tail = [(t, tvs[t]) for t in range(t_max // 2 + 1, t_max + 1)]
        assert conditioned_tv_rate(core, t_max=t_max) == fit_log_decay(tail)

    def test_conditioned_tv_rate_infinite_on_one_state(self, single):
        core = Deflation(single, compute_spectral(single))
        assert conditioned_tv_rate(core, t_max=41) == math.inf

    def test_conditioned_tv_rate_infinite_on_one_step_mixing(self):
        # rank one with eta = (1, 1): the series is nonzero at t = 0 and
        # exactly 0 from t = 1, so the tail holds no nonzero point
        K = SubStochasticKernel(np.full((2, 2), 0.25))
        S = compute_spectral(K)
        core = Deflation(K, S)
        series = [v for _, D in core.blocks(range(42)) for v in core.conditioned_tv(D)]
        assert series[0] > -math.inf and set(series[1:]) == {-math.inf}
        assert conditioned_tv_rate(core, t_max=41) == math.inf

    def test_tail_rate_rule(self):
        line = [(t, -0.5 * t) for t in range(1, 9)]
        assert _tail_rate_fit(line) == fit_log_decay(line[4:])
        # exact zeros are dropped; a short tail falls back to every nonzero point
        zeros = line[:5] + [(t, -math.inf) for t in range(6, 9)]
        assert _tail_rate_fit(zeros) == fit_log_decay(line[:5])
        # a tail with no nonzero point is an infinite rate
        assert _tail_rate_fit(line[:4] + zeros[5:]) == math.inf
        # fewer than three nonzero points is too short a window to fit
        with pytest.raises(ValueError, match="3 points"):
            _tail_rate_fit(line[:2])

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="3 points"):
            fit_log_decay([(1, 0.0), (2, -0.5)])

    def test_rejects_degenerate_times(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_log_decay([(2, 0.0), (2, -0.5), (2, -1.0)])

    def test_growth_allowed(self):
        gamma = fit_log_decay([(t, t * math.log(2.0)) for t in range(1, 8)])
        assert gamma == pytest.approx(-math.log(2.0), abs=1e-12)
