import dataclasses
import math

import numpy as np
import pytest

from oracles import enum_path_tv, power_bridge, second_eigenvalue_magnitude, tv_distance
from qsd import models
from qsd.deflation import Deflation
from qsd.kernels import SubStochasticKernel
from qsd.qprocess import (
    build_q_kernel,
    fitted_rates,
    q_mixing_report,
    verify_eta_bound,
    verify_qproc_approx,
)
from qsd.spectral import SpectralTriple, compute_spectral, conditioned_tv_rate, fit_log_decay


class TestBuildQKernel:
    def test_single_state(self, single):
        Q = build_q_kernel(single, compute_spectral(single))
        np.testing.assert_allclose(Q, [[1.0]])

    def test_t3_rows(self, t3, t3_triple):
        Q = build_q_kernel(t3, t3_triple)
        np.testing.assert_allclose(
            Q, [[4 / 7, 3 / 7], [3 / 7, 4 / 7]], atol=1e-12
        )

    def test_rows_stochastic(self, w3, w3_triple):
        Q = build_q_kernel(w3, w3_triple)
        assert isinstance(Q, np.ndarray) and not Q.flags.writeable
        np.testing.assert_allclose(Q.sum(axis=1), [1.0, 1.0, 1.0], atol=1e-12)

    def test_transform_formula(self, w3, w3_triple):
        Q = build_q_kernel(w3, w3_triple)
        S = w3_triple
        want = w3.entries * S.eta[None, :] / (S.rho * S.eta[:, None])
        np.testing.assert_allclose(Q, want, atol=1e-12)

    def test_beta_invariant(self, w3, w3_triple):
        Q = build_q_kernel(w3, w3_triple)
        np.testing.assert_allclose(w3_triple.beta @ Q, w3_triple.beta, atol=1e-10)

    def test_conjugation_identity(self, w3, w3_triple):
        # Q^t(x,y) = rho^-t K^t(x,y) eta(y)/eta(x) for t <= 8
        Q = build_q_kernel(w3, w3_triple)
        S = w3_triple
        for t in range(1, 9):
            lhs = np.linalg.matrix_power(Q, t)
            Kt = np.linalg.matrix_power(w3.entries, t)
            rhs = S.rho ** (-t) * Kt * S.eta[None, :] / S.eta[:, None]
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_t_step_marginals_match_conjugation(self, w3, w3_triple):
        Q = build_q_kernel(w3, w3_triple)
        S = w3_triple
        for t in range(1, 7):
            Kt = np.linalg.matrix_power(w3.entries, t)
            for x in range(3):
                want = S.rho ** (-t) * Kt[x] * S.eta / S.eta[x]
                got = np.linalg.matrix_power(Q, t)[x]
                np.testing.assert_allclose(got, want, atol=1e-10)

    def test_rejects_tiny_eta(self, w3, w3_triple):
        bad = SpectralTriple(
            alpha=w3_triple.alpha,
            rho=w3_triple.rho,
            eta=np.array([1e-15, 1.0, 1.0]),
            beta=w3_triple.beta,
            residual=w3_triple.residual,
        )
        with pytest.raises(ValueError, match="ill-conditioned"):
            build_q_kernel(w3, bad)

    def test_rejects_eta_off_the_kernel(self, w3, w3_triple):
        bad = dataclasses.replace(w3_triple, eta=w3_triple.eta * [1.0, 1.0, 1.0 + 1e-6])
        with pytest.raises(ValueError) as exc:
            build_q_kernel(w3, bad)
        assert str(exc.value) == ("h-transform rows are far from stochastic; "
                                  "triple does not match kernel")

    def test_rejects_beta_not_invariant(self, w3, w3_triple):
        bad = dataclasses.replace(w3_triple, beta=w3_triple.beta * [1.0 + 1e-6, 1.0, 1.0])
        with pytest.raises(ValueError) as exc:
            build_q_kernel(w3, bad)
        assert str(exc.value) == "beta is not invariant under the transform (defect 1.080e-07)"


class TestEtaBound:
    def test_single_state_zero(self, single):
        rep = verify_eta_bound(Deflation(single, compute_spectral(single)), range(1, 60))
        assert rep.constant == 0.0
        assert rep.max_violation == 0.0

    def test_t3_exactly_zero(self, t3, t3_triple):
        rep = verify_eta_bound(Deflation(t3, t3_triple), range(1, 201))
        assert rep.constant == 0.0
        assert rep.max_violation == 0.0
        assert all(row[2] == 0.0 for row in rep.rows)

    def test_t3_window_too_short_to_fit(self, t3, t3_triple):
        # the defect is exactly 0, but the fit half t = 1, 2 holds only two
        # nonzero conditioned TVs, too few to fit the rate from
        with pytest.raises(ValueError, match="3 points"):
            verify_eta_bound(Deflation(t3, t3_triple), range(1, 5))

    def test_one_step_mixing_is_exactly_zero(self):
        K = SubStochasticKernel(np.full((2, 2), 0.25))
        S = compute_spectral(K)
        rep = verify_eta_bound(Deflation(K, S), range(1, 40))
        assert rep.constant == 0.0 and rep.rate == math.inf
        assert rep.max_violation == 0.0
        rep = verify_qproc_approx(Deflation(K, S),
                                  [(t, t + lag) for t in range(1, 4) for lag in range(8)])
        assert rep.constant == 0.0 and rep.rate == math.inf
        assert fitted_rates(Deflation(K, S)) == (math.inf, math.inf)

    def test_w3_bound_validates(self, w3, w3_triple):
        rep = verify_eta_bound(Deflation(w3, w3_triple), range(1, 201))
        assert 0 < rep.constant < math.inf
        assert rep.max_violation <= 1.0 + 1e-9
        assert rep.valid  # the two-sided eta sandwich is this envelope rearranged
        # rate comes from the conditioned-TV fit and matches the spectral gap
        lam2 = second_eigenvalue_magnitude(w3.entries)
        assert rep.rate == pytest.approx(-math.log(lam2 / w3_triple.rho), rel=1e-6)

    def test_rejects_bad_grid(self, w3, w3_triple):
        with pytest.raises(ValueError):
            verify_eta_bound(Deflation(w3, w3_triple), [0, 1, 2])
        with pytest.raises(ValueError):
            verify_eta_bound(Deflation(w3, w3_triple), [])


class TestQprocApprox:
    def test_t3_zero(self, t3, t3_triple):
        core = Deflation(t3, t3_triple)
        pairs = [(t, t + dt) for t in range(1, 6) for dt in range(1, 11)]
        rep = verify_qproc_approx(core, pairs)
        assert rep.constant == 0.0
        assert rep.max_violation == 0.0

    def test_single_state_zero(self, single):
        S = compute_spectral(single)
        core = Deflation(single, S)
        rep = verify_qproc_approx(core, [(1, 3), (2, 5), (1, 9)])
        assert rep.constant == 0.0

    def test_w3_validates_and_rate_matches(self, w3, w3_triple):
        core = Deflation(w3, w3_triple)
        pairs = [(t, t + dt) for t in range(1, 11) for dt in range(1, 51)]
        rep = verify_qproc_approx(core, pairs)
        assert rep.max_violation <= 1.0 + 1e-9
        # the sup gap by lag decays at the envelope's rate
        sup_by_lag = {}
        for t, T, obs, _, _ in rep.rows:
            sup_by_lag[T - t] = max(sup_by_lag.get(T - t, 0.0), obs)
        fitted = fit_log_decay([(lag, math.log(v)) for lag, v in sup_by_lag.items()])
        assert fitted == pytest.approx(rep.rate, rel=0.05)

    def test_observed_matches_bridge_tv(self, w3, w3_triple):
        # cross-check one report row against direct matrix powers
        Q = build_q_kernel(w3, w3_triple)
        rep = verify_qproc_approx(Deflation(w3, w3_triple), [(2, 7)])
        (t, T, obs, _, _) = rep.rows[0]
        bridge = power_bridge(w3.entries, t, T)
        want = max(tv_distance(np.linalg.matrix_power(Q, t)[x], bridge[x]) for x in range(3))
        assert obs == pytest.approx(want, rel=1e-9)

    def test_rejects_bad_pairs(self, w3, w3_triple):
        core = Deflation(w3, w3_triple)
        with pytest.raises(ValueError):
            verify_qproc_approx(core, [(5, 3)])

    @pytest.mark.parametrize("name", ["w3", "t3", "random"])
    def test_path_law_tv_equals_bridge_gap(self, name, random_kernels):
        # the path-law density is a function of X_t alone, so the TV of the
        # whole-path laws, summed over every path, is the marginal bridge gap
        kernels = {"w3": [models.w3()], "t3": [models.t3()],
                   "random": [K for K in random_kernels if K.n <= 4]}[name]
        for K in kernels:
            core = Deflation(K, compute_spectral(K))
            pairs = [(t, t + lag) for t in range(1, 7) for lag in (1, 2, 5, 20)]
            for (t, T), got in core.bridge_gaps(pairs).items():
                want = enum_path_tv(K.entries, t, T)
                if want < 1e-40:  # t3: the laws coincide
                    assert got == -math.inf, (K.n, t, T)
                else:
                    assert math.exp(got) == pytest.approx(want, rel=1e-13, abs=0.0), (K.n, t, T)


class TestQMixing:
    def test_t3_rate_is_log7(self, t3, t3_triple):
        core = Deflation(t3, t3_triple)
        rep = q_mixing_report(core, range(1, 61))
        assert rep.rate == pytest.approx(math.log(7.0), rel=0.01)
        assert rep.max_violation <= 1.0 + 1e-9

    def test_single_state_sentinel(self, single):
        core = Deflation(single, compute_spectral(single))
        rep = q_mixing_report(core, range(1, 20))
        assert rep.constant == 0.0
        assert rep.rate == math.inf

    def test_w3_rate_matches_eigen_oracle(self, w3, w3_triple):
        core = Deflation(w3, w3_triple)
        rep = q_mixing_report(core, range(1, 61))
        lam2 = second_eigenvalue_magnitude(w3.entries)
        assert rep.rate == pytest.approx(-math.log(lam2 / w3_triple.rho), rel=0.02)

    def test_w3_envelope_validates(self, w3, w3_triple):
        core = Deflation(w3, w3_triple)
        rep = q_mixing_report(core, range(1, 61))
        assert rep.max_violation <= 1.0 + 1e-9
        for t, _, obs, bound, _ in rep.rows:
            if t > 30:  # validation half
                assert obs <= bound * (1 + 1e-9)


class TestFittedRates:
    def test_w3_rates_agree(self, w3, w3_triple):
        gamma, gamma_prime = fitted_rates(Deflation(w3, w3_triple))
        # conjugation preserves the spectrum: both rates equal the gap rate
        assert gamma == pytest.approx(gamma_prime, rel=1e-6)

    @pytest.mark.parametrize("name", ["w3", "rs8", "ou8"])
    def test_one_walk_equals_the_two_reports(self, name):
        K = {"w3": models.w3, "rs8": lambda: models.random_substochastic(8, 3),
             "ou8": lambda: models.ou_discretized(8)}[name]()
        S = compute_spectral(K)
        want = (conditioned_tv_rate(Deflation(K, S), t_max=60),
                q_mixing_report(Deflation(K, S), range(1, 61)).rate)
        assert fitted_rates(Deflation(K, S)) == want
