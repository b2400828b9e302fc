import itertools
import math

import numpy as np
import pytest
from mpmath import mp

from oracles import enum_pair_tv, mp_h_rows, mp_matrix, mp_perron, mp_tv, tv_distance
from qsd import converse, models
from qsd.converse import certify_converse
from qsd.kernels import _max_pair_tv
from qsd.qprocess import build_q_kernel
from qsd.spectral import compute_spectral, fit_log_decay


def probes(rep):
    """(t1, T, pair TV) for every finite-horizon probe of a contraction search."""
    return [(t1, T, v) for t1, row in rep.probed.items() for T, v in row if T is not None]


class TestDobrushin:
    """The probes are the Dobrushin coefficients of the bridge at (t1, T)."""

    def test_one_state_zero(self, single):
        rep = certify_converse(single, T_max=50)
        assert all(v == 0.0 for row in rep.probed.values() for _, v in row)

    def test_t3_one_seventh_any_T(self, t3):
        rep = certify_converse(t3, T_max=100)
        assert [T for _, T, _ in probes(rep)] == [1, 2, 4, 8, 16, 32, 64]
        for _, v in rep.probed[1]:
            assert v == pytest.approx(1 / 7, abs=1e-13)

    def test_w3_matches_path_enumeration(self, w3):
        rep = certify_converse(w3, T_max=200)
        checked = [(t1, T) for t1, T, _ in probes(rep) if T <= 8]
        assert checked == [(1, 1), (1, 2), (1, 4), (1, 8), (2, 2), (2, 4), (2, 8)]
        for t1, T, v in probes(rep):
            if T <= 8:
                assert v == pytest.approx(enum_pair_tv(w3.entries, t1, T), abs=1e-11)

    def test_limit_is_the_q_process_pair_tv(self, monkeypatch, w3, random_kernels):
        # the T = infinity probe reads P_t1 * eta, never a power of Q
        kernels = [w3, models.random_substochastic(8, 3)] + random_kernels

        def refuse(*args):
            raise AssertionError("certify_converse took a matrix power")

        for K in kernels:
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "matrix_power", refuse)
                rep = certify_converse(K, T_max=64)
            S = compute_spectral(K)
            Q = build_q_kernel(K, S)
            for t1, row in rep.probed.items():
                T, limit = row[-1]
                assert T is None
                want = _max_pair_tv(np.linalg.matrix_power(Q, t1))
                # equal for an exact eigenvector eta; Q renormalizes every
                # step and P_t1 * eta once, so they part by eta's residual
                assert limit == pytest.approx(want, abs=1e-14 + S.residual), (K.n, t1)

    def test_limit_within_four_ulps_of_mpmath(self, w3):
        # the T = infinity probe reweights by the refined eta of the Deflation core
        kernels = [w3, models.random_substochastic(8, 3), models.random_substochastic(4, 21),
                   models.random_substochastic(5, 56), models.random_substochastic(10, 14)]
        for K in kernels:
            rep = certify_converse(K, T_max=64)
            with mp.workdps(50):
                M = mp_matrix(K.entries, 50)
                _, rho, eta = mp_perron(M)
                for t, rows in mp_h_rows(M, rho, eta, max(rep.probed)):
                    if t in rep.probed:
                        want = max(mp_tv(a, b) for a, b in itertools.combinations(rows, 2))
                        limit = rep.probed[t][-1][1]
                        assert abs(limit - want) <= 4 * math.ulp(float(want)), (K.n, t)

    def test_range(self, w3, random_kernels):
        for K in (w3, random_kernels[5]):
            rep = certify_converse(K, T_max=200)
            for row in rep.probed.values():
                assert all(0.0 <= v <= 1.0 for _, v in row)


class TestCertifyConverse:
    def test_single_state(self, single):
        rep = certify_converse(single, T_max=50)
        assert rep.certified
        assert rep.t1 == 1
        assert rep.delta == 0.0

    def test_t3(self, t3):
        rep = certify_converse(t3, T_max=100)
        assert rep.certified
        assert rep.t1 == 1
        assert rep.delta == pytest.approx(1 / 7, abs=1e-12)

    def test_w3_needs_lag_two(self, w3):
        # the one-step bridge coefficient climbs to ~0.585 > 1/2 as T grows
        rep = certify_converse(w3, T_max=200)
        assert rep.certified
        assert rep.t1 == 2
        assert rep.delta <= 0.5
        assert rep.envelope_ok

    def test_w3_decay_curve_respects_envelope(self, w3):
        rep = certify_converse(w3, T_max=200)
        for T, v in rep.decay_curve:
            assert v <= rep.envelope(T) * (1 + 1e-9)

    def test_not_certified_reports_frontier(self, w3):
        rep = certify_converse(w3, t1_max=1, T_max=50)
        assert not rep.certified
        assert 1 in rep.probed
        assert math.isnan(rep.delta)

    def test_horizon_below_lag_gives_empty_curve(self, w3):
        # t1 = 2 is certified, but the lattice T1 + k t1 has no point <= T_max = 1
        rep = certify_converse(w3, T_max=1)
        assert rep.certified
        assert rep.t1 == 2
        assert rep.delta == max(v for _, v in rep.probed[2])
        assert rep.decay_curve == []
        assert rep.envelope_ok

    @pytest.mark.parametrize("kernel", ["w3", "t3"])
    def test_one_forward_and_one_survival_walk(self, request, monkeypatch, kernel):
        K = request.getfixturevalue(kernel)
        calls = {"_forward": 0, "_backward": 0}

        def counting(name):
            walk = getattr(converse, name)

            def counted(*args):
                calls[name] += 1
                return walk(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(converse, name, counting(name))
        rep = certify_converse(K, T_max=200)
        assert rep.certified and len(probes(rep)) >= 8
        assert calls == {"_forward": 1, "_backward": 1}

    def test_random_kernels_certify(self, random_kernels):
        for K in random_kernels[:8]:
            rep = certify_converse(K, T_max=64)
            assert rep.certified, f"n={K.n} failed"
            assert rep.delta <= 0.5

    def test_certified_rate_implies_gamma_floor(self, w3, w3_triple):
        # fitted conditioned-TV rate must clear ln2 / t1 (up to fit slack)
        rep = certify_converse(w3, T_max=200)
        series = []
        rows = np.eye(3)
        for t in range(1, 26):
            rows = rows @ w3.entries
            rows /= rows.sum(axis=1, keepdims=True)
            series.append(
                (t, max(tv_distance(rows[i], w3_triple.alpha) for i in range(3)))
            )
        gamma = fit_log_decay([(t, math.log(v)) for t, v in series])
        assert gamma >= 0.9 * math.log(2.0) / rep.t1


class TestEndToEnd:
    def test_certified_random_kernels_rate_floor(self, random_kernels):
        # whenever certification succeeds, the conditioned-TV decay rate
        # clears the rate the contraction argument yields
        for K in random_kernels[:6]:
            rep = certify_converse(K, T_max=64)
            assert rep.certified
            S = compute_spectral(K)
            rows = np.eye(K.n)
            series = []
            for t in range(1, 21):
                rows = rows @ K.entries
                rows /= rows.sum(axis=1, keepdims=True)
                worst = max(tv_distance(rows[i], S.alpha) for i in range(K.n))
                if worst > 1e-13:
                    series.append((t, worst))
            gamma = fit_log_decay([(t, math.log(v)) for t, v in series])
            assert gamma >= 0.9 * math.log(2.0) / rep.t1