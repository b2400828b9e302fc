import math

import numpy as np
import pytest

from oracles import enum_pair_tv
from qsd import converse, deflation
from qsd.converse import certify_converse, hypothesis_check
from qsd.deflation import Deflation
from qsd.kernels import tv_distance
from qsd.spectral import compute_spectral, fit_decay


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
        assert rep.details["envelope_ok"]

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
        assert (rep.t1, rep.T1) == (2, 2)
        assert rep.delta == max(v for _, v in rep.probed[2])
        assert rep.decay_curve == []
        assert rep.details["envelope_ok"]

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
        gamma = fit_decay(series).gamma
        assert gamma >= 0.9 * math.log(2.0) / rep.t1


class TestHypothesisCheck:
    def test_t3_first_curve_zero_second_closed_form(self, t3, t3_triple):
        rep = hypothesis_check(Deflation(t3, t3_triple), range(1, 11), range(5, 51, 5))
        assert all(v == 0.0 for _, v in rep.marginal_curve)
        for t, v in rep.coupling_curve:
            assert v == pytest.approx(7.0 ** (-t), rel=1e-9)
        assert rep.marginal_decays and rep.coupling_decays
        assert rep.coupling_rate == pytest.approx(math.log(7.0), rel=1e-6)

    def test_single_state_both_zero(self, single):
        S = compute_spectral(single)
        rep = hypothesis_check(Deflation(single, S), range(1, 6), range(2, 21, 2))
        assert all(v == 0.0 for _, v in rep.marginal_curve)
        assert all(v == 0.0 for _, v in rep.coupling_curve)

    def test_walks_the_rows_once(self, monkeypatch, w3, w3_triple):
        core = Deflation(w3, w3_triple)
        count = 0
        rows = deflation.Deflation.rows

        def counting_rows(self, t_max):
            nonlocal count
            for D in rows(self, t_max):
                count += 1
                yield D

        monkeypatch.setattr(deflation.Deflation, "rows", counting_rows)
        hypothesis_check(core, range(1, 9), range(12, 61, 4))
        assert count == 9  # D_0 .. D_8, for both curves

    def test_w3_rates_match_fitted_pair(self, w3, w3_triple):
        from qsd.qprocess import fitted_rates

        core = Deflation(w3, w3_triple)
        rep = hypothesis_check(core, range(1, 9), range(12, 61, 4))
        gamma, gamma_prime = fitted_rates(core)
        assert rep.marginal_decays and rep.coupling_decays
        assert rep.marginal_rate == pytest.approx(gamma, rel=0.05)
        assert rep.coupling_rate == pytest.approx(gamma_prime, rel=0.05)


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
            gamma = fit_decay(series).gamma
            assert gamma >= 0.9 * math.log(2.0) / rep.t1