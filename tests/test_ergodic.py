import math
import tracemalloc

import numpy as np
import pytest

from mpmath import mp, mpf

from oracles import (
    enum_functional,
    envelope_argmin,
    mp_bridge_row,
    mp_conditioned_rows,
    mp_matrix,
    mp_perron,
    mp_survival_vectors,
    mp_time_average_errors,
    power_bridge,
)
from qsd import models
from qsd.deflation import Deflation
from qsd.ergodic import (
    SamplingPlan,
    conditional_functional,
    optimal_t0,
    verify_ergodic_theorem,
)
from qsd.spectral import compute_spectral


class TestSamplingPlan:
    def test_uniform_atoms(self):
        plan = SamplingPlan.uniform(4)
        assert plan.atoms == ((0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25))

    def test_dirac(self):
        plan = SamplingPlan.dirac(3, 10)
        assert plan.atoms == ((3, 1.0),)

    def test_rejects_atom_outside_horizon(self):
        with pytest.raises(ValueError, match="outside"):
            SamplingPlan(4, ((5, 1.0),))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="sum"):
            SamplingPlan(2, ((0, 0.4), (1, 0.4)))

    def test_bad_numpy_weights_print_plain_numbers(self):
        with pytest.raises(ValueError) as exc:
            SamplingPlan(2, ((0, np.float64(0.5)), (1, np.float64(0.25))))
        assert str(exc.value) == "atom weights sum to 0.75, not 1"


class TestConditionalFunctional:
    def test_constant_f_any_plan(self, w3):
        core = Deflation(w3, compute_spectral(w3))
        for plan in (SamplingPlan.uniform(9), SamplingPlan.dirac(4, 12),
                     SamplingPlan(7, ((0, 0.3), (7, 0.7)))):
            got = conditional_functional(core, 1, [2.5, 2.5, 2.5], plan)
            assert got == pytest.approx(2.5, abs=1e-12)

    def test_t3_dirac_closed_form(self, t3):
        core = Deflation(t3, compute_spectral(t3))
        for T in (1, 5, 20):
            got = conditional_functional(core, 0, [1.0, 0.0], SamplingPlan.dirac(1, T))
            assert got == pytest.approx(4 / 7, abs=1e-13)

    def test_w3_uniform_matches_path_enumeration(self, w3):
        plan = SamplingPlan.uniform(10)
        got = conditional_functional(Deflation(w3, compute_spectral(w3)), 0, [0.0, 0.0, 1.0],
                                     plan)
        want = enum_functional(w3.entries, 0, [0.0, 0.0, 1.0], plan.atoms, 10)
        assert got == pytest.approx(want, abs=1e-12)

    def test_t3_dirac_error_closed_form(self, t3, t3_triple):
        # error at dirac(t) is exactly (1/7)^t * |f alpha-gap|
        f = [1.0, -1.0]
        T = 30
        beta_f = float(t3_triple.beta @ f)
        for t in (1, 3, 6, 10):
            err = abs(
                conditional_functional(Deflation(t3, compute_spectral(t3)), 0, f,
                                       SamplingPlan.dirac(t, T)) - beta_f
            )
            assert err == pytest.approx(7.0 ** (-t), rel=1e-6)

    def test_dirac_matches_bridge_marginal(self, w3):
        f = np.array([0.3, -1.2, 2.0])
        core = Deflation(w3, compute_spectral(w3))
        for t, T in [(0, 5), (3, 9), (7, 7)]:
            got = conditional_functional(core, 2, f, SamplingPlan.dirac(t, T))
            want = float(power_bridge(w3.entries, t, T)[2] @ f)
            assert got == pytest.approx(want, abs=1e-12)


def mp_functional(rows_at, surv, f, plan) -> float:
    """Plan-weighted bridge expectation of f from mpmath rows and survival vectors."""
    total = mpf(0)
    for t, w in plan.atoms:
        law = mp_bridge_row(rows_at[t], surv[plan.T - t])
        total += mpf(w) * sum(p * mpf(float(v)) for p, v in zip(law, f))
    return float(total)


class TestAllStatesAgainstOracle:
    """Every start state and plan kind against the mpmath propagators."""

    PLANS = [SamplingPlan.uniform(40), SamplingPlan.uniform(7), SamplingPlan.dirac(0, 12),
             SamplingPlan.dirac(9, 40), SamplingPlan.dirac(25, 25),
             SamplingPlan(36, ((0, 0.2), (3, 0.5), (30, 0.3)))]

    @pytest.mark.parametrize("K", [models.random_substochastic(8, 3), models.ou_discretized(8)],
                             ids=["random_substochastic", "ou_discretized"])
    def test_conditional_functional_every_state(self, K):
        f = np.array([1.0, -0.5, 0.25, 2.0, 0.0, -1.5, 0.75, 0.5])
        core = Deflation(K, compute_spectral(K))
        with mp.workdps(30):
            M = mp_matrix(K.entries)
            rows_at = {t: [list(r) for r in rows] for t, rows in mp_conditioned_rows(M, 40)}
            surv = mp_survival_vectors(M, 40)
            for plan in self.PLANS:
                for x in range(K.n):
                    want = mp_functional([rows_at[t][x] for t in range(41)], surv, f, plan)
                    got = conditional_functional(core, x, f, plan)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_multi_horizon_pass_does_not_couple_horizons(self):
        K = models.random_substochastic(8, 3)
        S = compute_spectral(K, tol=1e-13)
        f = np.array([(x % 3) / 2 for x in range(K.n)])
        grid = list(range(5, 61, 5))
        together = verify_ergodic_theorem(Deflation(K, S), f, grid)
        for (_, T, obs, _, _) in together.rows:
            alone = verify_ergodic_theorem(Deflation(K, S), f, [T]).rows[0][2]
            assert obs == pytest.approx(alone, rel=1e-14, abs=0.0)


class TestStreamedPlanErrors:
    def test_plans_evaluated_together_equal_each_alone(self):
        K = models.random_substochastic(8, 3)
        core = Deflation(K, compute_spectral(K))
        f = np.sin(np.arange(K.n) + 1.0)
        plans = [SamplingPlan.uniform(40), SamplingPlan.dirac(5, 30), SamplingPlan.dirac(0, 7),
                 SamplingPlan(25, ((20, 0.5), (3, 0.5))),
                 SamplingPlan.uniform(10), SamplingPlan.uniform(25), SamplingPlan.uniform(33)]
        together = core.plan_errors(f, plans)
        assert together == [core.plan_errors(f, [p])[0] for p in plans]

    @pytest.mark.parametrize("n", [37, 200])
    def test_together_equal_each_alone_on_wide_kernels(self, n):
        # from about n = 20 on, one BLAS product over the stacked plans would
        # round a plan's entries differently with the number of plans
        K = models.random_substochastic(n, 3)
        core = Deflation(K, compute_spectral(K))
        f = np.sin(np.arange(K.n) + 1.0)
        plans = [SamplingPlan.uniform(40), SamplingPlan.dirac(5, 30), SamplingPlan.dirac(0, 7),
                 SamplingPlan(25, ((20, 0.5), (3, 0.5))), SamplingPlan.uniform(33)]
        together = core.plan_errors(f, plans)
        assert together == [core.plan_errors(f, [p])[0] for p in plans]

    def test_never_walks_the_rows(self, monkeypatch):
        K = models.random_substochastic(8, 3)
        core = Deflation(K, compute_spectral(K))
        walked = []
        monkeypatch.setattr(Deflation, "rows", lambda self, t_max: walked.append(t_max) or iter(()))
        f = np.sin(np.arange(K.n) + 1.0)
        core.plan_deviations(f, [SamplingPlan.uniform(40), SamplingPlan.dirac(5, 30)])
        verify_ergodic_theorem(core, f, range(10, 61, 10))
        conditional_functional(core, 2, f, SamplingPlan.uniform(20))
        assert walked == []

    @pytest.mark.parametrize("t, T", [(400, 400), (1000, 1300), (3000, 3000)])
    def test_t3_deep_dirac_keeps_its_digits(self, t3, t, T):
        # from either state the error of dirac(t, T) with f = (1, -1) is 7^-t
        # exactly, far below the range of a double from t = 365 on
        core = Deflation(t3, compute_spectral(t3))
        (obs, log_err), = core.plan_errors(np.array([1.0, -1.0]), [SamplingPlan.dirac(t, T)])
        assert log_err == pytest.approx(-t * math.log(7.0), rel=1e-13)
        assert obs == 0.0  # the value underflows, its log does not

    def test_w3_deep_plans_match_extended_precision(self, w3):
        # an atom at t with lag T - t contributes about 0.46^t + 0.46^(T-t):
        # these deviations lie near 1e-200, 1e-330 and 1e-340
        f = np.array([0.3, -1.2, 2.0])
        plans = [SamplingPlan.dirac(600, 1600), SamplingPlan.dirac(1000, 2000),
                 SamplingPlan(2030, ((1000, 0.5), (1010, 0.5)))]
        core = Deflation(w3, compute_spectral(w3))
        got = [v for _, v in core.plan_errors(f, plans)]
        assert got[1] < math.log(1e-308)
        with mp.workdps(420):
            M = mp_matrix(w3.entries, 420)
            alpha, _, eta = mp_perron(M)
            beta_f = sum(a * h * mpf(float(v)) for a, h, v in zip(alpha, eta, f))
            surv = mp_survival_vectors(M, 1030)
            times = {t for plan in plans for t, _ in plan.atoms}
            rows_at = {t: [list(r) for r in rows] for t, rows in mp_conditioned_rows(M, 1010)
                       if t in times}
            for plan, log_err in zip(plans, got):
                want = max(abs(sum(mpf(w) * sum(p * mpf(float(v)) for p, v in zip(
                    mp_bridge_row(rows_at[t][x], surv[plan.T - t]), f)) for t, w in plan.atoms)
                    - beta_f) for x in range(3))
                assert math.expm1(log_err - float(mp.log(want))) == pytest.approx(0.0, abs=1e-10)

    def test_plan_errors_memory_flat_in_horizon(self):
        # rows D_t are n x n: listing all 151 of them took 47 MiB here
        K = models.random_substochastic(200, 3)
        S = compute_spectral(K)
        f = (np.arange(K.n) % 3) / 2.0
        tracemalloc.start()
        try:
            errors = Deflation(K, S).plan_errors(f, [SamplingPlan.uniform(100),
                                                     SamplingPlan.uniform(150)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert len(errors) == 2


class TestErgodicTheorem:
    def test_constant_f_zero(self, w3, w3_triple):
        rep = verify_ergodic_theorem(Deflation(w3, w3_triple), [3.0, 3.0, 3.0], range(10, 60, 5))
        assert rep.constant == pytest.approx(0.0, abs=1e-11)

    def test_single_state_zero(self, single):
        S = compute_spectral(single)
        rep = verify_ergodic_theorem(Deflation(single, S), [1.0], range(5, 40, 5))
        assert rep.constant == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["w3", "rs8", "ou8"])
    def test_errors_match_extended_precision(self, name):
        K = {"w3": models.w3, "rs8": lambda: models.random_substochastic(8, 3),
             "ou8": lambda: models.ou_discretized(8)}[name]()
        f = np.array([(x % 3) / 2 for x in range(K.n)])
        rep = verify_ergodic_theorem(Deflation(K, compute_spectral(K)), f, range(10, 201, 10))
        want = mp_time_average_errors(K.entries, f, range(10, 201, 10))
        for (_, T, obs, _, _) in rep.rows:
            assert obs == pytest.approx(want[T], rel=1e-12, abs=0.0)

    def test_w3_indicator_scaled_error_bounded(self, w3, w3_triple):
        f = [1.0, 0.0, 0.0]
        rep = verify_ergodic_theorem(Deflation(w3, w3_triple), f, range(10, 201, 5))
        assert rep.max_violation <= 1.0 + 1e-9
        # T * error settles to a plateau: the fitted a4 is attained late,
        # and T * error does not grow on the validation half (T > 105)
        scaled = [T * obs for (_, T, obs, _, _) in rep.rows]
        late = [v for (_, T, _, _, _), v in zip(rep.rows, scaled) if T > 105]
        assert all(b <= a + 1e-9 for a, b in zip(late, late[1:]))
        assert scaled[-1] == pytest.approx(rep.constant, rel=1e-3)


class TestOptimalT0:
    def test_symmetric_rates_half(self):
        assert optimal_t0(0.8, 0.8, 10) == 5
        assert optimal_t0(1.3, 1.3, 40) == 20

    def test_asymmetric_rates(self):
        assert optimal_t0(2.0, 1.0, 3) == 2

    def test_bounds(self):
        assert 0 <= optimal_t0(0.1, 5.0, 7) <= 7

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            optimal_t0(0.0, 1.0, 5)

    def test_w3_grid_minimizer_within_one_step(self, w3, w3_triple):
        from qsd.qprocess import fitted_rates

        gamma, gamma_prime = fitted_rates(Deflation(w3, w3_triple))
        T_min = 10.0 / min(gamma, gamma_prime)
        for T in (int(math.ceil(T_min)), 20, 40, 80, 160):
            grid = envelope_argmin(gamma, gamma_prime, T)
            formula = optimal_t0(gamma, gamma_prime, T)
            assert abs(grid - formula) <= 1
