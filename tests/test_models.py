import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import eig_triple, power_c1
from qsd.kernels import read_kernel
from qsd.models import (
    ModelSpec,
    birth_death,
    build,
    golden_kernel_path,
    linear_bd_truncated,
    logistic_bd,
    ou_discretized,
    random_substochastic,
    t3,
    w3,
)
from qsd.spectral import compute_spectral


def best_c1(K, t0_max: int) -> float:
    """Best one-shot minorization mass over t0 = 1..t0_max."""
    return max(power_c1(K.entries, t0) for t0 in range(1, t0_max + 1))


class TestPinnedKernels:
    def test_w3_matches_golden_file(self, w3):
        np.testing.assert_array_equal(
            w3.entries, [[0.3, 0.4, 0.0], [0.3, 0.3, 0.3], [0.0, 0.4, 0.5]]
        )

    def test_golden_file_loads(self):
        K = read_kernel(golden_kernel_path())
        np.testing.assert_array_equal(K.entries, w3().entries)

    def test_t3(self):
        np.testing.assert_array_equal(t3().entries, [[0.4, 0.3], [0.3, 0.4]])


class TestBirthDeath:
    def test_single_state(self):
        K = birth_death(1, death=0.5)
        np.testing.assert_array_equal(K.entries, [[0.5]])

    def test_tridiagonal_bottom_absorption_only(self):
        K = birth_death(5, birth=0.3, death=0.2)
        m = K.entries
        assert np.all(np.triu(m, 2) == 0) and np.all(np.tril(m, -2) == 0)
        # only the lowest state leaks mass
        np.testing.assert_allclose(m.sum(axis=1)[1:], 1.0, atol=1e-14)
        assert m.sum(axis=1)[0] == pytest.approx(0.8, abs=1e-14)

    def test_rejects_overfull_rates(self):
        with pytest.raises(ValueError, match="exceed 1"):
            birth_death(3, birth=0.6, death=0.5)


class TestLogisticBd:
    def test_declining_births(self):
        K = logistic_bd(5, birth0=0.5, birth_step=0.1, death=0.3)
        ups = np.diag(K.entries, 1)
        np.testing.assert_allclose(ups, [0.5, 0.4, 0.3, 0.2], atol=1e-14)

    def test_rejects_vanished_births_below_top(self):
        with pytest.raises(ValueError, match="unreachable"):
            logistic_bd(8, birth0=0.4, birth_step=0.15, death=0.3)

    def test_bottom_absorption_only(self):
        K = logistic_bd(4, birth0=0.4, birth_step=0.1, death=0.3)
        np.testing.assert_allclose(K.entries.sum(axis=1)[1:], 1.0, atol=1e-14)

    def test_c1_stabilizes_in_n(self):
        # compact-return behavior: death pressure grows with density, so
        # the one-shot mass does not drain as the state space grows
        vals = []
        for n in (6, 12, 24):
            K = logistic_bd(n, birth0=0.3, birth_step=0.0, death=0.2,
                            death_step=0.02)
            vals.append(best_c1(K, 2 * n))
        assert vals[2] > 0.5 * vals[0] > 0


class TestRandomSubstochastic:
    def test_row_sums_in_band(self):
        K = random_substochastic(5, seed=7, min_absorb=0.05)
        rs = K.entries.sum(axis=1)
        assert np.all(rs >= 0.5 - 1e-12) and np.all(rs <= 0.95 + 1e-12)

    def test_strictly_positive_hence_primitive(self):
        K = random_substochastic(6, seed=3)
        assert np.all(K.entries > 0)

    def test_bit_reproducible(self):
        a = random_substochastic(7, seed=11)
        b = random_substochastic(7, seed=11)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_seed_matters(self):
        a = random_substochastic(7, seed=11)
        b = random_substochastic(7, seed=12)
        assert not np.array_equal(a.entries, b.entries)

    def test_rejects_bad_band(self):
        with pytest.raises(ValueError):
            random_substochastic(4, seed=1, min_absorb=0.7, min_row_sum=0.5)

    @pytest.mark.parametrize("n, seed, digest", [
        (1, 5, "0e1b46e29ba61d8b089a05f280ed33d8bf61089085b4bf3e2fd120551e1df05c"),
        (8, 3, "d9fd8bf0b4711bbc2b265b1aecb6589a199d58ffba2089a9103849c253d93d8a"),
        (37, 2, "15a5ed8dbe5e003abdf0689576694cf05268d84e54cd8345cb67b1a509b34de9"),
        (64, 5, "b9cf812118c7b09987110b7a2298ed81f37538f51246674977d70e5988f96599"),
        (500, 7, "85227babd22444d6053d0c11441cf1a0b78115b2c6108904ca8989e11f1a7345"),
        (1000, 7, "e47324370c3aaeb92fdef643007a643239ef866691f43005ae908c5972b5d1c6"),
    ])
    def test_entry_bits_pinned(self, n, seed, digest):
        # recorded from the out-of-place build, before it scaled and
        # normalized one array in place
        entries = random_substochastic(n, seed).entries
        assert hashlib.sha256(entries.tobytes()).hexdigest() == digest

    def test_build_holds_the_matrix_about_twice(self):
        # the field, scaled and normalized in place, and the constructor's
        # copy; at n = 500 an out-of-place build peaked at 4 matrices
        n = 500
        tracemalloc.start()
        try:
            random_substochastic(n, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * n * n


class TestContinuousKinds:
    def test_linear_bd_valid_and_killed(self):
        K = linear_bd_truncated(10)
        assert K.time_unit > 0
        assert np.all(K.entries.sum(axis=1) <= 1 + 1e-12)

    def test_linear_bd_c1_degrades_with_truncation(self):
        # compare the best one-shot mass over t0 <= 2n: tridiagonal chains
        # need t0 of the order of the diameter before c1 is positive at all
        vals = []
        for n in (10, 20, 40):
            K = linear_bd_truncated(n)
            vals.append(best_c1(K, 2 * n))
        assert vals[0] > vals[1] > vals[2] > 0

    def test_ou_valid(self):
        K = ou_discretized(15)
        assert np.all(K.entries >= 0)
        assert np.all(K.entries.sum(axis=1) <= 1 + 1e-12)

    def test_ou_c1_degrades_with_refinement(self):
        vals = []
        for n in (9, 19, 39):
            K = ou_discretized(n)
            vals.append(best_c1(K, 2 * n))
        assert vals[0] > vals[1] > vals[2] > 0

    @pytest.mark.parametrize("build", [
        lambda: linear_bd_truncated(3, death=float("inf")),
        lambda: linear_bd_truncated(3, birth=float("nan")),
        lambda: ou_discretized(3, sigma=float("inf")),
    ])
    def test_non_finite_rates_refused_without_warning(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="generator has non-finite entries"):
                build()

    def test_uniformized_decay_rate_matches_generator_eigenvalue(self):
        # theta (1 - rho) equals the slowest decay rate of the generator
        import numpy.linalg as npl

        n, b, d = 8, 0.5, 0.55
        K = linear_bd_truncated(n, b, d)
        S = compute_spectral(K, tol=1e-13)
        G = np.zeros((n, n))
        for i in range(n):
            k = i + 1
            up = b * k if i < n - 1 else 0.0
            down = d * k
            if i + 1 < n:
                G[i, i + 1] = up
            if i >= 1:
                G[i, i - 1] = down
            G[i, i] = -(up + down)
        want = -max(np.real(npl.eigvals(G)))
        assert (1.0 - S.rho) / K.time_unit == pytest.approx(want, rel=1e-9)


class TestBuildDispatch:
    def test_w3_kind(self):
        K = build(ModelSpec(kind="w3", n=3))
        np.testing.assert_array_equal(K.entries, w3().entries)

    def test_random_kind_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            build(ModelSpec(kind="random_substochastic", n=4))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            build(ModelSpec(kind="nope", n=3))

    def test_bad_params_rejected_with_kind(self):
        with pytest.raises(ValueError, match="logistic_bd"):
            build(ModelSpec(kind="logistic_bd", n=3, params={"wrong_name": 1.0}))

    def test_every_kind_constructs_valid_kernel(self):
        specs = [
            ModelSpec("birth_death", 4, params={"birth": 0.3, "death": 0.2}),
            ModelSpec("logistic_bd", 4),
            ModelSpec("random_substochastic", 5, seed=2),
            ModelSpec("linear_bd_truncated", 6),
            ModelSpec("ou_discretized", 7),
            ModelSpec("w3", 3),
            ModelSpec("t3", 2),
        ]
        for spec in specs:
            K = build(spec)
            S = compute_spectral(K)
            assert 0 < S.rho < 1


class TestAllKernelsSpectrallySane:
    def test_random_corpus_against_oracle(self, random_kernels):
        for K in random_kernels:
            S = compute_spectral(K, tol=1e-13)
            _, rho, _, _ = eig_triple(K.entries, dps=30)
            assert S.rho == pytest.approx(rho, abs=1e-10)
