import argparse
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enum_pair_tv, power_bridge, power_marginal, tv_distance, wielandt_primitive
from qsd import models
from qsd.converse import certify_converse
from qsd.kernels import (
    Generator,
    SubStochasticKernel,
    as_distribution,
    conditioned_evolve,
    read_kernel,
    uniformize,
    write_kernel,
)
from qsd.kernels import _max_pair_tv, _primitivity_defect


class TestConstruction:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            SubStochasticKernel([[0.5, -0.1], [0.2, 0.3]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            SubStochasticKernel([[np.nan, 0.1], [0.2, 0.3]])

    def test_rejects_row_sum_above_one(self):
        with pytest.raises(ValueError, match="sums to"):
            SubStochasticKernel([[0.8, 0.3], [0.2, 0.3]])

    def test_rejects_no_absorption(self):
        with pytest.raises(ValueError, match="no absorption"):
            SubStochasticKernel([[0.5, 0.5], [0.5, 0.5]])

    def test_rejects_reducible_with_diagnostic(self):
        with pytest.raises(ValueError, match="reducible or periodic"):
            SubStochasticKernel([[0.5, 0.0], [0.2, 0.3]])

    def test_rejects_periodic(self):
        # strict two-cycle: irreducible but period 2
        with pytest.raises(ValueError, match="reducible or periodic"):
            SubStochasticKernel([[0.0, 0.9], [0.9, 0.0]])

    def test_diagnostic_names_pairs_or_period(self):
        with pytest.raises(ValueError, match=r"unreachable pairs: 0->1$"):
            SubStochasticKernel([[0.5, 0.0], [0.2, 0.3]])
        with pytest.raises(ValueError, match=r"unreachable pairs: 1->0$"):
            SubStochasticKernel([[0.5, 0.2], [0.0, 0.3]])
        with pytest.raises(ValueError, match=r"period 3$"):
            SubStochasticKernel([[0.0, 0.9, 0.0], [0.0, 0.0, 0.9], [0.9, 0.0, 0.0]])

    def test_rejects_single_state_without_self_loop(self):
        with pytest.raises(ValueError, match=r"reducible or periodic.*0->0"):
            SubStochasticKernel([[0.0]])

    def test_rejects_bad_time_unit(self):
        with pytest.raises(ValueError, match="time_unit"):
            SubStochasticKernel([[0.5]], time_unit=0.0)

    def test_entries_read_only(self, w3):
        with pytest.raises(ValueError):
            w3.entries[0, 0] = 0.9

    def test_absorption_probabilities(self, w3):
        np.testing.assert_allclose(
            w3.absorption_probabilities, [0.3, 0.1, 0.1], atol=1e-15
        )


class TestDistribution:
    def test_normalized_check(self):
        with pytest.raises(ValueError, match="sum"):
            as_distribution([0.5, 0.4])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            as_distribution([1.2, -0.2])

    def test_unnormalized_allowed_when_flagged(self):
        v = as_distribution([2.0, 1.0], normalized=False)
        assert v.tolist() == [2.0, 1.0]


class TestConditionedEvolve:
    def test_single_state_fixed(self, single):
        np.testing.assert_allclose(conditioned_evolve(single, [1.0], 7), [1.0])

    def test_t3_one_step(self, t3):
        np.testing.assert_allclose(
            conditioned_evolve(t3, [1.0, 0.0], 1), [4 / 7, 3 / 7], atol=1e-15
        )

    def test_t_zero_identity(self, w3):
        mu = [0.2, 0.5, 0.3]
        np.testing.assert_allclose(conditioned_evolve(w3, mu, 0), mu)

    def test_w3_matches_power_oracle(self, w3):
        got = conditioned_evolve(w3, [1.0, 0.0, 0.0], 5)
        want = power_marginal(w3.entries, [1.0, 0.0, 0.0], 5)
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_semigroup_property(self, w3):
        mu = np.array([0.1, 0.6, 0.3])
        for t, s in [(2, 3), (4, 9), (1, 17)]:
            two_step = conditioned_evolve(w3, conditioned_evolve(w3, mu, t), s)
            direct = conditioned_evolve(w3, mu, t + s)
            np.testing.assert_allclose(two_step, direct, atol=1e-10)

    def test_deep_horizon_never_underflows(self, w3):
        # stepwise renormalization keeps three thousand steps finite
        law = conditioned_evolve(w3, [1.0, 0.0, 0.0], 3000)
        assert law.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dead_mass_signals_horizon_too_large(self):
        from qsd.kernels import HorizonTooLarge

        K = SubStochasticKernel([[1e-320]])
        with pytest.raises(HorizonTooLarge):
            conditioned_evolve(K, [1.0], 1)


class TestBridgeMarginal:
    """Bridge laws as the contraction search forms them from the stepwise
    core (forward rows reweighted by survival vectors), read through the
    pair TV of each probe."""

    @staticmethod
    def probes(rep):
        return [(t1, T, v) for t1, row in rep.probed.items() for T, v in row if T is not None]

    def test_t_equals_T_reduces_to_evolve(self, w3):
        rep = certify_converse(w3, T_max=200)
        for t1, row in rep.probed.items():
            rows = np.stack([conditioned_evolve(w3, np.eye(3)[x], t1) for x in range(3)])
            assert row[0] == (t1, _max_pair_tv(rows))

    def test_t3_reweighting_is_uniform(self, t3):
        # constant row sums: conditioning on the future adds nothing
        rep = certify_converse(t3, T_max=100)
        for t1, T, v in self.probes(rep):
            rows = np.stack([conditioned_evolve(t3, np.eye(2)[x], t1) for x in range(2)])
            assert v == pytest.approx(tv_distance(*rows), abs=1e-14)

    def test_w3_matches_path_enumeration(self, w3):
        # an exhausted search still reports every probe it made
        rep = certify_converse(w3, t1_max=1, T_max=8)
        assert not rep.certified
        assert [T for _, T, _ in self.probes(rep)] == [1, 2, 4, 8]
        for t1, T, v in self.probes(rep):
            assert v == pytest.approx(enum_pair_tv(w3.entries, t1, T), abs=1e-12)

    def test_bridge_marginals_consistent(self, w3):
        rep = certify_converse(w3, T_max=200)
        assert max(T for _, T, _ in self.probes(rep)) == 128
        for t1, T, v in self.probes(rep):
            rows = power_bridge(w3.entries, t1, T)
            assert v == pytest.approx(_max_pair_tv(rows), abs=1e-14)

    def test_deep_horizon_never_underflows(self, w3):
        # K^4095 1 is far below the double range; the rescaled walk is not
        rep = certify_converse(w3, t1_max=1, T_max=5000)
        assert max(T for _, T, _ in self.probes(rep)) == 4096
        for _, v in rep.probed[1]:
            assert np.isfinite(v) and 0.0 <= v <= 1.0

    def test_rejects_bad_times(self, w3):
        for limits in ({"t1_max": 0}, {"T_max": 0}):
            with pytest.raises(ValueError):
                certify_converse(w3, **limits)


class TestTV:
    def test_equal_is_zero(self):
        assert tv_distance([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_disjoint_is_one(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_half_l1(self):
        assert tv_distance([0.75, 0.25], [0.25, 0.75]) == pytest.approx(0.5)

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, n, seed):
        rng = np.random.default_rng(seed)
        u, v, w = (rng.dirichlet(np.ones(n)) for _ in range(3))
        assert tv_distance(u, w) <= tv_distance(u, v) + tv_distance(v, w) + 1e-12

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_range(self, n, seed):
        rng = np.random.default_rng(seed)
        u, v = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        d = tv_distance(u, v)
        assert d == tv_distance(v, u)
        assert 0.0 <= d <= 1.0


def _closed_walk_lengths(b: np.ndarray, k_max: int) -> list[int]:
    """Lengths k <= k_max of the closed walks of the pattern, by matrix powers."""
    n = len(b)
    acc = np.eye(n, dtype=bool)
    out = []
    for k in range(1, k_max + 1):
        acc = acc @ b
        if acc.diagonal().any():
            out.append(k)
    return out


class TestPrimitivityGraphTest:
    """The linear-time graph test against Wielandt's boolean matrix power."""

    @given(st.integers(1, 10), st.sampled_from(["random", "cyclic", "reducible", "banded"]),
           st.floats(0.05, 0.9), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_wielandt(self, n, kind, density, seed):
        rng = np.random.default_rng(seed)
        b = rng.random((n, n)) < density
        if kind == "cyclic":  # edges only from class c to class c + 1 (mod p)
            p = int(rng.integers(1, n + 1))
            cls = rng.permutation(n) % p
            b &= cls[None, :] == (cls[:, None] + 1) % p
        elif kind == "reducible" and n > 1:  # no edge from the tail block into the head
            k = int(rng.integers(1, n))
            b[k:, :k] = False
        elif kind == "banded":  # a long diameter: edges only within the band
            x, y = np.indices((n, n))
            b = (np.abs(x - y) <= int(rng.integers(1, 4))) & (rng.random((n, n)) < 0.5 + density / 2)
            if rng.random() < 0.5:
                np.fill_diagonal(b, False)
        defect = _primitivity_defect(b * (0.5 / n))
        assert (defect == "") == wielandt_primitive(b)
        # a named pair has no path; a stated period divides every closed walk
        reach = np.eye(n, dtype=bool)
        for _ in range(n):
            reach = reach | (reach @ b)
        walks = reach @ b  # a path of length 1 .. n + 1
        if defect.startswith("unreachable pairs"):
            for pair in defect.split(": ")[1].split(" (")[0].split(", "):
                x, y = map(int, pair.split("->"))
                assert not walks[x, y]
        elif defect:
            period = int(defect.removeprefix("period "))
            lengths = _closed_walk_lengths(b, 2 * n)
            assert period > 1 and lengths and all(k % period == 0 for k in lengths)

    @pytest.mark.parametrize("steps, defect", [((1, 3), "period 2"), ((1, 2), "")])
    def test_circulant_with_chords(self, steps, defect):
        b = np.zeros((6, 6))
        for x in range(6):
            for s in steps:
                b[x, (x + s) % 6] = 0.4
        assert _primitivity_defect(b) == defect

    N_TRI = 2000

    @staticmethod
    def _tridiagonal(n: int) -> np.ndarray:
        b = np.zeros((n, n))
        x = np.arange(n - 1)
        b[x, x + 1] = 0.4
        b[x + 1, x] = 0.4
        return b

    @pytest.mark.parametrize("x", [0, 1234, N_TRI - 1])
    def test_long_chain_with_one_self_loop_is_primitive(self, x):
        b = self._tridiagonal(self.N_TRI)
        b[x, x] = 0.1
        assert _primitivity_defect(b) == ""

    def test_long_chain_without_self_loop_has_period_two(self):
        assert _primitivity_defect(self._tridiagonal(self.N_TRI)) == "period 2"

    @pytest.mark.parametrize("k", [0, 700, N_TRI - 9, N_TRI - 3])
    def test_cut_upward_step_names_states_not_reached(self, k):
        n = self.N_TRI
        b = self._tridiagonal(n)
        np.fill_diagonal(b, 0.1)
        b[k, k + 1] = 0.0
        cut = list(range(k + 1, n))
        head = ", ".join(f"0->{y}" for y in cut[:8])
        more = f" (+{len(cut) - 8} more)" if len(cut) > 8 else ""
        assert _primitivity_defect(b) == f"unreachable pairs: {head}{more}"

    @pytest.mark.parametrize("k", [0, 700, N_TRI - 9, N_TRI - 3])
    def test_cut_downward_step_names_states_not_reaching(self, k):
        n = self.N_TRI
        b = self._tridiagonal(n)
        b[k + 1, k] = 0.0
        cut = list(range(k + 1, n))
        head = ", ".join(f"{x}->0" for x in cut[:8])
        more = f" (+{len(cut) - 8} more)" if len(cut) > 8 else ""
        assert _primitivity_defect(b) == f"unreachable pairs: {head}{more}"


class TestUniformize:
    def test_single_rate(self):
        K = uniformize(Generator([[-1.0]]), 2.0)
        assert K.entries[0, 0] == 0.5
        assert K.time_unit == 0.5

    def test_two_state_arithmetic(self):
        K = uniformize(Generator([[-2.0, 1.0], [1.0, -2.0]]), 2.5)
        np.testing.assert_allclose(K.entries, [[0.2, 0.4], [0.4, 0.2]])
        assert K.time_unit == 0.4

    def test_two_state_at_exact_clock_is_periodic(self):
        # theta equal to the diagonal rate zeroes every diagonal entry here,
        # producing a two-cycle, which the construction invariant rejects
        with pytest.raises(ValueError, match="reducible or periodic"):
            uniformize(Generator([[-2.0, 1.0], [1.0, -2.0]]), 2.0)

    def test_rejects_small_theta(self):
        with pytest.raises(ValueError, match="diagonal"):
            uniformize(Generator([[-2.0, 1.0], [1.0, -2.0]]), 1.5)

    def test_generator_validation(self):
        with pytest.raises(ValueError, match="off-diagonal"):
            Generator([[-1.0, -0.1], [0.2, -0.3]])
        with pytest.raises(ValueError, match="row sums"):
            Generator([[-1.0, 1.5], [0.2, -0.3]])


class TestKernelFile:
    def test_roundtrip(self, w3, tmp_path):
        p = tmp_path / "k.txt"
        write_kernel(w3, p)
        back = read_kernel(p)
        np.testing.assert_array_equal(back.entries, w3.entries)
        assert back.time_unit == w3.time_unit

    def test_written_bytes_match_per_entry_format(self, tmp_path):
        # zero, a tiny normal, a repeating binary fraction and a subnormal
        entries = [[0.0, 1e-300, 1.0 / 3.0], [5e-324, 0.25, 0.5], [1.0 / 3.0, 1.0 / 7.0, 0.1]]
        K = SubStochasticKernel(entries, time_unit=0.1)
        p = tmp_path / "k.txt"
        write_kernel(K, p)
        want = [f"n 3 time_unit {format(0.1, '.17g')}"]
        want += [" ".join(format(float(x), ".17g") for x in row) for row in entries]
        assert p.read_bytes() == ("\n".join(want) + "\n").encode()
        np.testing.assert_array_equal(read_kernel(p).entries, K.entries)

    def test_write_streams_rows(self, tmp_path):
        # one row's text is alive at a time, never the whole file's (~0.9 MB here)
        K = models.random_substochastic(200, 1)
        tracemalloc.start()
        try:
            write_kernel(K, tmp_path / "k.txt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**18

    def test_rejects_negative_with_line_number(self, tmp_path):
        p = tmp_path / "k.txt"
        p.write_text("n 2 time_unit 1\n0.5 0.2\n-0.1 0.5\n")
        with pytest.raises(ValueError, match=":3"):
            read_kernel(p)

    def test_rejects_nan(self, tmp_path):
        p = tmp_path / "k.txt"
        p.write_text("n 2 time_unit 1\n0.5 nan\n0.1 0.5\n")
        with pytest.raises(ValueError, match="NaN"):
            read_kernel(p)

    @pytest.mark.parametrize("row, message", [
        ("0.1 0.2x 0.3", "not a number: '0.2x'"),
        ("0.1 nan -0.3", "NaN entry"),
        ("0.1 -0.2 nan", "negative entry '-0.2'"),
    ])
    def test_bad_token_diagnostic_and_line_number(self, tmp_path, row, message):
        # the bad row is on line 5: a blank line and two good rows come first
        p = tmp_path / "k.txt"
        p.write_text(f"n 3 time_unit 1\n\n0.1 0.2 0.3\n0.3 0.2 0.1\n{row}\n")
        with pytest.raises(ValueError) as exc:
            read_kernel(p)
        assert str(exc.value) == f"{p}:5: {message}"

    def test_rejects_bad_header(self, tmp_path):
        p = tmp_path / "k.txt"
        p.write_text("size 2\n0.5 0.2\n0.1 0.5\n")
        with pytest.raises(ValueError, match="expected 'n"):
            read_kernel(p)

    def test_rejects_wrong_row_count(self, tmp_path):
        p = tmp_path / "k.txt"
        p.write_text("n 3 time_unit 1\n0.5 0.2 0\n0.1 0.5 0.1\n")
        with pytest.raises(ValueError, match="expected 3 rows"):
            read_kernel(p)


def _token_parse(path):
    """The body of a kernel file, one Python ``float`` per token."""
    with open(path) as fh:
        lines = [s for s in fh.read().splitlines() if s.strip()][1:]
    return np.array([[float(tok) for tok in s.split()] for s in lines])


_WIDE = 450  # rows of 450 tokens of 0.001: 1.2 MB of text, two read blocks
_WIDE_ROW = " ".join(["0.001"] * _WIDE)


def _wide_text(rows=_WIDE, bad_row=None, sep="\n"):
    """A kernel file longer than one read block; row ``bad_row`` (from 0,
    on line ``bad_row + 2``) ends in the token 'x'."""
    body = [_WIDE_ROW] * rows
    if bad_row is not None:
        body[bad_row] = _WIDE_ROW[:-5] + "x"
    return sep.join([f"n {_WIDE} time_unit 1"] + body) + sep


# 1,215,018 bytes: header 'n 450 time_unit', a 0xff byte at position 1,215,016
_WIDE_BAD_HEADER = _wide_text().replace(f"n {_WIDE} time_unit 1", f"n {_WIDE} time_unit",
                                        1).encode() + b"\xff\n"


def _decode_error(data: bytes) -> str:
    """The message of a whole-file decode of ``data``."""
    try:
        data.decode()
    except UnicodeDecodeError as exc:
        return str(exc)
    raise AssertionError("data decodes")


_PARSE_KERNELS = {
    "w3": models.w3,
    "t3": models.t3,
    "rs500": lambda: models.random_substochastic(500, 7),
    "ou200": lambda: models.ou_discretized(200),
    "lbd60": lambda: models.linear_bd_truncated(60),
    "log100": lambda: models.logistic_bd(100, birth_step=0.003),
}


class TestOnePassParse:
    """The one C pass over the body gives the token-by-token bits, and every
    file it cannot take falls back to the line-by-line diagnostics."""

    @pytest.mark.parametrize("name", sorted(_PARSE_KERNELS) + ["random-corpus"])
    def test_bits_equal_token_by_token_parse(self, name, tmp_path, random_kernels):
        kernels = random_kernels if name == "random-corpus" else [_PARSE_KERNELS[name]()]
        for K in kernels:
            p = tmp_path / "k.txt"
            write_kernel(K, p)
            got = read_kernel(p).entries
            assert got.tobytes() == _token_parse(p).tobytes()
            assert got.tobytes() == K.entries.tobytes()

    def test_one_pass_takes_well_formed_bodies(self, tmp_path, monkeypatch):
        from qsd import kernels

        calls = []
        monkeypatch.setattr(kernels, "_parse_rows", lambda *a: calls.append(a))
        p = tmp_path / "k.txt"
        write_kernel(models.random_substochastic(20, 1), p)
        read_kernel(p)
        assert calls == []

    # (file text, message with {path}) as the line-by-line parse words them
    MALFORMED = {
        "hash_token": ("n 2 time_unit 1\n0.1 #\n0.2 0.3\n", "{path}:2: not a number: '#'"),
        "hash_line": ("n 2 time_unit 1\n# c\n0.1 0.2\n0.2 0.3\n", "{path}: expected 2 rows, found 3"),
        "hex_float": ("n 2 time_unit 1\n0x1p-2 0.1\n0.2 0.3\n", "{path}:2: not a number: '0x1p-2'"),
        "underscore": ("n 2 time_unit 1\n1_0 0.1\n0.2 0.3\n", "row 0 sums to 10.1 > 1"),
        "nan": ("n 2 time_unit 1\n0.1 0.2\nnan 0.3\n", "{path}:3: NaN entry"),
        "negative": ("n 2 time_unit 1\n0.1 -0.1\n0.2 0.3\n", "{path}:2: negative entry '-0.1'"),
        "ragged": ("n 2 time_unit 1\n0.1 0.2 0.3\n0.2 0.3\n", "{path}:2: expected 2 entries, found 3"),
        "short_row": ("n 2 time_unit 1\n0.1 0.2\n0.3\n", "{path}:3: expected 2 entries, found 1"),
        "extra_row": ("n 2 time_unit 1\n0.1 0.2\n0.2 0.3\n0.1 0.1\n",
                      "{path}: expected 2 rows, found 3"),
        "form_feed": ("n 2 time_unit 1\n0.1\f0.2\n0.2 0.3\n", "{path}: expected 2 rows, found 3"),
        "infinite": ("n 2 time_unit 1\ninf 0.2\n0.2 0.3\n", "kernel has non-finite entries"),
        "cr_only": ("n 2 time_unit 1\r0.1 0.2\r0.2 0.3 0.4\r", "{path}:3: expected 2 entries, found 3"),
        "nel": ("n 2 time_unit 1\n0.1 0.2\x85nan 0.3\n", "{path}:3: NaN entry"),
        "line_separator": ("n 2 time_unit 1\n0.1\u20280.2\n0.2 0.3\n",
                           "{path}: expected 2 rows, found 3"),
        "no_final_newline": ("n 2 time_unit 1\n0.1 0.2\n0.2 -0.3", "{path}:3: negative entry '-0.3'"),
        "bad_utf8": (b"n 2 time_unit 1\n0.1 0.2\n0.2 \xff\n",
                     "'utf-8' codec can't decode byte 0xff in position 28: invalid start byte"),
        "bad_utf8_bad_header": (b"n 2 time_unit\n0.1 0.2\n0.2 \xff\n",
                                "'utf-8' codec can't decode byte 0xff in position 26: invalid start byte"),
        "huge_n": ("n 1000000000000 time_unit 1\n0.1 0.2\n",
                   "{path}: expected 1000000000000 rows, found 1"),
        # bodies longer than one read block
        "wide_bad_token": (_wide_text(bad_row=400), "{path}:402: not a number: 'x'"),
        "wide_bad_token_extra_row": (_wide_text(rows=_WIDE + 1, bad_row=400),
                                     "{path}: expected 450 rows, found 451"),
        "wide_early_bad_token_extra_row": (_wide_text(rows=_WIDE + 1, bad_row=3),
                                           "{path}: expected 450 rows, found 451"),
        "wide_bad_token_crlf_nel": (_wide_text(bad_row=300, sep="\r\n\x85"),
                                    "{path}:603: not a number: 'x'"),
        "wide_bad_utf8": (_wide_text().encode()[:-9] + b"\xff\n",
                          _decode_error(_wide_text().encode()[:-9] + b"\xff\n")),
        "wide_truncated_utf8": (_wide_text().encode() + b"\xe2\x82",
                                _decode_error(_wide_text().encode() + b"\xe2\x82")),
        # the decode error, in the second block, comes before the header's
        "wide_bad_utf8_bad_header": (_WIDE_BAD_HEADER, _decode_error(_WIDE_BAD_HEADER)),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_gives_line_by_line_message(self, case, tmp_path, capsys):
        from qsd.cli import main

        text, message = self.MALFORMED[case]
        p = tmp_path / "k.txt"
        p.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ValueError) as exc:
            read_kernel(p)
        assert str(exc.value) == message.format(path=p)
        assert main(["spectral", "--kernel", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=p)}\n"

    @pytest.mark.parametrize("text", [
        "\nn 2 time_unit 1\n\n0.1 0.2\n   \n\n0.2 0.3\n\n",  # blank lines between rows
        "n 2 time_unit 1\r\n0.1\t0.2\r\n\t0.2\t0.3 \r\n",  # tabs and CRLF
        "n 2 time_unit 1\n0.1 0.2\f\n0.2 0.3\n",  # a form feed that leaves a blank line
        "n 2 time_unit 1\n0.1_5 0.1\n0.2 0.3\n",  # an underscore Python's float takes
        "n 2 time_unit 1\n０.1 0.2\n0.2 0.3\n",  # a full-width digit
        "n 2 time_unit 1\r0.1 0.2\r\r0.2 0.3\r",  # CR-only line ends
        "n 2 time_unit 1\x850.1 0.2\u20280.2 0.3\u2029",  # NEL and Unicode separators
        "n 2 time_unit 1\n0.1 0.2\n0.2 0.3",  # no final newline
        _wide_text(sep="\r\n"),  # CRLF across read blocks
        _wide_text(sep="\u2028\n"),  # a blank line after each row, over two blocks
        "\n" * (2**20 + 3) + "n 2 time_unit 1\n0.1 0.2\n0.2 0.3",  # the header in block two
    ], ids=["blank_lines", "tabs_crlf", "form_feed_blank", "underscore", "full_width", "cr_only",
            "nel_separators", "no_final_newline", "wide_crlf", "wide_separators", "late_header"])
    def test_odd_but_accepted_file_keeps_token_bits(self, text, tmp_path):
        from qsd import cli

        p = tmp_path / "k.txt"
        p.write_bytes(text.encode())
        assert read_kernel(p).entries.tobytes() == _token_parse(p).tobytes()
        K, digest = cli._load_kernel(argparse.Namespace(kernel=str(p)))
        assert K.entries.tobytes() == _token_parse(p).tobytes()
        assert digest == hashlib.sha256(p.read_bytes()).hexdigest()

    def test_read_holds_the_matrix_twice_and_one_block(self, tmp_path):
        # a read takes the 5.3 MB of rs500 text a block at a time: its peak
        # is the constructor's two copies of the 1.9 MiB matrix, and near
        # them one block of text (a whole-file read peaked at 10.6 MiB)
        from qsd import cli

        n = 500
        p = tmp_path / "k.txt"
        write_kernel(models.random_substochastic(n, 7), p)
        for read in (lambda: read_kernel(p),
                     lambda: cli._load_kernel(argparse.Namespace(kernel=str(p)))):
            tracemalloc.start()
            try:
                read()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2.5 * 8 * n * n + 2 * 2**20
