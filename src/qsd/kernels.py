"""Kernel and distribution algebra for absorbed Markov chains.

A chain on survivor states E = {0..n-1} plus one absorbing cemetery state
is represented by its killed transition matrix: the n-by-n block of
transition probabilities among survivors.  Row deficits (1 - row sum) are
the per-step absorption probabilities.  The bound reports propagate
deviations in deflated form (:mod:`qsd.deflation`).  The stepwise forward
pass here serves the rest: it renormalizes its rows at every step, so
horizons in the thousands never underflow.  :func:`conditioned_evolve`
reads its last step, and the bridge search of ``converse.certify_converse``
reweights its rows by that module's own backward pass of survival vectors.

Distributions over survivor states are plain 1-D numpy arrays.  Kernel
entries are frozen at construction, and every operation here is a pure
function of its inputs, so values are safe to share across threads.
"""

from __future__ import annotations

import io
import math

import numpy as np

__all__ = [
    "HorizonTooLarge",
    "SubStochasticKernel",
    "conditioned_evolve",
    "read_kernel",
    "write_kernel",
]

_MASS_TOL = 1e-12


class HorizonTooLarge(RuntimeError):
    """Survival mass underflowed; the requested horizon is numerically dead."""


def _unreached(packed: np.ndarray, lev: list | None = None) -> int:
    """Bit mask of the states a breadth-first search from state 0 misses.

    Row x of ``packed`` is the bit-packed (little-endian) set of the states
    one step from x.  A level ORs the rows of its frontier states, read as
    Python ints, so it costs a few word operations per state.  With ``lev``
    the search runs to its end and sets ``lev[x]`` to the distance of x;
    without, it stops as soon as every state is seen.
    """
    n, width = packed.shape
    rows = packed.tobytes()
    everything = (1 << n) - 1
    seen = frontier = 1
    level = 0
    while frontier and (lev is not None or seen != everything):
        reach = 0
        while frontier:
            low = frontier & -frontier
            x = low.bit_length() - 1
            if lev is not None:
                lev[x] = level
            reach |= int.from_bytes(rows[x * width:(x + 1) * width], "little")
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
        level += 1
    return everything & ~seen


def _lowest(mask: int, count: int) -> list[int]:
    """The positions of the ``count`` lowest set bits of ``mask``."""
    out = []
    while mask and len(out) < count:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _primitivity_defect(entries: np.ndarray) -> str:
    """Why the kernel is not primitive, or "" when it is.

    A nonnegative matrix is primitive iff its graph is strongly connected
    and aperiodic.  Strong connectivity: every state is reached from state 0
    and reaches it, by a breadth-first search over the bit-packed rows of
    the positive pattern and over those of its transpose.  A strongly
    connected graph with a self-loop has period 1.  Without one, the period
    is the gcd of ``lev(u) + 1 - lev(v)`` over the edges u -> v, with
    ``lev`` the distance from state 0 (Denardo 1977), taken once over the
    nonzero pattern.
    """
    b = entries > 0.0
    n = len(b)
    loop = bool(b.diagonal().any())
    lev = None if loop else [0] * n
    unseen = _unreached(np.packbits(b, axis=1, bitorder="little"), lev)
    unreaching = _unreached(np.packbits(np.ascontiguousarray(b.T), axis=1, bitorder="little"))
    count = unseen.bit_count() + unreaching.bit_count()
    pairs = [(0, y) for y in _lowest(unseen, 8)]
    pairs += [(x, 0) for x in _lowest(unreaching, 8 - len(pairs))]
    if not count and not loop:
        u, v = divmod(np.flatnonzero(b), n)  # the edges; 2-D nonzero is slower
        lev = np.array(lev)
        period = int(np.gcd.reduce(lev[u] + 1 - lev[v]))
        if period == 0:  # a single state without a self-loop
            count, pairs = 1, [(0, 0)]
        elif period > 1:
            return f"period {period}"
    if count:
        head = ", ".join(f"{x}->{y}" for x, y in pairs)
        more = "" if count <= 8 else f" (+{count - 8} more)"
        return f"unreachable pairs: {head}{more}"
    return ""


class SubStochasticKernel:
    """Killed transition matrix on the survivor states.

    Parameters
    ----------
    entries:
        Square matrix, entrywise >= 0, every row sum <= 1, at least one
        row sum < 1 (absorption must be possible).
    time_unit:
        Physical duration of one step (1.0 for native discrete time).
        Per-step rates divide by it to become physical rates.

    Reducible or periodic kernels are rejected at construction: the
    spectral machinery downstream silently breaks without a unique
    strictly dominant eigenvalue, so the failure is surfaced here with
    the offending state pairs or the period.
    """

    def __init__(self, entries, time_unit: float = 1.0):
        m = np.asarray(entries, dtype=float).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("kernel must be a square matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("kernel has non-finite entries")
        if np.any(m < 0):
            raise ValueError("kernel has negative entries")
        rs = m.sum(axis=1)
        if np.any(rs > 1.0 + _MASS_TOL):
            bad = int(np.argmax(rs))
            raise ValueError(f"row {bad} sums to {float(rs[bad])!r} > 1")
        if not np.any(rs < 1.0 - _MASS_TOL):
            raise ValueError("no absorption: every row sum equals 1")
        if not (time_unit > 0 and np.isfinite(time_unit)):
            raise ValueError("time_unit must be a positive real")
        defect = _primitivity_defect(m)
        if defect:
            raise ValueError(f"kernel is reducible or periodic on the survivor states; {defect}")
        m.setflags(write=False)
        self.entries = m
        self.n = m.shape[0]
        self.time_unit = float(time_unit)

    def __repr__(self) -> str:
        return f"SubStochasticKernel(n={self.n}, time_unit={self.time_unit})"


def _max_pair_tv(rows: np.ndarray):
    """Largest TV distance between two rows; 0 for fewer than two rows.

    A stack of row blocks (more than two axes) gives an array, one value
    per block, from the same loop over the rows.
    """
    worst = np.zeros(rows.shape[:-2])
    for i in range(rows.shape[-2] - 1):
        tv = np.abs(rows[..., i + 1:, :] - rows[..., i, None, :]).sum(axis=-1).max(axis=-1)
        worst = np.maximum(worst, 0.5 * tv)
    return worst if worst.ndim else float(worst)


def _shifted_solve(A: np.ndarray, shift: float, a: np.ndarray, h: np.ndarray):
    """The solutions a', h' of ``(shift I - A)^T a' = a`` and ``(shift I - A) h' = h``.

    One step of shifted inverse iteration on both sides.  ``shift I - A`` is
    built in one buffer; raises ``numpy.linalg.LinAlgError`` when it is
    singular.
    """
    M = np.negative(A)
    M.flat[:: len(M) + 1] += shift
    return np.linalg.solve(M.T, a), np.linalg.solve(M, h)


def _eigen_residual(a: np.ndarray, aK: np.ndarray, h: np.ndarray, Kh: np.ndarray,
                    rho: float) -> float:
    """Eigen-equation defect ``max(|aK - rho a|, |Kh - rho h| / max h)``.

    Takes the products ``aK = a @ K`` and ``Kh = K @ h`` so that a caller
    that needs them anyway forms each once.
    """
    return max(float(np.max(np.abs(aK - rho * a))),
               float(np.max(np.abs(Kh - rho * h))) / float(np.max(h)))


def _forward(K: SubStochasticKernel, P: np.ndarray, t_max: int):
    """Yield P_s for s = 0..t_max.

    ``P`` is a 2-D block of start distributions; row x of ``P_s`` is
    ``P[x] K^s / (P[x] K^s 1)``.  Each step renormalizes, so nothing
    underflows while the chain can numerically survive.
    """
    P = np.array(P, dtype=float)
    yield P
    for _ in range(t_max):
        P = P @ K.entries
        mass = P.sum(axis=1)
        if np.any(mass < 1e-300):
            raise HorizonTooLarge(
                "survival mass underflowed during evolution; the horizon is "
                "too large for the remaining mass"
            )
        P /= mass[:, None]
        yield P


def conditioned_evolve(K: SubStochasticKernel, mu, t: int) -> np.ndarray:
    """Law of X_t given survival to time t, started from mu.

    ``mu`` must be a length-n vector of finite, nonnegative weights summing
    to 1 within 1e-12.  Computed by stepwise renormalization, so any
    horizon the chain can numerically survive is fine; a zero-mass step
    raises :class:`HorizonTooLarge`.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (K.n,):
        raise ValueError("distribution length does not match kernel size")
    if not np.all(np.isfinite(mu)):
        raise ValueError("distribution has non-finite entries")
    if np.any(mu < 0):
        raise ValueError("distribution has negative entries")
    if abs(mu.sum() - 1.0) > _MASS_TOL:
        raise ValueError(f"weights sum to {float(mu.sum())!r}, not 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    for P in _forward(K, mu[None, :], t):
        pass
    return P[0]


def write_kernel(K: SubStochasticKernel, path) -> None:
    """Write the plain-text kernel format (17 significant digits)."""
    row_format = " ".join(["%.17g"] * K.n) + "\n"
    with open(path, "w") as fh:
        fh.write("n %d time_unit %.17g\n" % (K.n, K.time_unit))
        for row in K.entries:
            fh.write(row_format % tuple(row.tolist()))


_BLOCK_CHARS = 2**20  # text a kernel read takes at once, like deflation.CHUNK_BYTES
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines cuts


class _Forward(io.RawIOBase):
    """The binary file ``fh`` read forward only, so a text wrapper keeps no
    snapshot of its chunks; every byte read is hashed into ``digest``, if given."""

    def __init__(self, fh, digest=None):
        self.fh, self.digest, self.tell = fh, digest, fh.tell

    def readable(self):
        return True

    def read(self, size=-1):
        data = self.fh.read(size)
        if self.digest:
            self.digest.update(data)
        return data


def read_kernel(path, lines=None) -> SubStochasticKernel:
    """Parse the plain-text kernel format; rejects NaN and negative entries.

    ``lines`` is the file open in text mode; by default it is opened here.
    The text is read ``_BLOCK_CHARS`` at a time and cut in C as
    ``str.splitlines`` cuts the whole text, so a read holds the rows parsed
    so far and one block.  Each block's non-blank lines go through one C
    pass (``np.loadtxt``); a block it refuses, or with another width than n,
    a NaN or a negative entry, is parsed again line by line.  Errors come in
    a whole-file read's order: a decode error anywhere in the file, the
    header, row count, first bad line, then the constructor's checks.
    """
    if lines is None:
        with open(path, "rb", buffering=0) as fh:  # decoded as open(path) decodes
            return read_kernel(path, io.TextIOWrapper(_Forward(fh)))
    n, found, parts, bad, base, carry, more = None, 0, [], None, 0, "", True
    while more:
        block = _read_block(lines)
        more = len(block) == _BLOCK_CHARS  # a text read comes back short only at the end
        pieces = block.splitlines() or [""]
        pieces[0] = carry + pieces[0]  # the line the last block ended in
        carry = pieces.pop() if more and block[-1] not in _BREAKS else ""
        rows = list(filter(str.strip, pieces))  # the non-blank lines
        head = n is None and len(rows) > 0  # the block holds the header
        if head:  # every line before it is blank
            lineno, tok = base + 1 + pieces.index(rows[0]), rows.pop(0).split()
            try:
                n, time_unit = _header(tok)
            except ValueError as exc:
                while more:  # a decode error further on comes first, as in a whole-file read
                    more = len(_read_block(lines)) == _BLOCK_CHARS
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        if rows and bad is None and found + len(rows) <= n:
            try:
                entries = np.loadtxt(rows, comments=None, ndmin=2, max_rows=len(rows))
            except ValueError:
                entries = None
            if entries is None or entries.shape != (len(rows), n) or not (entries >= 0.0).all():
                numbered = [(base + i, s) for i, s in enumerate(pieces, 1) if s.strip()]
                try:
                    entries = _parse_rows(path, n, numbered[head:])
                except ValueError as exc:  # reported after the row count
                    bad = exc
            parts.append(entries)
        found += len(rows)
        base += len(pieces)
        del block, pieces, rows  # one block of text is alive at a time
    if n is None:
        raise ValueError(f"{path}: empty kernel file")
    if found != n:
        raise ValueError(f"{path}: expected {n} rows, found {found}")
    if bad is not None:
        raise bad
    entries = parts.pop() if len(parts) == 1 else np.concatenate(parts)
    del parts  # before the constructor copies the matrix
    return SubStochasticKernel(entries, time_unit=time_unit)


def _read_block(lines) -> str:
    """The next ``_BLOCK_CHARS`` of the text ``lines``; a decode error is
    placed in the file, as a whole-file decode places it."""
    try:
        return lines.read(_BLOCK_CHARS)
    except UnicodeDecodeError as exc:
        at = lines.buffer.tell() - len(exc.object)
        raise UnicodeDecodeError(exc.encoding, bytes(at) + exc.object, at + exc.start,
                                 at + exc.end, exc.reason) from None


def _header(tok) -> tuple[int, float]:
    """(n, time_unit) from the tokens of the header line."""
    if len(tok) != 4 or tok[0] != "n" or tok[2] != "time_unit":
        raise ValueError("expected 'n <int> time_unit <float>'")
    try:
        n, time_unit = int(tok[1]), float(tok[3])
    except ValueError as exc:
        raise ValueError(f"bad header values: {exc}") from None
    if n <= 0:
        raise ValueError("n must be positive")
    if not (time_unit > 0 and math.isfinite(time_unit)):
        raise ValueError("time_unit must be a positive real")
    return n, time_unit


def _parse_rows(path, n: int, lines) -> np.ndarray:
    """Kernel rows token by token, as Python's ``float`` reads them; raises
    at the first bad line, before any n-wide row is allocated."""
    rows = []
    for lineno, s in lines:
        parts = s.split()
        if len(parts) != n:
            raise ValueError(f"{path}:{lineno}: expected {n} entries, found {len(parts)}")
        rows.append(row := [])
        for p in parts:
            try:
                row.append(v := float(p))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {p!r}") from None
            if math.isnan(v):
                raise ValueError(f"{path}:{lineno}: NaN entry")
            if v < 0:
                raise ValueError(f"{path}:{lineno}: negative entry {p!r}")
    return np.array(rows)
