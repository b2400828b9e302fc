"""Counter-based random number generation.

Every variate is a pure function of (key, index, step), so a batch of
trajectories can be simulated in any partitioning, on any number of
workers, and still produce bit-identical output.  The mixer is the
splitmix64 finalizer (three xor-shift/multiply rounds), applied once per
counter component.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = 2.0 ** -53


def mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = (z + _GOLDEN).astype(np.uint64, copy=False)
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    return z


def _mix_scalar(z: int) -> int:
    return int(mix64(np.array([np.uint64(z & 0xFFFFFFFFFFFFFFFF)]))[0])


def derive_key(*parts: int) -> int:
    """Fold integers into one 64-bit key; order-sensitive."""
    acc = 0
    for p in parts:
        acc = _mix_scalar(acc ^ (p & 0xFFFFFFFFFFFFFFFF))
    return acc


def trajectory_keys(key: int, index: np.ndarray) -> np.ndarray:
    """Per-index hashes ``mix64(mix64(key) ^ index)`` of a counter address.

    The part of an address that does not depend on the step: a simulation
    computes it once per trajectory and feeds it to :func:`step_hashes`
    at every step.
    """
    idx = np.asarray(index, dtype=np.uint64)
    return mix64(mix64(np.array([np.uint64(key & 0xFFFFFFFFFFFFFFFF)])) ^ idx)


def step_hashes(keys: np.ndarray, step: int) -> np.ndarray:
    """64-bit hashes of :func:`trajectory_keys` hashes at one step.

    The uniform of an address is its hash's top 53 bits times 2**-53
    (:func:`hash_uniforms`), so a sampler may compare those bits with
    integer thresholds instead of forming the float.
    """
    return mix64(keys ^ np.uint64(step & 0xFFFFFFFFFFFFFFFF))


def hash_uniforms(h: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1): the top 53 bits of each 64-bit hash, times 2**-53 (exact)."""
    return (h >> np.uint64(11)) * _INV53


def step_uniforms(keys: np.ndarray, step: int) -> np.ndarray:
    """Uniforms in [0, 1) for :func:`trajectory_keys` hashes at one step."""
    return hash_uniforms(step_hashes(keys, step))


def counter_uniforms(key: int, index: np.ndarray, step: int) -> np.ndarray:
    """Uniforms in [0, 1) addressed by (key, index, step).

    ``index`` is an integer array (e.g. trajectory numbers); the result
    depends only on the address, never on call order or batch shape.
    """
    return step_uniforms(trajectory_keys(key, index), step)


def uniform_field(key: int, rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) matrix of uniforms keyed by (key, row, col)."""
    out = np.empty((rows, cols))
    for i in range(rows):
        out[i] = counter_uniforms(derive_key(key, i), np.arange(cols), 0)
    return out
