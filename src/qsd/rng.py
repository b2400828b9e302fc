"""Counter-based random number generation.

Every variate is a pure function of (key, index, step), so a batch of
trajectories can be simulated in any partitioning, on any number of
workers, and still produce bit-identical output.  The mixer is the
splitmix64 finalizer (three xor-shift/multiply rounds), applied once per
counter component, in place on a fresh uint64 array with one scratch
array.  :func:`uniform_field` hashes a whole matrix in one pass.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = 2.0 ** -53


def mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on a uint64 array, which it returns.

    uint64 array arithmetic wraps modulo 2**64 without a warning.
    """
    z += _GOLDEN
    t = z >> np.uint64(30)
    z ^= t
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def derive_key(*parts: int) -> int:
    """Fold integers into one 64-bit key; order-sensitive."""
    acc = 0
    for p in parts:
        acc = int(mix64(np.array([(acc ^ p) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64))[0])
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
    """A (rows, cols) matrix of uniforms keyed by (key, row, col).

    Row i is ``counter_uniforms(derive_key(key, i), np.arange(cols), 0)``;
    all rows are hashed at once, in place (step 0's xor is the identity).
    """
    row_keys = mix64(trajectory_keys(key, np.arange(rows)))  # mix64(derive_key(key, i))
    h = mix64(mix64(row_keys[:, None] ^ np.arange(cols, dtype=np.uint64)))
    return np.right_shift(h, np.uint64(11), out=h) * _INV53
