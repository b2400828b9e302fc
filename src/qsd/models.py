"""Model zoo: kernels that satisfy (and deliberately strain) the uniform
conditioning assumptions.

Two pinned test kernels ship with the package: ``w3``, the golden 3-state
kernel every cross-module regression value is derived from, and ``t3``,
a 2-state kernel with constant row sums (its survival probabilities are
state-independent, which collapses most conditioning effects to closed
forms).  The generated kinds cover logistic-type chains, whose one-shot
minorization mass c1 stabilizes as the state count grows, and truncated
linear birth-death / discretized mean-reverting diffusions, where c1
degrades with the truncation level - stress models only, with no claim
of fidelity to any continuum limit.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .kernels import Generator, SubStochasticKernel, read_kernel, uniformize
from .rng import counter_uniforms, derive_key, uniform_field

__all__ = [
    "ModelSpec",
    "birth_death",
    "build",
    "golden_kernel_path",
    "linear_bd_truncated",
    "logistic_bd",
    "ou_discretized",
    "parameter_error",
    "random_substochastic",
    "t3",
    "w3",
]

@dataclass(frozen=True)
class ModelSpec:
    """Seeded, fully reproducible description of a kernel."""

    kind: str
    n: int
    seed: int | None = None
    params: dict = field(default_factory=dict)


def golden_kernel_path(name: str = "w3"):
    """Filesystem path of a pinned kernel file shipped with the package."""
    return resources.files("qsd").joinpath(f"data/{name}.txt")


def w3() -> SubStochasticKernel:
    """The pinned golden 3-state kernel used across the test corpus."""
    with resources.as_file(golden_kernel_path("w3")) as p:
        return read_kernel(p)


def t3() -> SubStochasticKernel:
    """2-state kernel with constant row sums 0.7; eigenvalues 0.7 and 0.1."""
    return SubStochasticKernel([[0.4, 0.3], [0.3, 0.4]])


def birth_death(n: int, birth: float = 0.0, death: float = 0.5) -> SubStochasticKernel:
    """Constant-rate birth-death chain on populations 1..n.

    Tridiagonal; the only absorption is the death move out of the lowest
    state.  The top state has no birth move (truncation).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if birth < 0 or death <= 0:
        raise ValueError("need birth >= 0 and death > 0")
    ups = [birth if i < n - 1 else 0.0 for i in range(n)]
    downs = [death] * n
    return _tridiagonal(ups, downs)


def logistic_bd(
    n: int,
    birth0: float = 0.4,
    birth_step: float = 0.1,
    death: float = 0.3,
    death_step: float = 0.0,
) -> SubStochasticKernel:
    """Density-dependent birth-death chain: births fall off linearly with
    population (capped at zero), deaths grow linearly.

    The declining birth pressure gives the compact-return behavior that
    keeps the one-shot minorization mass stable as n grows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if birth0 < 0 or birth_step < 0 or death <= 0 or death_step < 0:
        raise ValueError("rates must be nonnegative with death > 0")
    ups = [max(birth0 - birth_step * i, 0.0) if i < n - 1 else 0.0 for i in range(n)]
    if any(u == 0.0 for u in ups[: n - 1]):
        k = next(i for i, u in enumerate(ups[: n - 1]) if u == 0.0)
        raise ValueError(
            f"births vanish at state {k + 1} < n={n}; the states above are "
            "unreachable (shrink n or flatten birth_step)"
        )
    downs = [death + death_step * i for i in range(n)]
    return _tridiagonal(ups, downs)


def _tridiagonal(ups, downs) -> SubStochasticKernel:
    n = len(ups)
    K = np.zeros((n, n))
    for i in range(n):
        stay = 1.0 - ups[i] - downs[i]
        if stay < -1e-12:
            raise ValueError(f"rates at state {i} exceed 1 (up={ups[i]}, down={downs[i]})")
        K[i, i] = max(stay, 0.0)
        if i + 1 < n:
            K[i, i + 1] = ups[i]
        if i >= 1:
            K[i, i - 1] = downs[i]
        # downs[0] is the absorption move out of the lowest state
    return SubStochasticKernel(K)


def random_substochastic(
    n: int, seed: int, min_absorb: float = 0.05, min_row_sum: float = 0.5
) -> SubStochasticKernel:
    """Dense random kernel with row sums in [min_row_sum, 1 - min_absorb].

    Entries are strictly positive (so the kernel is primitive by
    construction) and every value is a pure function of (seed, row, col):
    bit-identical across runs and platforms.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < min_absorb < 1 or not 0 < min_row_sum < 1 - min_absorb:
        raise ValueError("need 0 < min_row_sum < 1 - min_absorb < 1")
    raw = uniform_field(derive_key(seed, 1), n, n)
    raw *= 0.9
    raw += 0.1
    sums = min_row_sum + (1.0 - min_absorb - min_row_sum) * counter_uniforms(
        derive_key(seed, 2), np.arange(n), 0
    )
    raw /= raw.sum(axis=1, keepdims=True)  # scaled and normalized in place
    raw *= sums[:, None]
    return SubStochasticKernel(raw)


def linear_bd_truncated(n: int, birth: float = 0.5, death: float = 0.55) -> SubStochasticKernel:
    """Linear birth-death chain (rates proportional to population),
    truncated at population n and embedded at the uniformization clock.

    The per-capita rates give no density pressure, so mass drifts toward
    the truncation edge and the one-shot minorization mass decays as n
    grows: a stress model for the uniform conditioning assumptions.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if birth < 0 or death <= 0:
        raise ValueError("need birth >= 0 and death > 0")
    G = np.zeros((n, n))
    for i in range(n):
        k = i + 1
        up = birth * k if i < n - 1 else 0.0
        down = death * k
        if i + 1 < n:
            G[i, i + 1] = up
        if i >= 1:
            G[i, i - 1] = down
        G[i, i] = -(up + down)
    theta = float(np.max(-np.diag(G)))
    return uniformize(Generator(G), theta)


def ou_discretized(n: int, half_width: float = 3.0, sigma: float = 1.0) -> SubStochasticKernel:
    """Mean-reverting diffusion on [-L, L], killed outside, discretized by
    upwind finite differences and embedded at the uniformization clock.

    Killing happens only through the two boundary cells, so refining the
    grid weakens the uniform return property: a stress model only; no
    fidelity to the continuum is claimed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if half_width <= 0 or sigma <= 0:
        raise ValueError("half_width and sigma must be positive")
    h = 2.0 * half_width / (n + 1)
    xs = -half_width + h * (1.0 + np.arange(n))
    D = 0.5 * sigma * sigma
    G = np.zeros((n, n))
    for j in range(n):
        drift = -xs[j]
        up = D / h**2 + max(drift, 0.0) / h
        down = D / h**2 + max(-drift, 0.0) / h
        if j + 1 < n:
            G[j, j + 1] = up
        if j >= 1:
            G[j, j - 1] = down
        G[j, j] = -(up + down)
    theta = float(np.max(-np.diag(G)))
    return uniformize(Generator(G), theta)


_BUILDERS = {
    "birth_death": birth_death,
    "logistic_bd": logistic_bd,
    "random_substochastic": random_substochastic,
    "linear_bd_truncated": linear_bd_truncated,
    "ou_discretized": ou_discretized,
    "w3": w3,
    "t3": t3,
}
KINDS = tuple(_BUILDERS)

# The keyword parameters of each kind (``params.<name>`` in a model config).
_PARAMETERS = {kind: tuple(p for p in inspect.signature(fn).parameters if p not in ("n", "seed"))
               for kind, fn in _BUILDERS.items()}


def parameter_error(kind: str, name: str) -> str:
    """Why ``name`` is not a parameter of ``kind``, or "" when it is."""
    if name in _PARAMETERS[kind]:
        return ""
    known = ", ".join(f"params.{p}" for p in _PARAMETERS[kind]) or "none"
    return f"params.{name} is not a parameter of {kind} (known: {known})"


def build(spec: ModelSpec) -> SubStochasticKernel:
    """Construct the kernel a :class:`ModelSpec` describes."""
    if spec.kind not in KINDS:
        raise ValueError(f"unknown model kind {spec.kind!r}; known: {', '.join(KINDS)}")
    for name in spec.params:
        problem = parameter_error(spec.kind, name)
        if problem:
            raise ValueError(problem)
    builder = _BUILDERS[spec.kind]
    if spec.kind in ("w3", "t3"):
        return builder()
    if spec.kind == "random_substochastic":
        if spec.seed is None:
            raise ValueError("random_substochastic needs a seed")
        return builder(spec.n, spec.seed, **spec.params)
    return builder(spec.n, **spec.params)
