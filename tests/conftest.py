import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qsd import estimator, models
from qsd.spectral import compute_spectral

# the 20 seeded random kernels (n <= 8) used by the acceptance criteria
RANDOM_KERNEL_SPECS = [(2 + k % 7, 1000 + k) for k in range(20)]


@pytest.fixture(autouse=True)
def at_most_two_workers(monkeypatch):
    """No test starts more than two worker processes, whatever the host's CPUs."""
    usable = estimator._usable_cpus
    monkeypatch.setattr(estimator, "_usable_cpus", lambda: min(2, usable()))


@pytest.fixture(scope="session")
def w3():
    return models.w3()


@pytest.fixture(scope="session")
def t3():
    return models.t3()


@pytest.fixture(scope="session")
def single():
    return models.birth_death(1, death=0.5)


@pytest.fixture(scope="session")
def w3_triple(w3):
    return compute_spectral(w3, tol=1e-13)


@pytest.fixture(scope="session")
def t3_triple(t3):
    return compute_spectral(t3, tol=1e-13)


@pytest.fixture(scope="session")
def random_kernels():
    return [
        models.random_substochastic(n, seed) for n, seed in RANDOM_KERNEL_SPECS
    ]


def delta(n, x):
    v = np.zeros(n)
    v[x] = 1.0
    return v
