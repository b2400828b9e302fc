"""Independent oracle for the benchmark's output checks.

Plain numpy, no qsd code: dense ``np.linalg.eig`` Perron pairs instead of
power iteration, and direct powers of ``K / rho`` instead of stepwise
renormalized (or extended-precision) propagation.  Every quantity a qsd
subcommand reports is recomputed here from its definition.  All
computations are in float64, so the report checks compare only values of
at least 1e-6, where float64 powers are accurate to many digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Perron:
    """Dense eigen data of a killed kernel.

    alpha sums to 1, eta is scaled so alpha . eta = 1, beta = alpha * eta.
    ``lam2`` is the second largest eigenvalue modulus (0 for one state) and
    ``cond`` the eigenvalue condition number |alpha| |eta| / (alpha . eta).
    """

    alpha: np.ndarray
    rho: float
    eta: np.ndarray
    beta: np.ndarray
    lam2: float
    cond: float

    @property
    def gap(self) -> float:
        return self.rho - self.lam2

    @property
    def rate(self) -> float:
        """Exponential rate ln(rho / |lambda2|) of every conditioned decay."""
        return math.log(self.rho / self.lam2) if self.lam2 > 0 else math.inf


def _perron_vector(M: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    w, V = np.linalg.eig(M)
    k = int(np.argmax(w.real))
    v = np.abs(V[:, k].real)
    return float(w[k].real), v, np.sort(np.abs(w))[::-1]


def perron(K: np.ndarray) -> Perron:
    rho, eta, mods = _perron_vector(K)
    _, alpha, _ = _perron_vector(K.T)
    alpha = alpha / alpha.sum()
    eta = eta / float(alpha @ eta)
    lam2 = float(mods[1]) if len(mods) > 1 else 0.0
    cond = float(np.linalg.norm(alpha) * np.linalg.norm(eta))
    return Perron(alpha=alpha, rho=rho, eta=eta, beta=alpha * eta, lam2=lam2, cond=cond)


class Powers:
    """Direct powers M^t of M = K / rho, computed once per kernel.

    Dividing by rho keeps every power of order one, so horizons of a few
    hundred steps neither underflow nor lose relative accuracy.
    """

    def __init__(self, K: np.ndarray, P: Perron, t_max: int):
        M = K / P.rho
        self.P = P
        self.mats = [np.eye(K.shape[0])]
        for _ in range(t_max):
            self.mats.append(self.mats[-1] @ M)
        self.surv = [m.sum(axis=1) for m in self.mats]  # (K^t 1) / rho^t

    def conditioned(self, t: int) -> np.ndarray:
        """Row x: law of X_t given X_0 = x and survival to t."""
        m = self.mats[t]
        return m / m.sum(axis=1, keepdims=True)

    def bridge(self, t: int, T: int) -> np.ndarray:
        """Row x: law of X_t given X_0 = x and survival past T."""
        w = self.mats[t] * self.surv[T - t][None, :]
        return w / w.sum(axis=1, keepdims=True)

    def q_power(self, t: int) -> np.ndarray:
        """t-step kernel of the h-transform Q(x,y) = K(x,y) eta(y) / (rho eta(x))."""
        eta = self.P.eta
        return self.mats[t] * eta[None, :] / eta[:, None]

    def eta_defect(self, t: int) -> float:
        """sup_x |eta_t(x) - eta(x)| / eta_t(x) with eta_t = K^t 1 / rho^t."""
        s = self.surv[t]
        return float(np.max(np.abs(s - self.P.eta) / s))

    def qproc_gap(self, t: int, T: int) -> float:
        """sup_x TV(bridge law at (t, T), conditioned-forever law at t)."""
        return float(0.5 * np.abs(self.bridge(t, T) - self.q_power(t)).sum(axis=1).max())

    def q_mixing(self, t: int) -> float:
        """sup_x TV(Q^t(x, .), beta)."""
        return float(0.5 * np.abs(self.q_power(t) - self.P.beta[None, :]).sum(axis=1).max())

    def survival(self, x: int, T: int) -> float:
        """P_x(alive at T) = (K^T 1)(x)."""
        return float(self.surv[T][x] * self.P.rho**T)

    def time_average_error(self, f: np.ndarray, T: int) -> float:
        """sup_x |E_x((1/T) sum_{t<T} f(X_t) | alive at T) - beta(f)|."""
        num = sum(self.mats[t] @ (f * self.surv[T - t]) for t in range(T))
        means = num / (T * self.surv[T])
        return float(np.max(np.abs(means - self.P.beta @ f)))


def max_pair_tv(rows: np.ndarray) -> float:
    """Largest TV distance between two rows of a row-stochastic matrix."""
    n = rows.shape[0]
    worst = 0.0
    for i in range(n - 1):
        worst = max(worst, float(0.5 * np.abs(rows[i + 1:] - rows[i]).sum(axis=1).max()))
    return worst


def self_check() -> None:
    """Check the oracle against closed forms before trusting it.

    t3 = [[0.4, 0.3], [0.3, 0.4]] has constant row sums 0.7 and eigenvalues
    0.7 and 0.1: rho = 0.7, alpha uniform, and Q-mixing at rate ln 7.  On a
    one-state kernel eta_t = eta for every t, so the constant a1 is 0.
    """
    t3 = np.array([[0.4, 0.3], [0.3, 0.4]])
    P = perron(t3)
    pw = Powers(t3, P, 8)
    mixing = [(t, pw.q_mixing(t)) for t in range(1, 9)]
    slope = -np.polyfit([t for t, _ in mixing], [math.log(v) for _, v in mixing], 1)[0]
    problems = []
    if abs(P.rho - 0.7) > 1e-14:
        problems.append(f"t3 rho {P.rho!r} != 0.7")
    if np.max(np.abs(P.alpha - 0.5)) > 1e-14:
        problems.append(f"t3 alpha {P.alpha!r} not uniform")
    if abs(P.rate - math.log(7.0)) > 1e-12 or abs(slope - math.log(7.0)) > 1e-6:
        problems.append(f"t3 mixing rate {P.rate!r} / fitted {slope!r} != ln 7")
    one = np.array([[0.5]])
    pw1 = Powers(one, perron(one), 50)
    if max(pw1.eta_defect(t) for t in range(1, 51)) != 0.0:
        problems.append("one-state kernel has a nonzero eta defect (a1 != 0)")
    if problems:
        raise RuntimeError("oracle self-check failed: " + "; ".join(problems))
