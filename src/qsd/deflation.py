"""Perron-deflated propagation in double precision.

A primitive killed kernel splits as ``K^t = rho^t eta (x) alpha + R^t`` with
``alpha R = 0`` and ``R eta = 0``.  Every quantity the bound reports measure
is a deviation living wholly in ``R^t``, and computing it as the difference
of two nearly equal propagated laws loses all of its digits once it falls
below double-precision resolution.  This module carries the deviations
themselves:

* the rows ``D_t[x] = delta_x K^t / (rho^t eta(x)) - alpha``, started at
  ``D_0 = diag(1/eta) - 1 (x) alpha``;
* the survival deviation ``e_t = K^t 1 / rho^t - eta``, started at
  ``e_0 = 1 - eta``.

Each step multiplies by ``K/rho``, projects off the Perron direction
(``D <- D - (D eta) (x) alpha``, ``e <- e - (alpha . e) eta``) and moves the
binary exponent of the largest entry into a carried integer scale, so no
step cancels and no value underflows.  An all-zero deviation stays exactly
zero.  Every observable is closed-form in ``D_t`` and ``e_t`` and is
returned as its natural logarithm (``-inf`` for an exact zero), so grids
far past ``e^-700`` stay representable; a plan's signed per-state
deviation is returned with its binary scale as a :class:`Deviation`.

Observables take one step or a stack of consecutive steps (a
:class:`Deviation` whose ``hat`` has a leading step axis and whose ``exp``
is an integer array, one exponent per step).  :meth:`Deflation.blocks`
walks D_t once and stacks the steps a caller asks for in chunks of at most
:data:`CHUNK_BYTES` (never less than one step), so the per-step work of
the series, the bridge gaps and the pair suprema is a few numpy calls per
chunk, not per step.  A stack's values are bit for bit those of its steps
taken one at a time: every reduction runs along the contiguous last axis,
the bridge gaps of a step take one matrix-vector product per lag, and each
log is one ``math.log`` of one scalar.

A command builds one :class:`Deflation` and hands it to every report, so
the triple is refined once.  :meth:`Deflation.series` keeps its longest
walk, so reports that read shorter series share one walk of D_t and e_t,
and the core keeps its longest survival walk the same way.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .kernels import _eigen_residual, _max_pair_tv, _shifted_solve

__all__ = ["Deflation", "Deviation"]

LN2 = math.log(2.0)

#: Bytes one stack of n x n blocks may take: series steps, bridge-gap lags
#: and decay-curve points are batched up to this, never below one step.
CHUNK_BYTES = 2**20


def _chunk(n: int) -> int:
    """Steps (or lags) per stack of n x n float64 blocks."""
    return max(1, CHUNK_BYTES // (8 * n * n))


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


@dataclass(frozen=True)
class Deviation:
    """The array ``hat * 2**exp``; propagated ones have ``max |hat|`` in [1/2, 1) or 0.

    A stack of steps carries an integer array ``exp``, one exponent per
    index of ``hat``'s leading axis.
    """

    exp: int | np.ndarray
    hat: np.ndarray

    @property
    def value(self) -> np.ndarray:
        """The deviation itself (entries below ~1e-308 underflow to 0)."""
        if isinstance(self.exp, int):
            return np.ldexp(self.hat, self.exp)
        return _ldexp(self.hat, self.exp.reshape(self.exp.shape + (1,) * (self.hat.ndim - 1)))


def _ldexp(x: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """``x * 2**exp`` for an integer array ``exp`` that broadcasts against x.

    numpy's ldexp is fast only for C-int exponents; an exponent past their
    range gives the 0 or inf it gives at the end of the range.
    """
    return np.ldexp(x, np.clip(exp, -2**31, 2**31 - 1).astype(np.intc))


def _per_step(ndim: int):
    """Let an observable of a stack of steps (a list of values) also take one
    step, whose ``hat`` has ``ndim`` axes, and return its one value."""
    def wrap(observable):
        @functools.wraps(observable)
        def either(self, d: Deviation):
            if d.hat.ndim == ndim:
                return observable(self, Deviation(np.array([d.exp]), d.hat[None]))[0]
            return observable(self, d)
        return either
    return wrap


def _rescaled(v: np.ndarray, exp: int) -> Deviation:
    top = float(np.max(np.abs(v)))
    if top == 0.0:  # an exact zero stays exactly zero
        return Deviation(exp, v)
    k = math.frexp(top)[1]
    return Deviation(exp + k, np.ldexp(v, -k))


def _logs(worst: np.ndarray, exps: np.ndarray) -> list[float]:
    """ln(worst * 2**exp) per step, one ``math.log`` per scalar."""
    return [_log(w) + e * LN2 for w, e in zip(worst.tolist(), exps.tolist())]


def _log_half_l1(exps: np.ndarray, rows: np.ndarray) -> list[float]:
    """Per step, ln of the largest half-L1 norm among the rows of ``rows * 2**exp``."""
    return _logs(0.5 * np.abs(rows).sum(axis=-1).max(axis=-1), exps)


def _refine_triple(K: np.ndarray, triple):
    """(alpha, rho, eta) refined by up to three steps of inverse iteration
    with a Rayleigh shift.

    Starts from ``triple`` and keeps a step only while it lowers the
    eigen-residual, so a triple that is already exact (residual 0) is
    returned bit for bit.  alpha sums to 1 and alpha . eta = 1.
    """
    alpha, rho, eta = triple.alpha, float(triple.rho), triple.eta
    best = _eigen_residual(alpha, alpha @ K, eta, K @ eta, rho)
    for _ in range(3):
        if best == 0.0:
            break
        try:
            a, h = _shifted_solve(K, rho, alpha, eta)
        except np.linalg.LinAlgError:  # the shift is an exact eigenvalue
            break
        a = a / a.sum()
        h = h / (a @ h)
        aK = a @ K
        r = float(aK @ h)
        res = _eigen_residual(a, aK, h, K @ h, r)
        if not res < best:
            break
        alpha, rho, eta, best = a, r, h, res
    return alpha, rho, eta


class Deflation:
    """Deviation propagation and observables for one kernel.

    The one object a command builds after the Perron solve: every deflated
    report and rate fit takes it.  ``triple`` is refined once by inverse
    iteration; ``alpha``, ``rho``, ``eta`` and ``beta = alpha * eta`` below
    are the refined values, and ``kernel`` and ``triple`` are kept as given.
    """

    def __init__(self, K, triple):
        self.kernel, self.triple = K, triple
        self.alpha, self.rho, self.eta = _refine_triple(K.entries, triple)
        self.beta = self.alpha * self.eta
        self.step = K.entries / self.rho
        self._series = ([], [], [])
        self._surv = Deviation(np.zeros(0, dtype=np.int64), np.zeros((0, len(self.eta))))

    # -- propagation ---------------------------------------------------------
    def _project_rows(self, D: np.ndarray, exp: int) -> Deviation:
        return _rescaled(D - np.outer(D @ self.eta, self.alpha), exp)

    def _project_survival(self, e: np.ndarray, exp: int) -> Deviation:
        return _rescaled(e - (self.alpha @ e) * self.eta, exp)

    def rows(self, t_max: int):
        """Yield D_0 .. D_{t_max}."""
        D = self._project_rows(np.diag(1.0 / self.eta) - self.alpha[None, :], 0)
        yield D
        for _ in range(t_max):
            D = self._project_rows(D.hat @ self.step, D.exp)
            yield D

    def survival(self, t_max: int):
        """Yield e_0 .. e_{t_max}."""
        e = self._project_survival(1.0 - self.eta, 0)
        yield e
        for _ in range(t_max):
            e = self._project_survival(self.step @ e.hat, e.exp)
            yield e

    def blocks(self, steps):
        """Yield (ts, D): the steps ``steps`` of one walk of D_t, in increasing
        order, stacked ``len(ts)`` at a time.

        A stack holds at most :data:`CHUNK_BYTES` of rows, and never less
        than one step; the walk stops at the last step asked for.
        """
        steps = sorted(steps)
        size = _chunk(len(self.eta))
        walk = enumerate(self.rows(steps[-1] if steps else -1))
        for i in range(0, len(steps), size):
            ts = steps[i:i + size]
            exp = np.empty(len(ts), dtype=np.int64)
            hat = np.empty((len(ts),) + self.step.shape)
            for k, t in enumerate(ts):
                for s, D in walk:
                    if s == t:
                        break
                exp[k], hat[k] = D.exp, D.hat
            yield ts, Deviation(exp, hat)

    def survivals(self, t_max: int) -> Deviation:
        """e_0 .. e_{t_max}, stacked.  The core keeps the longest survival walk
        it has made, so a shorter request is a slice of it."""
        if len(self._surv.hat) <= t_max:
            walked = list(self.survival(t_max))
            self._surv = Deviation(np.array([e.exp for e in walked]),
                                   np.array([e.hat for e in walked]))
        return Deviation(self._surv.exp[:t_max + 1], self._surv.hat[:t_max + 1])

    def series(self, t_max: int) -> tuple[list, list, list]:
        """ln :meth:`conditioned_tv`, ln :meth:`q_tv` and ln :meth:`eta_defect`
        for t = 0 .. t_max, from one walk of D_t and e_t.

        The core keeps the longest series it has walked, so a shorter
        request is a slice of it.
        """
        if len(self._series[0]) <= t_max:
            tvs, q_tvs = [], []
            for _, D in self.blocks(range(t_max + 1)):
                tvs += self.conditioned_tv(D)
                q_tvs += self.q_tv(D)
            self._series = (tvs, q_tvs, self.eta_defect(self.survivals(t_max)))
        return tuple(s[:t_max + 1] for s in self._series)

    # -- observables (natural logs) ------------------------------------------
    # Each takes one step and returns a float, or a stack of steps and
    # returns a list.
    @np.errstate(divide="ignore", invalid="ignore")  # a zero mass gives inf or nan
    def _conditioned(self, D: Deviation) -> np.ndarray:
        """Row x: (law of X_t | X_0 = x, survival to t) - alpha, over 2**D.exp.

        The law is (alpha + d)/(1 + d . 1), so its gap to alpha is
        (d - alpha (d . 1)) / (1 + d . 1).
        """
        mass = 1.0 + D.value.sum(axis=-1)
        return (D.hat - D.hat.sum(axis=-1)[..., None] * self.alpha) / mass[..., None]

    @_per_step(2)
    def conditioned_tv(self, D: Deviation):
        """ln sup_x TV(law of X_t | survival, alpha)."""
        return _log_half_l1(D.exp, self._conditioned(D))

    @_per_step(2)
    def conditioned_pair_tv(self, D: Deviation):
        """ln sup_{x,y} TV between the conditioned laws from x and from y."""
        return _logs(_max_pair_tv(self._conditioned(D)), D.exp)

    @_per_step(2)
    def q_tv(self, D: Deviation):
        """ln sup_x TV(Q^t(x, .), beta); Q^t(x, .) - beta = D_t[x] * eta."""
        return _log_half_l1(D.exp, D.hat * self.eta)

    @_per_step(1)
    @np.errstate(divide="ignore")  # where eta_t underflowed to 0 the defect is inf
    def eta_defect(self, e: Deviation):
        """ln sup_x |eta_t(x) - eta(x)| / eta_t(x), with eta_t = eta + e_t."""
        return _logs(np.max(np.abs(e.hat) / (self.eta + e.value), axis=-1), e.exp)

    @np.errstate(divide="ignore", invalid="ignore")  # a zero mass gives inf or nan
    def _gap_block(self, Dv: np.ndarray, P: np.ndarray, E: Deviation) -> list[float]:
        """ln :meth:`bridge_gap` of one step's rows ``Dv`` = D_t, with
        ``P = alpha + Dv``, against each e_lag of the stack ``E``: one
        matrix-vector product per lag (a matrix-matrix product's columns
        move in the last bits with their count)."""
        r = np.matmul(Dv, E.hat[:, :, None])[..., 0]
        gap = P * E.hat[:, None, :]
        cross = r[..., None] * P
        cross *= self.eta
        gap -= cross
        del cross
        gap /= (1.0 + _ldexp(r, E.exp[:, None]))[..., None]
        return _log_half_l1(E.exp, gap)

    def bridge_gap(self, D: Deviation, e: Deviation) -> float:
        """ln sup_x TV(law of X_t | survival past t + lag, Q^t(x, .)).

        With d = D_t[x] and e = e_lag the bridge law minus Q^t(x, .) is
        [(alpha + d) e - (d . e)(alpha + d) eta] / (1 + d . e).
        At t = 0 both laws are the point mass at x and this formula returns
        rounding noise in place of the exact 0.
        """
        Dv = D.value
        return self._gap_block(Dv, self.alpha + Dv, Deviation(np.array([e.exp]), e.hat[None]))[0]

    def bridge_gaps(self, pairs) -> dict:
        """:meth:`bridge_gap` per (t, T) pair, keyed by the pair, from one walk
        of D_t.

        The gaps of all lags at one t are batched, :data:`CHUNK_BYTES` of
        n x n blocks at a time, against the core's survival walk.  At t = 0
        both laws are the point mass at the start, so those pairs are
        exactly 0 (-inf).
        """
        by_t = defaultdict(list)
        for t, T in pairs:
            by_t[t].append(T - t)
        surv = self.survivals(max((T - t for t, T in pairs), default=0))
        size = _chunk(len(self.eta))
        out = {(0, T): -math.inf for T in by_t.pop(0, ())}  # at t = 0 the lag is T
        for ts, D in self.blocks(by_t):
            for k, t in enumerate(ts):
                lags = by_t[t]
                Dv = np.ldexp(D.hat[k], int(D.exp[k]))
                P = self.alpha + Dv
                for i in range(0, len(lags), size):
                    chunk = np.array(lags[i:i + size])
                    logs = self._gap_block(Dv, P, Deviation(surv.exp[chunk], surv.hat[chunk]))
                    out.update(((t, t + lag), v) for lag, v in zip(chunk.tolist(), logs))
        return out

    def _dots(self, V: np.ndarray) -> np.ndarray:
        """alpha . v for each row v of ``V``, one dot product per row, so a
        row's value does not depend on the rows stacked with it."""
        return np.matmul(V[:, None, :], self.alpha)[:, 0]

    def plan_deviations(self, f: np.ndarray, plans) -> list[Deviation]:
        """Per plan, E_x(f against plan | survival past plan.T) - beta(f) for
        every start state x, signed.

        Since D_t = diag(1/eta) R^t, with R = proj(K/rho), and
        1 + D_t[x] . e_(T-t) = 1 + e_T(x)/eta(x) for every t, a plan's
        deviation for all start states at once is
        (h/eta + sum_t w_t alpha . (e_(T-t) f)) / (1 + e_T/eta), where
        h = sum_t w_t R^t proj(g_(T-t)) and g_lag = eta f + e_lag (f - beta(f)).
        h comes from the Horner recursion h <- proj((K/rho) h) + w_t proj(g_(T-t)),
        run from the plan's last atom down to t = 0: O(n^2) per step, with
        only the survival deviations e_0 .. e_T listed.  Every plan runs in
        one descending step loop, one matrix-vector product per plan
        (batched), and h and the constant carry binary exponents, so a
        plan's value does not depend on which plans share the loop and
        deviations far below 1e-308 keep their digits.  Both laws have mass
        1, so f is first shifted by its midrange, which leaves the deviation
        unchanged and keeps it exactly 0 for a constant f.
        """
        plans = list(plans)
        f = f - 0.5 * (f.max() + f.min())
        beta_f = float(self.beta @ f)
        merged = []  # per plan, {t: weight} with repeated times merged
        for plan in plans:
            at = {}
            for t, w in plan.atoms:
                at[t] = at.get(t, 0.0) + w
            merged.append(at)
        surv = list(self.survival(max(plan.T for plan in plans)))
        e_hat, e_exp = np.array([e.hat for e in surv]), np.array([e.exp for e in surv])
        # proj(g_lag) for every lag: the e_lag part only matters where it is
        # representable next to eta f, so it enters at its plain value
        g = self.eta * f + np.ldexp(e_hat, e_exp[:, None]) * (f - beta_f)
        g -= self._dots(g)[:, None] * self.eta
        alpha_e_f = self._dots(e_hat * f)

        # exponent of an exact zero: below any scale a nonzero term brings
        zero_exp = np.iinfo(np.int32).min
        m, n = len(merged), len(self.eta)
        ends = [max(at) for at in merged]
        order = sorted(range(m), key=lambda i: -ends[i])  # the plans active at t: a prefix
        last = [ends[i] for i in order]
        at_t = defaultdict(list)  # t -> [(position in order, weight, lag)]
        const = []  # per position: (hat, exp) of sum_t w alpha . (e_(T-t) f)
        for pos, i in enumerate(order):
            ts = np.fromiter(merged[i], dtype=np.int64)
            ws = np.fromiter(merged[i].values(), dtype=float)
            lags = plans[i].T - ts
            for t, w, lag in zip(ts.tolist(), ws.tolist(), lags.tolist()):
                at_t[t].append((pos, w, lag))
            vals, exps = ws * alpha_e_f[lags], e_exp[lags]
            k = int(exps[vals != 0.0].max(initial=zero_exp))
            const.append((float(np.ldexp(vals, exps - k).sum()), k))

        hat = np.zeros((m, n))
        exp = np.full(m, zero_exp, dtype=np.int64)
        k = 0  # plans whose last atom is at t or later
        for t in range(last[0], -1, -1):
            while k < m and last[k] >= t:
                k += 1
            H = np.matmul(self.step, hat[:k, :, None])[..., 0]
            H -= self._dots(H)[:, None] * self.eta
            if t in at_t:
                pos, w, lags = (np.array(v) for v in zip(*at_t[t]))
                H[pos] = np.ldexp(H[pos], exp[pos, None]) + w[:, None] * g[lags]
                exp[pos] = 0
            scale = np.frexp(np.abs(H).max(axis=1))[1]
            hat[:k] = np.ldexp(H, -scale[:, None])
            exp[:k] += scale

        out = [None] * m
        for pos, i in enumerate(order):
            c_hat, c_exp = const[pos]
            k = max(int(exp[pos]), c_exp)
            e_T = surv[plans[i].T]
            with np.errstate(divide="ignore", invalid="ignore"):  # inf or nan where eta is 0
                num = np.ldexp(hat[pos] / self.eta, int(exp[pos]) - k) + math.ldexp(c_hat, c_exp - k)
                out[i] = Deviation(k, num / (1.0 + e_T.value / self.eta))
        return out

    def plan_errors(self, f: np.ndarray, plans) -> list[tuple[float, float]]:
        """(sup_x |E_x(f against plan | survival past plan.T) - beta(f)|, its
        ln) per plan, from :meth:`plan_deviations`.

        The sup is read off the deviation without a round trip through its
        log; below ~1e-308 it underflows to 0 while the ln stays finite.
        """
        out = []
        for d in self.plan_deviations(f, plans):
            top = float(np.max(np.abs(d.hat)))
            out.append((math.ldexp(top, d.exp), _log(top) + d.exp * LN2))
        return out
