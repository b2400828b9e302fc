"""Spans and counters around qsd's public functions, from outside qsd.

``Tracer.install`` replaces each traced function at every module attribute
of the ``qsd`` package that refers to it (so ``from .kernels import
bridge_marginals`` in ``converse`` is traced as well as ``kernels.
bridge_marginals``), and ``SubStochasticKernel.__init__`` on the class.
``uninstall`` puts the originals back.  Spans record name, start, end and
parent span; a generator's span also records ``busy_s``, the time spent
inside it, because the caller's own work runs between its steps.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

# module -> traced functions; the span and metric name is "<module>.<function>".
TRACED = {
    "cli": ["cmd_spectral", "cmd_verify", "cmd_converse", "cmd_ergodic", "cmd_estimate",
            "cmd_sweep"],
    "kernels": ["read_kernel", "bridge_marginals"],
    "spectral": ["compute_spectral", "conditioned_tv_rate"],
    "qprocess": ["verify_eta_bound", "verify_qproc_approx", "q_mixing_report", "fitted_rates"],
    "xprec": ["power_pair", "conditioned_rows", "stochastic_rows", "survival_vectors"],
    "ergodic": ["verify_ergodic_theorem", "conditional_functional"],
    "estimator": ["simulate", "estimate_beta"],
    "rng": ["counter_uniforms"],
    "converse": ["certify_converse", "dobrushin_coeff"],
    "models": ["build"],
}
PROPAGATE = ("xprec.conditioned_rows", "xprec.stochastic_rows", "xprec.survival_vectors")

# (metric, unit, better) of the traced run, in BENCHMARK.json order.
PER_LAYER = [(f"cli.{c[4:]}_s", "s", "lower") for c in TRACED["cli"]] + [
    ("cli.output_bytes", "bytes", "lower"),
    ("kernels.read_kernel_s", "s", "lower"),
    ("kernels.input_bytes", "bytes", "lower"),
    ("kernels.construct_s", "s", "lower"),
    ("kernels.bridge_marginals_s", "s", "lower"),
    ("kernels.bridge_marginals_calls", "count", "lower"),
    ("spectral.compute_spectral_s", "s", "lower"),
    ("spectral.compute_spectral_calls", "count", "lower"),
    ("spectral.conditioned_tv_rate_s", "s", "lower"),
    ("qprocess.verify_eta_bound_s", "s", "lower"),
    ("qprocess.verify_qproc_approx_s", "s", "lower"),
    ("qprocess.q_mixing_report_s", "s", "lower"),
    ("qprocess.fitted_rates_s", "s", "lower"),
    ("qprocess.dps_max", "digits", "lower"),
    ("xprec.power_pair_s", "s", "lower"),
    ("xprec.power_pair_calls", "count", "lower"),
    ("xprec.propagate_s", "s", "lower"),
    ("ergodic.verify_ergodic_theorem_s", "s", "lower"),
    ("ergodic.conditional_functional_s", "s", "lower"),
    ("ergodic.conditional_functional_calls", "count", "lower"),
    ("estimator.simulate_s", "s", "lower"),
    ("estimator.estimate_beta_s", "s", "lower"),
    ("estimator.trajectory_steps", "count", "lower"),
    ("estimator.steps_per_s", "1/s", "higher"),
    ("estimator.paths_mib", "MiB", "lower"),
    ("rng.counter_uniforms_s", "s", "lower"),
    ("rng.uniforms_drawn", "count", "lower"),
    ("converse.certify_converse_s", "s", "lower"),
    ("converse.dobrushin_coeff_s", "s", "lower"),
    ("converse.dobrushin_calls", "count", "lower"),
    ("models.build_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """In-memory spans and counters for one traced set-up plus pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.totals: dict[str, float] = defaultdict(float)  # outermost inclusive time per span name
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------
    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if all(s["name"] != span["name"] for s in self._stack):
            self.totals[span["name"]] += span["end"] - span["start"]

    def _wrap(self, name: str, fn, observe):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                span = self._open(name)
                span["busy_s"] = 0.0
                it = fn(*args, **kwargs)
                try:
                    while True:
                        t = time.perf_counter()
                        try:
                            item = next(it)
                        finally:
                            span["busy_s"] += time.perf_counter() - t
                        yield item
                except StopIteration:
                    pass
                finally:
                    span["end"] = time.perf_counter()
                    self.totals[name] += span["busy_s"]
            return gen_wrapper

        params = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self._close(span)
            self.counts[name] += 1
            if observe is not None:
                observe(self.counts, params.bind(*args, **kwargs).arguments, result)
            return result
        return wrapper

    # -- installation -----------------------------------------------------------
    def install(self, qsd) -> None:
        """Wrap every traced function of the imported ``qsd`` package."""
        mods = [qsd] + [getattr(qsd, m) for m in TRACED if hasattr(qsd, m)]
        for mod_name, fns in TRACED.items():
            for fn_name in fns:
                orig = getattr(getattr(qsd, mod_name, None), fn_name, None)
                if orig is None:  # a layer a later version dropped reads 0
                    continue
                wrapped = self._wrap(f"{mod_name}.{fn_name}", orig, _OBSERVE.get(fn_name))
                for m in mods:
                    for attr, value in vars(m).items():
                        if value is orig:
                            self._restore.append((m, attr, orig))
                            setattr(m, attr, wrapped)
        cls = qsd.kernels.SubStochasticKernel
        self._restore.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap("kernels.construct", cls.__init__, None)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    # -- metrics ----------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced (all zero for unused layers)."""
        out = {name: 0.0 for name, _, _ in PER_LAYER}
        for name, total in self.totals.items():
            if name in PROPAGATE:
                out["xprec.propagate_s"] += total
            elif name.startswith("cli.cmd_"):
                out[f"cli.{name[8:]}_s"] = total
            else:
                out[f"{name}_s"] = total
        for key, name in (("kernels.bridge_marginals_calls", "kernels.bridge_marginals"),
                          ("spectral.compute_spectral_calls", "spectral.compute_spectral"),
                          ("xprec.power_pair_calls", "xprec.power_pair"),
                          ("ergodic.conditional_functional_calls", "ergodic.conditional_functional"),
                          ("converse.dobrushin_calls", "converse.dobrushin_coeff")):
            out[key] = self.counts[name]
        for key in ("cli.output_bytes", "kernels.input_bytes", "estimator.trajectory_steps",
                    "rng.uniforms_drawn", "qprocess.dps_max", "estimator.paths_mib"):
            out[key] = self.counts[key]
        if out["estimator.simulate_s"] > 0:
            out["estimator.steps_per_s"] = out["estimator.trajectory_steps"] / out["estimator.simulate_s"]
        return out


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


# observers: (counters, call arguments by name, return value)
def _cli(counts, args, result):
    counts["cli.output_bytes"] += _dir_bytes(args["args"].out)


def _read_kernel(counts, args, result):
    counts["kernels.input_bytes"] += os.path.getsize(args["path"])


def _report(counts, args, result):
    dps = getattr(result, "details", {}).get("dps", 0)
    counts["qprocess.dps_max"] = max(counts["qprocess.dps_max"], dps)


def _simulate(counts, args, result):
    counts["estimator.trajectory_steps"] += args["N"] * args["T"]
    paths = getattr(result, "paths", None)
    if paths is not None:
        counts["estimator.paths_mib"] = max(counts["estimator.paths_mib"], paths.nbytes / 2**20)


def _uniforms(counts, args, result):
    counts["rng.uniforms_drawn"] += result.size


_OBSERVE = {
    **{c: _cli for c in TRACED["cli"]},
    "read_kernel": _read_kernel,
    "verify_eta_bound": _report,
    "verify_qproc_approx": _report,
    "q_mixing_report": _report,
    "simulate": _simulate,
    "counter_uniforms": _uniforms,
}
