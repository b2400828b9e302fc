"""The benchmark's four workloads: their kernels, operations and checks.

The workload seed reaches the program only through the kernel files and
the arguments written here.  It relabels the states of every kernel (a
seeded permutation of a dense kernel, a seeded reversal of a banded one,
which keeps it banded) and seeds every Monte Carlo run.  The spectra and
the model seeds stay fixed: on ``random_substochastic`` n=8 the cost of
``qsd verify`` ranges from 4.4 s to 6.9 s over model seeds 0..5 (on the
2-core reference machine of README.md), so a seeded spectrum would
measure the seed, not the program.
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from oracle import Powers, perron

# name -> kernels: (label, kind, n, model seed, params, relabelling, oracle horizon)
KERNELS = {
    "certify": [
        ("w3", "w3", 0, None, {}, "permute", 200),
        ("rs8", "random_substochastic", 8, 3, {}, "permute", 200),
    ],
    "montecarlo": [
        ("w3", "w3", 0, None, {}, "permute", 32),
        ("rs64", "random_substochastic", 64, 5, {}, "permute", 32),
    ],
    "near-critical": [
        ("ou200", "ou_discretized", 200, None, {}, "reverse", 0),
        ("lbd60", "linear_bd_truncated", 60, None, {}, "reverse", 0),
        # birth_step < 0.4 / 99, or births vanish below the top state
        ("log100", "logistic_bd", 100, None, {"birth_step": 0.003}, "reverse", 0),
    ],
    "wide": [
        ("rs500", "random_substochastic", 500, 7, {}, "permute", 10),
    ],
}
WORKLOADS = list(KERNELS)

CERTIFY_T_GRID = "10:200:10"
WIDE_T_GRID = "2:10:2"
MC_N = 1_000_000
SWEEP_N_LIST = "100,1000,10000,100000,1000000"
SWEEP_REPS = 8
# The direct library call: simulate + estimate_beta at a fixed horizon.
# At t0 = 1 the conditioned law still moves from step to step, so an
# off-by-one in the observation time shows; 8 chunks keep simulate's
# per-step N x n temporaries near 64 MB.
LIB_T, LIB_T0, LIB_CHUNKS = 10, 1, 8


@dataclass
class Kernel:
    """A relabelled kernel as written for the program."""

    path: str
    entries: np.ndarray
    f: np.ndarray  # test function (x mod 3) / 2 of the original labels
    x0: int  # new label of original state 0
    horizon: int

    @property
    def f_arg(self) -> str:
        return ",".join(repr(float(v)) for v in self.f)


class Oracles(dict):
    """Oracle of each kernel label, computed on first use.

    Every set-up of a run writes the same kernels, so a run keeps one of
    these across its rounds.  Were a set-up to write other entries, the
    checks against the first round's oracle would catch it.
    """

    def of(self, label: str, k: Kernel) -> Powers:
        if label not in self:
            self[label] = Powers(k.entries, perron(k.entries), k.horizon)
        return self[label]


@dataclass
class Op:
    """One operation: ``run`` is timed; ``check`` returns a list of problems."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _relabelling(how: str, n: int, seed: int, label: str) -> np.ndarray:
    if how == "reverse":
        return np.arange(n)[::-1] if seed % 2 else np.arange(n)
    return np.random.default_rng([seed, sum(label.encode())]).permutation(n)


def setup(workload: str, seed: int, out_dir: str, src: str, tracer=None):
    """Import qsd afresh, then build, validate and write the kernels.

    This is what ``setup_s`` times.  With a tracer, the wrappers go in
    right after the import, so ``models.build`` is traced too.
    """
    for name in [m for m in sys.modules if m == "qsd" or m.startswith("qsd.")]:
        del sys.modules[name]
    qsd = importlib.import_module("qsd")
    importlib.import_module("qsd.cli")
    if not os.path.abspath(qsd.__file__).startswith(src + os.sep):
        raise ImportError(f"qsd imported from {qsd.__file__}, not from {src}")
    if tracer is not None:
        tracer.install(qsd)
    kernels = {}
    for label, kind, n, model_seed, params, how, horizon in KERNELS[workload]:
        K = qsd.models.build(qsd.models.ModelSpec(kind, n, model_seed, dict(params)))
        p = _relabelling(how, K.n, seed, label)
        K = qsd.SubStochasticKernel(K.entries[np.ix_(p, p)], time_unit=K.time_unit)
        path = os.path.join(out_dir, f"{label}.txt")
        qsd.write_kernel(K, path)
        kernels[label] = Kernel(path=path, entries=np.array(K.entries), f=(p % 3) / 2.0,
                                x0=int(np.flatnonzero(p == 0)[0]), horizon=horizon)
    return qsd, kernels


def _cli(qsd, out_dir: str, name: str, argv: list, check) -> Op:
    """A CLI subcommand run in-process; ``check(out) -> (problems, exit code)``."""
    out = os.path.join(out_dir, name.replace(" ", "-"))

    def run():
        return qsd.cli.main(argv + ["--out", out])

    def verify(rc):
        problems, documented = check(out)
        if rc != documented:
            problems.append(f"exit code {rc}, documented {documented} for this outcome")
        return problems

    return Op(name, run, verify)


def operations(workload: str, qsd, kernels: dict, oracles: Oracles, seed: int,
               out_dir: str) -> list[Op]:
    """One pass over a workload, in the order it runs."""
    ops = []

    def oracle(label):
        return oracles.of(label, kernels[label])

    def cli(name, argv, check):
        ops.append(_cli(qsd, out_dir, name, argv, check))

    if workload == "certify":
        for label, k in kernels.items():
            cli(f"verify {label}", ["verify", "--kernel", k.path],
                lambda out, label=label: checks.check_verify(out, oracle(label)))
            cli(f"converse {label}", ["converse", "--kernel", k.path],
                lambda out, label=label: checks.check_converse(out, oracle(label)))
            cli(f"ergodic {label}", ["ergodic", "--kernel", k.path, "--f", k.f_arg,
                                     "--T-grid", CERTIFY_T_GRID, "--plan", "uniform"],
                lambda out, label=label, k=k: checks.check_ergodic(out, oracle(label), k.f))
    elif workload == "montecarlo":
        w3, rs64 = kernels["w3"], kernels["rs64"]
        cli("estimate w3", ["estimate", "--kernel", w3.path, "--f", w3.f_arg, "--N", str(MC_N),
                            "--seed", str(3 * seed), "--x0", str(w3.x0)],
            lambda out: checks.check_mc_table(out, "estimate.csv", oracle("w3"), w3.f, w3.x0))
        cli("sweep w3", ["sweep", "--kernel", w3.path, "--f", w3.f_arg, "--N-list", SWEEP_N_LIST,
                         "--reps", str(SWEEP_REPS), "--seed", str(3 * seed + 1),
                         "--threads", "2", "--x0", str(w3.x0)],
            lambda out: checks.check_mc_table(out, "sweep.csv", oracle("w3"), w3.f, w3.x0))

        def simulate_rs64():
            K = qsd.read_kernel(rs64.path)
            batch = qsd.simulate(K, rs64.x0, LIB_T, MC_N, 3 * seed + 2, chunks=LIB_CHUNKS)
            est, se = qsd.estimate_beta(batch, rs64.f, qsd.SamplingPlan.dirac(LIB_T0, LIB_T))
            return batch.N_T, est, se

        def check_rs64(result):
            p = checks.Problems()
            checks.check_sample(p, "simulate rs64", oracle("rs64"), rs64.x0, rs64.f, MC_N,
                                LIB_T, LIB_T0, *result, check_spread=True)
            return p

        ops.append(Op("simulate rs64", simulate_rs64, check_rs64))
    elif workload == "near-critical":
        for label, k in kernels.items():
            cli(f"spectral {label}", ["spectral", "--kernel", k.path],
                lambda out, label=label, k=k: checks.check_spectral(out, k.entries, oracle(label)))
    elif workload == "wide":
        k = kernels["rs500"]
        cli("spectral rs500", ["spectral", "--kernel", k.path],
            lambda out: checks.check_spectral(out, k.entries, oracle("rs500")))
        cli("ergodic rs500", ["ergodic", "--kernel", k.path, "--f", k.f_arg,
                              "--T-grid", WIDE_T_GRID, "--plan", "uniform"],
            lambda out: checks.check_ergodic(out, oracle("rs500"), k.f))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
