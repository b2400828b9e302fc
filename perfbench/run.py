"""Benchmark for qsd: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

A run starts with one untimed set-up, then repeats whole rounds while
another round would end closer to ``--seconds`` than stopping now.  A
round is ``SETUPS_PER_ROUND`` set-ups (import qsd afresh, build, validate
and write the kernels), then one pass over the workload's operations,
then the check of that pass against the oracle, outside the timed region.
numpy's BLAS runs one thread unless the environment says otherwise, so a
workload runs on one thread.
Untraced (``--trace 0``), the last line of standard output is one JSON
object with the end-to-end metrics ``wall_s`` (median pass time),
``setup_s`` (median set-up time) and ``peak_rss_mib``.  Traced
(``--trace 1``), rounds alternate untraced and traced, the metrics are
the per-layer medians over traced rounds, and the spans go to
``perfbench/out/trace-<workload>-seed<seed>.json``.  qsd is imported from
``src/`` of the checkout that holds this file, and driven only from
outside: ``qsd.cli.main(argv)`` and one direct library call.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# Before numpy is imported: on a host of a few shared cores, a second BLAS
# thread makes each small matrix-vector product wait on two cores at once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
# Set-ups are spread over the run, so that setup_s samples the same
# stretch of machine time as wall_s, not the first second alone.
SETUPS_PER_ROUND = 2
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def _parse(argv):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Tally:
    """Operations attempted and failed; ``correct`` turns false on a wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run_pass(self, ops) -> tuple[float, list]:
        """Time one pass over ``ops``; exceptions are kept for the check."""
        outcomes = []
        start = time.perf_counter()
        for op in ops:
            try:
                outcomes.append((op, op.run(), None))
            except Exception as exc:  # an operation that raises is a failed operation
                outcomes.append((op, None, exc))
        return time.perf_counter() - start, outcomes

    def check(self, outcomes) -> None:
        for op, result, exc in outcomes:
            self.attempted += 1
            if exc is not None:
                problems = ["raised " + "".join(traceback.format_exception_only(exc)).strip()]
            else:
                try:
                    problems = op.check(result)
                except Exception:
                    problems = ["output check raised:\n" + traceback.format_exc()]
                self.correct = self.correct and not problems
            if problems:
                self.failed += 1
                print(f"FAILED {op.name}: " + "; ".join(problems), file=sys.stderr)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import oracle
    import workloads
    from tracing import PER_LAYER, Tracer

    oracle.self_check()
    work_dir = os.path.join(OUT, f"{name}-seed{seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        tally = Tally()
        setup_times, walls, traced_walls, layers, spans = [], [], [], [], []
        oracles = workloads.Oracles()
        peak_rss_mib = None
        # Warm-up: the first import of mpmath and of qsd's own imports.
        workloads.setup(name, seed, work_dir, SRC)
        start = time.perf_counter()
        rounds = []
        while True:
            round_start = time.perf_counter()
            for _ in range(SETUPS_PER_ROUND):
                t = time.perf_counter()
                qsd, kernels = workloads.setup(name, seed, work_dir, SRC)
                setup_times.append(time.perf_counter() - t)
            wall, outcomes = tally.run_pass(workloads.operations(name, qsd, kernels, oracles, seed, work_dir))
            if peak_rss_mib is None:  # before the oracle allocates anything
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            walls.append(wall)
            tally.check(outcomes)
            if trace:
                tracer = Tracer()
                try:
                    qsd, kernels = workloads.setup(name, seed, work_dir, SRC, tracer)
                    wall, outcomes = tally.run_pass(
                        workloads.operations(name, qsd, kernels, oracles, seed, work_dir))
                finally:
                    tracer.uninstall()
                traced_walls.append(wall)
                layers.append(tracer.metrics())
                spans.append(tracer.spans)
                tally.check(outcomes)
            now = time.perf_counter()
            rounds.append(now - round_start)
            if now - start + statistics.median(rounds) / 2 >= seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if trace:
        values = {m: statistics.median(layer[m] for layer in layers) for m, _, _ in PER_LAYER}
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = {m: unit for m, unit, _ in PER_LAYER}
        with open(os.path.join(OUT, f"trace-{name}-seed{seed}.json"), "w") as fh:
            json.dump({"workload": name, "seed": seed, "untraced_wall_s": walls,
                       "traced_wall_s": traced_walls, "passes": spans}, fh)
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup_times),
                  "peak_rss_mib": peak_rss_mib}
        units = END_TO_END
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()}}


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory and imports are its own."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(name, json.dumps(result))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    return total


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "qsd", "__init__.py")):
        print(f"perfbench: no qsd sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
