"""Batch front-end: reproducible experiments with CSV artifacts.

Every subcommand reads a kernel (file or model config), writes CSV files
atomically (temp file + rename) plus a manifest recording the config
hash, seed, and library version, and exits with 0 on success, 1 on
runtime errors, 2 on usage/config errors, and 3 when a certification or
bound verification fails.  All numbers are serialized with 17 significant
digits, so reruns diff exactly.  An input file is read once, as a stream:
its bytes are hashed for the manifest as the parser reads them, and a
kernel file is parsed a block at a time.  ``--seed`` exists where the
output depends on it: ``model`` (over the config's ``seed``), ``estimate``
and ``sweep``.  ``sweep --threads N`` runs the replications on up to N
forked worker processes (processes, because the sampler's numpy gathers
hold the GIL), and its output is byte-identical for every N.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__, converse, ergodic, estimator, models, qprocess, spectral
from .deflation import Deflation
from .kernels import _Forward, read_kernel, write_kernel

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_NOT_CERTIFIED = 3


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell_spec(x) -> str:
    """The ``%`` conversion that formats one cell as :func:`_fmt` does.

    ``"%.17g" % x`` equals ``format(float(x), ".17g")``; ints keep ``%d``,
    because ``%.17g`` rounds them above 2**53.  ``None`` is an empty cell.
    """
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return "%d"
    return "%.17g"


def _write_csv(path: str, header: str, rows, trailer: str | None = None) -> None:
    """Write the rows a line at a time: one ``%`` template per row of cell
    types, built on the first row of those types, formats the whole row."""
    lines = [header]
    templates = {}
    for row in rows:
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(map(_cell_spec, row))
        if type(None) in kinds:
            row = [x for x in row if x is not None]
        lines.append(template % tuple(row))
    if trailer:
        lines.append(trailer)
    _write_atomic(path, "\n".join(lines) + "\n")


# Arguments that never change an output file: where the input and the
# output live, and --threads, which only sets sweep's worker count.  The
# input file's bytes are hashed instead of its path.
_NOT_HASHED = {"kernel", "config", "out", "threads", "subcommand"}


def _read_hashed(path, parse):
    """(``parse(path, text)``, SHA-256 of the file's bytes): ``text`` is the
    file decoded as ``open(path)`` decodes it, and every byte the parser
    reads, to the end of the file, is hashed as it is read."""
    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as fh:
        return parse(path, io.TextIOWrapper(_Forward(fh, digest))), digest.hexdigest()


def _config_hash(args, input_sha256: str) -> str:
    config = {k: v for k, v in vars(args).items() if k not in _NOT_HASHED}
    payload = json.dumps({"subcommand": args.subcommand, "input_sha256": input_sha256,
                          "args": config}, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def _manifest(args, input_sha256: str, seed=None, **records) -> None:
    manifest = {
        "subcommand": args.subcommand,
        "config_hash": _config_hash(args, input_sha256),
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        **records,
    }
    _write_atomic(os.path.join(args.out, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _finite_param(key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{key} must be a finite number")
    return number


def _int_value(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{key} must be an integer, not {value!r}") from None


def parse_model_config(path: str) -> models.ModelSpec:
    """Line-oriented config: ``kind``, ``n``, ``seed``, ``params.<name>``."""
    with open(path) as fh:
        return _parse_config(path, fh)


def _parse_config(path, text) -> models.ModelSpec:
    """The model config in ``text``, the file ``path`` open in text mode.

    A config is a few lines, so it is read whole, and a decode error names
    its position in the file."""
    kind = None
    n = None
    seed = None
    params: dict = {}
    param_lines: dict = {}
    for lineno, raw in enumerate(text.read().split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected '<key> <value>'")
        key, value = parts
        try:
            if key == "kind":
                kind = value.strip()
            elif key == "n":
                n = _int_value(key, value)
            elif key == "seed":
                seed = _int_value(key, value)
            elif key.startswith("params."):
                params[key[len("params."):]] = _finite_param(key, value)
                param_lines[key[len("params."):]] = lineno
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if kind is None:
        raise ValueError(f"{path}: missing 'kind'")
    if kind not in models.KINDS:
        raise ValueError(f"{path}: unknown kind {kind!r}")
    for name, lineno in param_lines.items():
        problem = models.parameter_error(kind, name)
        if problem:
            raise ValueError(f"{path}:{lineno}: {problem}")
    if n is None and kind not in ("w3", "t3"):
        raise ValueError(f"{path}: missing 'n'")
    return models.ModelSpec(kind=kind, n=n or 0, seed=seed, params=params)


def _load_kernel(args):
    """(kernel, SHA-256 of the input file's bytes), from one read of the
    ``--kernel`` or ``--config`` file."""
    if getattr(args, "kernel", None):
        return _read_hashed(args.kernel, read_kernel)
    if getattr(args, "config", None):
        spec, digest = _read_hashed(args.config, _parse_config)
        return models.build(spec), digest
    raise ValueError("give --kernel FILE or --config FILE")


def _read_f(arg: str, n: int) -> np.ndarray:
    try:
        vals = [float(p) for p in arg.split(",")]
    except ValueError:
        raise ValueError(f"--f takes numbers separated by ',', not {arg!r}") from None
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"--f has a non-finite entry: {arg!r}")
    if len(vals) != n:
        raise ValueError(f"--f has {len(vals)} entries, kernel has {n} states")
    return np.array(vals)


def _int_list(arg: str, name: str, sep: str = ",") -> list[int]:
    """Integers separated by ``sep``; an empty token is refused, naming ``name``."""
    try:
        return [int(p) for p in arg.split(sep)]
    except ValueError:
        raise ValueError(f"{name} takes integers separated by {sep!r}, not {arg!r}") from None


def _parse_grid(arg: str, name: str) -> list[int]:
    """Grids are 'lo:hi[:step]' or comma-separated integers, and never empty."""
    if ":" in arg:
        parts = _int_list(arg, name, ":")
        if len(parts) not in (2, 3) or min(parts[2:], default=1) < 1:
            raise ValueError(f"{name} must be 'lo:hi[:step]' with a step >= 1, not {arg!r}")
        grid = list(range(parts[0], parts[1] + 1, *parts[2:]))
    else:
        grid = _int_list(arg, name)
    if not grid:
        raise ValueError(f"{name} {arg!r} holds no value")
    return grid


def _positive_int(arg: str) -> int:
    try:
        value = int(arg)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {arg!r}")
    return value


def _positive_float(arg: str) -> float:
    try:
        value = float(arg)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, not {arg!r}")
    return value


def _simulation_record(trajectories: int, steps: int, survivors: int) -> dict:
    return {"trajectories": trajectories, "trajectory_steps": steps, "survivors": survivors}


def _parse_plan(arg: str) -> int | None:
    """None for 'uniform', t0 for 'dirac:<t0>'."""
    if arg == "uniform":
        return None
    kind, _, t0 = arg.partition(":")
    if kind == "dirac" and t0.isdigit():
        return int(t0)
    raise ValueError(
        f"--plan must be 'uniform' or 'dirac:<t0>' with an integer t0 >= 0, not {arg!r}")


def _report_csv(out_path: str, report) -> None:
    trailer = (f"# name={report.name} constant={_fmt(report.constant)} "
               f"rate={_fmt(report.rate)} max_violation={_fmt(report.max_violation)}")
    _write_csv(out_path, "t,T,observed,bound,ratio", report.rows, trailer)


def cmd_model(args) -> int:
    spec, digest = _read_hashed(args.config, _parse_config)
    if args.seed is not None:
        spec = models.ModelSpec(kind=spec.kind, n=spec.n, seed=args.seed,
                                params=spec.params)
    K = models.build(spec)
    os.makedirs(args.out, exist_ok=True)
    write_kernel(K, os.path.join(args.out, "kernel.txt"))
    _manifest(args, digest, spec.seed)
    return EXIT_OK


def cmd_spectral(args) -> int:
    K, digest = _load_kernel(args)
    S = spectral.compute_spectral(K, tol=args.tol)
    header = (f"rho={_fmt(S.rho)} lambda0_per_step={_fmt(S.lambda0)} "
              f"residual={_fmt(S.residual)}\nstate,alpha,eta,beta")
    rows = [(x, S.alpha[x], S.eta[x], S.beta[x]) for x in range(K.n)]
    _write_csv(os.path.join(args.out, "spectral.csv"), header, rows)
    _manifest(args, digest,
              perron_solve={"iterations": S.iterations, "power_steps": S.power_steps,
                            "residual": S.residual})
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.t_max < 5:
        raise ValueError("--t-max must be >= 5: the rate fit needs 3 points in t <= (1 + t_max)/2")
    if args.pair_lag_max < 2:
        raise ValueError("--pair-lag-max must be >= 2: one lag to fit, one to validate")
    if args.pair_t_max < 1:
        raise ValueError("--pair-t-max must be >= 1")
    K, digest = _load_kernel(args)
    S = spectral.compute_spectral(K)
    qprocess.build_q_kernel(K, S)  # refuses a kernel whose h-transform is ill-conditioned
    core = Deflation(K, S)
    eta_rep = qprocess.verify_eta_bound(core, range(1, args.t_max + 1))
    pairs = [(t, t + dt) for t in range(1, args.pair_t_max + 1)
             for dt in range(1, args.pair_lag_max + 1)]
    q_rep = qprocess.verify_qproc_approx(
        core, pairs, gamma=eta_rep.rate if math.isfinite(eta_rep.rate) else None)
    mix_rep = qprocess.q_mixing_report(core, range(1, args.t_max + 1))
    _report_csv(os.path.join(args.out, "eta_bound.csv"), eta_rep)
    _report_csv(os.path.join(args.out, "qproc_approx.csv"), q_rep)
    _report_csv(os.path.join(args.out, "q_mixing.csv"), mix_rep)
    _manifest(args, digest)
    reports = (eta_rep, q_rep, mix_rep)
    # an infinite constant or a rate that does not decay bounds nothing;
    # exact mixing (constant 0, rate inf) is a real certificate
    vacuous = [r for r in reports if not (math.isfinite(r.constant) and r.rate > 0)]
    for r in vacuous:
        print(f"vacuous envelope: {r.name} constant={_fmt(r.constant)} rate={_fmt(r.rate)}",
              file=sys.stderr)
    bad = [r.name for r in reports if not r.valid]
    if bad:
        print(f"bound violated on validation grid: {', '.join(bad)}", file=sys.stderr)
    return EXIT_NOT_CERTIFIED if vacuous or bad else EXIT_OK


def cmd_ergodic(args) -> int:
    t0 = _parse_plan(args.plan)
    Ts = _parse_grid(args.T_grid, "--T-grid")
    if t0 is None and len(set(Ts)) < 2:
        raise ValueError("--T-grid needs two or more horizons for the uniform plan: "
                         "one to fit, one to validate")
    K, digest = _load_kernel(args)
    S = spectral.compute_spectral(K)
    f = _read_f(args.f, K.n)
    core = Deflation(K, S)
    violated, vacuous = False, None  # vacuous: why the envelope bounds nothing
    if t0 is None:
        rep = ergodic.verify_ergodic_theorem(core, f, Ts)
        rows = [(T, obs, bound, ratio) for (_, T, obs, bound, ratio) in rep.rows]
        violated = not rep.valid
        if not math.isfinite(rep.constant):  # a 1/T envelope: its rate is 0 by design
            vacuous = f"{rep.name} constant={_fmt(rep.constant)} rate={_fmt(rep.rate)}"
    else:
        plans = [ergodic.SamplingPlan.dirac(t0, T) for T in Ts]  # rejects t0 > T
        gamma, gamma_prime = qprocess.fitted_rates(core)
        # a rate that does not decay bounds nothing; infinite rates are exact mixing
        if not (gamma > 0 and gamma_prime > 0):
            vacuous = f"dirac plan gamma={_fmt(gamma)} gamma_prime={_fmt(gamma_prime)}"
        f_inf = float(np.max(np.abs(f))) or 1.0
        rows = []
        for plan, (err, _) in zip(plans, core.plan_errors(f, plans)):
            env = f_inf * ergodic.plan_envelope(gamma, gamma_prime, plan)
            rows.append((plan.T, err, env, err / env if env > 0 else 0.0))
    _write_csv(os.path.join(args.out, "ergodic.csv"), "time,error,bound,ratio", rows)
    _manifest(args, digest)
    if vacuous:
        print(f"vacuous envelope: {vacuous}", file=sys.stderr)
    if violated:
        print("bound violated on validation grid: ergodic_theorem", file=sys.stderr)
    return EXIT_NOT_CERTIFIED if vacuous or violated else EXIT_OK


_SWEEP_HEADER = "N,T,t0,N_T,estimate,stderr,exact,abs_error,predicted"


def _check_x0(x0: int, n: int) -> None:
    if not 0 <= x0 < n:
        raise ValueError(f"--x0 must be a state in 0..{n - 1}, not {x0}")


def cmd_estimate(args) -> int:
    if args.T is not None and args.T < 0:
        raise ValueError(f"--T must be >= 0, not {args.T}")
    K, digest = _load_kernel(args)
    _check_x0(args.x0, K.n)
    S = spectral.compute_spectral(K)
    f = _read_f(args.f, K.n)
    gamma, gamma_prime = qprocess.fitted_rates(Deflation(K, S))
    T, t0, predicted = estimator.choose_horizon(S.lambda0, gamma, gamma_prime, args.N, args.T)
    if args.t0 is not None:
        if not 0 <= args.t0 <= T:
            raise ValueError(f"--t0 must be in 0..{T}, the horizon T, not {args.t0}")
        t0 = args.t0
    batch = estimator.simulate(K, args.x0, T, args.N, args.seed)
    est, se = estimator.estimate_beta(batch, f, ergodic.SamplingPlan.dirac(t0, T))
    exact = float(S.beta @ f)
    row = (args.N, T, t0, batch.N_T, est, se, exact, abs(est - exact), predicted)
    _write_csv(os.path.join(args.out, "estimate.csv"), _SWEEP_HEADER, [row])
    _manifest(args, digest, args.seed, simulation=_simulation_record(args.N, batch.steps, batch.N_T))
    return EXIT_OK


def cmd_sweep(args) -> int:
    N_list = _int_list(args.N_list, "--N-list")
    if N_list[0] < 1 or any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError(f"--N-list must be positive and strictly increasing, not {args.N_list!r}")
    K, digest = _load_kernel(args)
    _check_x0(args.x0, K.n)
    S = spectral.compute_spectral(K)
    f = _read_f(args.f, K.n)
    gamma, gamma_prime = qprocess.fitted_rates(Deflation(K, S))
    rows = estimator.sweep_error_vs_N(
        K, S, f, N_list, args.reps, args.seed, gamma, gamma_prime, x0=args.x0,
        workers=args.threads)
    csv_rows = [
        (r.N, r.T, r.t0, r.N_T, r.estimate, r.stderr, r.exact, r.abs_error, r.predicted)
        for r in rows
    ]
    _write_csv(os.path.join(args.out, "sweep.csv"), _SWEEP_HEADER, csv_rows)
    _manifest(args, digest, args.seed, simulation=_simulation_record(
        args.reps * sum(N_list), sum(r.steps for r in rows), sum(r.survivors for r in rows)))
    if any(r.flagged for r in rows):
        print("some sweep rows went extinct in every replication", file=sys.stderr)
    return EXIT_OK


def cmd_converse(args) -> int:
    K, digest = _load_kernel(args)
    rep = converse.certify_converse(K, t1_max=args.t1_max, T_max=args.T_max)
    rows = [(T, v, rep.envelope(T)) for T, v in rep.decay_curve]
    # T1, where the envelope starts, is t1; the trailer keeps the key for its readers
    trailer = (f"# certified={rep.certified} t1={rep.t1} T1={rep.t1} "
               f"delta={_fmt(rep.delta)}")
    _write_csv(os.path.join(args.out, "converse.csv"), "T,sup_pair_tv,envelope",
               rows, trailer)
    _manifest(args, digest)
    if not rep.certified:
        print("contraction not certified within the search limits", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    if not rep.envelope_ok:
        print("decay curve above its geometric envelope", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument errors as one line, without the usage block."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    A parse leaves the parser as it was: every default is immutable, and
    ``main`` looks the subcommand's function up by name at each call.
    """
    p = _Parser(
        prog="qsd",
        description="Quasi-stationary analysis of finite absorbed Markov chains.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, kernel=True):
        if kernel:
            sp.add_argument("--kernel", help="kernel file (plain-text format)")
            sp.add_argument("--config", help="model config file")
        sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("model", help="build a kernel from a config file")
    sp.add_argument("--config", required=True)
    common(sp, kernel=False)
    sp.add_argument("--seed", type=int, default=None, help="overrides the config's seed")

    sp = sub.add_parser("spectral", help="quasi-stationary law and eigenvalue")
    common(sp)
    sp.add_argument("--tol", type=_positive_float, default=1e-12)

    sp = sub.add_parser("verify", help="convergence-bound reports")
    common(sp)
    sp.add_argument("--t-max", dest="t_max", type=int, default=200)
    sp.add_argument("--pair-t-max", dest="pair_t_max", type=int, default=10)
    sp.add_argument("--pair-lag-max", dest="pair_lag_max", type=int, default=50)

    sp = sub.add_parser("ergodic", help="conditional time-average envelopes")
    common(sp)
    sp.add_argument("--f", required=True, help="comma-separated test vector")
    sp.add_argument("--T-grid", dest="T_grid", required=True,
                    help="'lo:hi[:step]' or comma-separated horizons")
    sp.add_argument("--plan", default="uniform", help="'uniform' or 'dirac:<t0>'")

    sp = sub.add_parser("estimate", help="Monte Carlo estimate of beta(f)")
    common(sp)
    sp.add_argument("--f", required=True)
    sp.add_argument("--N", type=_positive_int, required=True)
    sp.add_argument("--T", type=int, default=None)
    sp.add_argument("--t0", type=int, default=None)
    sp.add_argument("--x0", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("sweep", help="error-versus-N tradeoff sweep")
    common(sp)
    sp.add_argument("--f", required=True)
    sp.add_argument("--N-list", dest="N_list", required=True,
                    help="comma-separated increasing sample counts")
    sp.add_argument("--reps", type=_positive_int, default=32)
    sp.add_argument("--x0", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=_positive_int, default=1,
                    help="worker processes, at most the usable CPUs; any value "
                         "gives the same output")

    sp = sub.add_parser("converse", help="bridge contraction certification")
    common(sp)
    sp.add_argument("--t1-max", dest="t1_max", type=_positive_int, default=None)
    sp.add_argument("--T-max", dest="T_max", type=_positive_int, default=200)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return globals()[f"cmd_{args.subcommand}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
