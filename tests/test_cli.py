import concurrent.futures
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from mpmath import mp

from oracles import (
    eig_triple,
    mp_bridge_row,
    mp_conditioned_rows,
    mp_matrix,
    mp_perron,
    mp_survival_vectors,
)
from qsd import cli, converse, estimator, models, qprocess
from qsd.cli import main, parse_model_config
from qsd.kernels import SubStochasticKernel, read_kernel, write_kernel
from qsd.models import golden_kernel_path


@pytest.fixture()
def w3_file(tmp_path, w3):
    p = tmp_path / "w3.txt"
    write_kernel(w3, p)
    return str(p)


def read_lines(path):
    with open(path) as fh:
        return fh.read()


class TestModelSubcommand:
    def test_builds_kernel_from_config(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(
            "kind logistic_bd\nn 4\nparams.birth0 0.4\nparams.birth_step 0.1\n"
            "params.death 0.3\n"
        )
        out = tmp_path / "out"
        assert main(["model", "--config", str(cfg), "--out", str(out)]) == 0
        K = read_kernel(out / "kernel.txt")
        assert K.n == 4

    def test_config_seed_kept_unless_seed_given(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("kind random_substochastic\nn 4\nseed 7\n")
        for seed, argv in ((7, []), (3, ["--seed", "3"])):
            out = tmp_path / f"m{seed}"
            assert main(["model", "--config", str(cfg), "--out", str(out)] + argv) == 0
            K = read_kernel(out / "kernel.txt")
            assert np.array_equal(K.entries, models.random_substochastic(4, seed).entries)
            assert json.loads(read_lines(out / "manifest.json"))["seed"] == seed
        # spectral --config builds the kernel that model writes
        assert main(["spectral", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        assert main(["spectral", "--kernel", str(tmp_path / "m7" / "kernel.txt"),
                     "--out", str(tmp_path / "k")]) == 0
        assert read_lines(tmp_path / "c" / "spectral.csv") == \
            read_lines(tmp_path / "k" / "spectral.csv")

    def test_config_error_has_line_number(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("kind w3\nn three\n")
        with pytest.raises(ValueError, match=":2"):
            parse_model_config(str(cfg))

    def test_cli_reports_config_error_as_usage(self, tmp_path, capsys):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("kind w3\nn three\n")
        out = tmp_path / "out"
        assert main(["model", "--config", str(cfg), "--out", str(out)]) == 2
        assert ":2" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "fast"])
    def test_param_that_is_not_a_finite_number_names_its_key(self, tmp_path, capsys, value):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(f"kind birth_death\nn 4\nparams.birth {value}\n")
        assert main(["model", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:3: params.birth must be a finite number\n"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("kind w3\nn 3\nwhatever 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_model_config(str(cfg))

    @pytest.mark.parametrize("text, message", [
        ("kind birth_death\nn abc\n", "{cfg}:2: n must be an integer, not 'abc'"),
        ("kind random_substochastic\nseed x\nn 4\n", "{cfg}:2: seed must be an integer, not 'x'"),
        ("kind linear_bd_truncated\nn 5\nparams.bogus 3\n",
         "{cfg}:3: params.bogus is not a parameter of linear_bd_truncated "
         "(known: params.birth, params.death)"),
        ("params.foo 1\nkind w3\n", "{cfg}:1: params.foo is not a parameter of w3 (known: none)"),
    ], ids=["n", "seed", "unknown_param", "param_of_w3"])
    def test_bad_config_value_names_its_key(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "c.txt"
        cfg.write_text(text)
        for argv in (["model", "--config", str(cfg)], ["spectral", "--config", str(cfg)]):
            assert main(argv + ["--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"

    def test_build_refuses_unknown_parameter(self):
        with pytest.raises(ValueError, match=r"^params.bogus is not a parameter of ou_discretized"):
            models.build(models.ModelSpec("ou_discretized", 5, params={"bogus": 1.0}))


class TestSpectralSubcommand:
    def test_csv_matches_eigen_oracle(self, tmp_path, w3_file, w3):
        out = tmp_path / "s"
        assert main(["spectral", "--kernel", w3_file, "--out", str(out)]) == 0
        text = read_lines(out / "spectral.csv").splitlines()
        assert text[1] == "state,alpha,eta,beta"
        alpha, rho, eta, _ = eig_triple(w3.entries)
        head = dict(kv.split("=") for kv in text[0].split())
        assert float(head["rho"]) == pytest.approx(rho, abs=1e-10)
        for x, line in enumerate(text[2:]):
            vals = [float(v) for v in line.split(",")]
            assert vals[0] == x
            assert vals[1] == pytest.approx(alpha[x], abs=1e-10)
            assert vals[2] == pytest.approx(eta[x], abs=1e-10)

    def test_manifest_written(self, tmp_path, w3_file):
        out = tmp_path / "s"
        main(["spectral", "--kernel", w3_file, "--out", str(out)])
        manifest = json.loads(read_lines(out / "manifest.json"))
        assert manifest["subcommand"] == "spectral"
        assert "config_hash" in manifest and "timestamp" in manifest
        assert manifest["seed"] is None  # spectral draws no random numbers
        solve = manifest["perron_solve"]
        assert (solve["power_steps"], solve["iterations"]) == (61, 61)

    def test_manifest_records_perron_solve(self, tmp_path):
        kf = tmp_path / "ou.txt"
        write_kernel(models.ou_discretized(200), kf)
        out = tmp_path / "s"
        assert main(["spectral", "--kernel", str(kf), "--out", str(out)]) == 0
        solve = json.loads(read_lines(out / "manifest.json"))["perron_solve"]
        head = dict(kv.split("=") for kv in read_lines(out / "spectral.csv").split("\n")[0].split())
        assert solve["residual"] == float(head["residual"]) <= 1e-14
        assert solve["power_steps"] < solve["iterations"] <= solve["power_steps"] + 10
        assert solve["iterations"] <= 30

    def test_manifest_stable_modulo_timestamp(self, tmp_path, w3_file):
        out = tmp_path / "s"
        manifests = []
        for _ in range(2):
            main(["spectral", "--kernel", w3_file, "--out", str(out)])
            m = json.loads(read_lines(out / "manifest.json"))
            m.pop("timestamp")
            manifests.append(m)
        assert manifests[0] == manifests[1]


    def _config_hash(self, kernel, out):
        assert main(["spectral", "--kernel", str(kernel), "--out", str(out)]) == 0
        return json.loads(read_lines(out / "manifest.json"))["config_hash"]

    def test_config_hash_ignores_path_out_and_threads(self, tmp_path, w3):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_kernel(w3, a)
        write_kernel(w3, b)
        hashes = {self._config_hash(a, tmp_path / "o1"), self._config_hash(b, tmp_path / "o2")}
        assert len(hashes) == 1
        # sweep, the one subcommand with --threads, hashes its arguments without it
        parse = cli._build_parser().parse_args
        sweep = ["sweep", "--kernel", "k", "--out", "o", "--f", "1", "--N-list", "10"]
        assert (cli._config_hash(parse(sweep + ["--threads", "1"]), "") ==
                cli._config_hash(parse(sweep + ["--threads", "4"]), "") !=
                cli._config_hash(parse(sweep + ["--seed", "1"]), ""))

    @pytest.mark.parametrize("argv, digest", [
        (["spectral", "--kernel", "{dir}/w3.txt"],
         "4572f5e17ff51e7836ae746a64d0c1351f8dfd3f3b322b939df65696727b0cb2"),
        (["spectral", "--config", "{dir}/m.cfg"],
         "b022312ac0b80f0bbe810eccf8e353226b31a9457947507f4c283161dc5e3e9a"),
        # seed null: model reads the config's seed, which this config leaves out
        (["model", "--config", "{dir}/m.cfg"],
         "67e2de3f67d0eec6d400d9000f16babb477c5850a8b98e8477b4893a6677b2a1"),
    ], ids=["kernel", "config", "model"])
    def test_input_read_once_and_hash_kept(self, tmp_path, w3, monkeypatch, argv, digest):
        # the digests were recorded before the input file was read only once
        import builtins

        write_kernel(w3, tmp_path / "w3.txt")
        (tmp_path / "m.cfg").write_text("kind logistic_bd\nn 4\nparams.death 0.3\n")
        argv = [a.format(dir=tmp_path) for a in argv]
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
        monkeypatch.undo()
        assert opened.count(argv[2]) == 1
        assert json.loads(read_lines(tmp_path / "o" / "manifest.json"))["config_hash"] == digest

    def test_config_hash_follows_kernel_content(self, tmp_path, w3, t3):
        kf = tmp_path / "k.txt"
        write_kernel(w3, kf)
        before = self._config_hash(kf, tmp_path / "o")
        write_kernel(t3, kf)
        assert self._config_hash(kf, tmp_path / "o") != before


class TestVerifySubcommand:
    def test_t3_zero_constants(self, tmp_path, t3):
        kf = tmp_path / "t3.txt"
        write_kernel(t3, kf)
        out = tmp_path / "v"
        code = main(["verify", "--kernel", str(kf), "--out", str(out),
                     "--t-max", "60", "--pair-t-max", "4", "--pair-lag-max", "12"])
        assert code == 0
        eta_text = read_lines(out / "eta_bound.csv")
        assert "constant=0" in eta_text.splitlines()[-1]
        q_text = read_lines(out / "qproc_approx.csv")
        assert "constant=0" in q_text.splitlines()[-1]

    def test_w3_produces_three_reports(self, tmp_path, w3_file):
        out = tmp_path / "v"
        code = main(["verify", "--kernel", w3_file, "--out", str(out),
                     "--t-max", "80", "--pair-t-max", "5", "--pair-lag-max", "20"])
        assert code == 0
        for name in ("eta_bound.csv", "qproc_approx.csv", "q_mixing.csv"):
            lines = read_lines(out / name).splitlines()
            assert lines[0] == "t,T,observed,bound,ratio"
            assert lines[-1].startswith("# name=")


    def test_config_decode_error_names_its_file_position(self, tmp_path, capsys):
        # past the first 8 KB, as a whole-file decode gives it
        data = b"kind w3\n" + b"# pad\n" * 3000 + b"# \xff\n"
        cfg = tmp_path / "m.cfg"
        cfg.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as exc:
            data.decode()
        with pytest.raises(ValueError) as got:
            parse_model_config(str(cfg))
        assert str(got.value) == str(exc.value)
        assert main(["model", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    def test_one_step_mixing_kernel(self, tmp_path):
        # rank one, eta = (1, 1): every conditioned series is exactly 0 from t = 1
        kf = tmp_path / "r1.txt"
        kf.write_text("n 2 time_unit 1\n0.25 0.25\n0.25 0.25\n")
        out = tmp_path / "v"
        assert main(["verify", "--kernel", str(kf), "--out", str(out),
                     "--t-max", "40", "--pair-t-max", "3", "--pair-lag-max", "10"]) == 0
        for name in ("eta_bound.csv", "qproc_approx.csv", "q_mixing.csv"):
            assert "constant=0 rate=inf" in read_lines(out / name).splitlines()[-1]
        assert main(["estimate", "--kernel", str(kf), "--out", str(tmp_path / "est"),
                     "--f", "1,0", "--N", "200"]) == 0

    def test_vacuous_envelope_not_certified(self, tmp_path, capsys):
        # bd200's eta collapses in scale: eta_bound's constant is inf or its
        # rate nan, depending on the BLAS, and either certifies nothing; the
        # inf and nan come without a numpy warning beside the diagnostics
        kf = tmp_path / "bd200.txt"
        write_kernel(models.birth_death(200, birth=0.3), kf)
        out = tmp_path / "v"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--kernel", str(kf), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        trailer = read_lines(out / "eta_bound.csv").splitlines()[-1]
        constant, rate = (trailer.split(f" {key}=")[1].split()[0] for key in ("constant", "rate"))
        assert f"vacuous envelope: eta_bound constant={constant} rate={rate}" in err
        assert not (math.isfinite(float(constant)) and float(rate) > 0)

    @staticmethod
    def _on_one_blas_thread(tmp_path, n, argv):
        """(exit code, stderr) of ``qsd <argv[0]> --kernel bdN --out DIR
        <argv[1:]>`` on birth_death(n, birth=0.3), run in a process with one
        BLAS thread and numpy warnings as errors."""
        kf = tmp_path / f"bd{n}.txt"
        write_kernel(models.birth_death(n, birth=0.3), kf)
        argv = [argv[0], "--kernel", str(kf), "--out", str(tmp_path / "o"), *argv[1:]]
        script = (
            "import sys, warnings\n"
            "from qsd.cli import main\n"
            "warnings.simplefilter('error')\n"
            f"sys.exit(main({argv!r}))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        return done.returncode, done.stderr

    def _ergodic_on_one_blas_thread(self, tmp_path, n, f):
        """The uniform-plan ergodic over 10:200:10 on one BLAS thread."""
        f = ",".join(repr(f(x)) for x in range(n))
        return self._on_one_blas_thread(tmp_path, n, ["ergodic", "--f", f, "--T-grid", "10:200:10"])

    def test_bd200_ergodic_stderr_is_the_diagnostic_alone(self, tmp_path):
        # with one BLAS thread, bd200's plan deviations divide by an eta that
        # underflowed to 0: the envelope fails to validate, and stderr holds
        # that one line, no numpy warning (a warning would be an error here)
        assert self._ergodic_on_one_blas_thread(tmp_path, 200, lambda x: (x % 3) / 2) == (
            3, "bound violated on validation grid: ergodic_theorem\n")

    def test_bd165_ergodic_infinite_constant_is_vacuous(self, tmp_path):
        # with one BLAS thread, bd165's errors for an f in [0, 1] reach inf:
        # a4 is inf, so every bound is inf and every ratio 0, and that
        # envelope bounds nothing
        assert self._ergodic_on_one_blas_thread(tmp_path, 165, lambda x: x / 164) == (
            3, "vacuous envelope: ergodic_theorem constant=inf rate=0\n")

    def test_bd165_nan_bridge_rate_is_vacuous(self, tmp_path):
        # with one BLAS thread, bd165's conditioned-TV rate is NaN: that is no
        # one-step mixing, so qproc_approx fits and validates its gaps and
        # names itself vacuous, where it wrote every bound as 0 at rate inf
        assert self._on_one_blas_thread(tmp_path, 165, ["verify"]) == (3, (
            "vacuous envelope: eta_bound constant=0 rate=nan\n"
            "vacuous envelope: qproc_approx constant=0 rate=nan\n"
            "bound violated on validation grid: eta_bound, qproc_approx\n"))
        trailer = read_lines(tmp_path / "o" / "qproc_approx.csv").splitlines()[-1]
        assert " constant=0 rate=nan " in trailer

    def test_single_state_kernel_certified(self, tmp_path, capsys):
        # [[0.5]] mixes exactly: constant 0 and rate inf are a real certificate
        kf = tmp_path / "half.txt"
        kf.write_text("n 1 time_unit 1\n0.5\n")
        out = tmp_path / "v"
        assert main(["verify", "--kernel", str(kf), "--out", str(out)]) == 0
        assert "vacuous" not in capsys.readouterr().err
        for name in ("eta_bound.csv", "qproc_approx.csv", "q_mixing.csv"):
            assert "constant=0 rate=inf" in read_lines(out / name).splitlines()[-1]

    def test_one_lag_is_usage_error(self, tmp_path, w3_file, capsys):
        # a single lag would be validated on the very point that fitted it
        code = main(["verify", "--kernel", w3_file, "--out", str(tmp_path / "v"),
                     "--pair-lag-max", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--pair-lag-max" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "v").exists()

    def test_short_t_max_is_usage_error(self, tmp_path, capsys):
        # checked before the kernel is read: the file does not exist
        code = main(["verify", "--kernel", str(tmp_path / "missing.txt"),
                     "--out", str(tmp_path / "v"), "--t-max", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--t-max" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "v").exists()


class TestErgodicSubcommand:
    def test_uniform_plan(self, tmp_path, w3_file):
        out = tmp_path / "e"
        code = main(["ergodic", "--kernel", w3_file, "--out", str(out),
                     "--f", "1,0,0", "--T-grid", "10:60:10"])
        assert code == 0
        lines = read_lines(out / "ergodic.csv").splitlines()
        assert lines[0] == "time,error,bound,ratio"
        assert len(lines) == 1 + 6  # header plus six horizons

    def test_dirac_plan(self, tmp_path, w3_file):
        out = tmp_path / "e"
        code = main(["ergodic", "--kernel", w3_file, "--out", str(out),
                     "--f", "1,0,0", "--T-grid", "20,30", "--plan", "dirac:5"])
        assert code == 0

    @pytest.mark.parametrize("grid", ["5", "5,5"])
    def test_one_uniform_horizon_is_usage_error(self, tmp_path, w3_file, capsys, grid):
        code = main(["ergodic", "--kernel", w3_file, "--out", str(tmp_path / "e"),
                     "--f", "1,0,0", "--T-grid", grid])
        assert code == 2
        err = capsys.readouterr().err
        assert "--T-grid" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "e").exists()

    def test_dirac_table_accepts_one_horizon(self, tmp_path, w3_file):
        # the Dirac table fits nothing, so one horizon is a complete table
        out = tmp_path / "e"
        assert main(["ergodic", "--kernel", w3_file, "--out", str(out),
                     "--f", "1,0,0", "--T-grid", "20", "--plan", "dirac:5"]) == 0
        assert len(read_lines(out / "ergodic.csv").splitlines()) == 2

    def test_dirac_error_column_matches_extended_precision(self, tmp_path, w3_file, w3):
        # true errors of 1e-15 .. 6e-21, far below the triple's own residual
        out = tmp_path / "e"
        f = [0.0, 0.5, 1.0]
        assert main(["ergodic", "--kernel", w3_file, "--out", str(out), "--f", "0,0.5,1",
                     "--T-grid", "100:140:10", "--plan", "dirac:60"]) == 0
        lines = read_lines(out / "ergodic.csv").splitlines()[1:]
        with mp.workdps(60):
            M = mp_matrix(w3.entries)
            alpha, rho, eta = mp_perron(M)
            beta_f = sum(a * h * v for a, h, v in zip(alpha, eta, f))
            rows = next([r[:] for r in rows] for t, rows in mp_conditioned_rows(M, 60) if t == 60)
            surv = mp_survival_vectors(M, 80)
            for line, T in zip(lines, range(100, 141, 10), strict=True):
                want = max(abs(sum(p * v for p, v in zip(mp_bridge_row(rows[x], surv[T - 60]), f))
                               - beta_f) for x in range(3))
                assert float(line.split(",")[1]) == pytest.approx(float(want), rel=1e-8)

    def test_validation_failure_exits_three(self, tmp_path, capsys):
        # on this slowly mixing diffusion T * error still grows past the fit
        # half of the grid, so the 1/T envelope breaks on validation
        kf = tmp_path / "ou.txt"
        write_kernel(models.ou_discretized(8), kf)
        out = tmp_path / "e"
        code = main(["ergodic", "--kernel", str(kf), "--out", str(out),
                     "--f", "1,1,1,1,0,0,0,0", "--T-grid", "2:20:2"])
        assert code == 3
        assert "ergodic_theorem" in capsys.readouterr().err
        assert (out / "ergodic.csv").exists()

    @pytest.mark.parametrize("plan", ["foo", "dirac", "dirac:x", "dirac:-1"])
    def test_bad_plan_is_usage_error(self, tmp_path, w3_file, capsys, plan):
        code = main(["ergodic", "--kernel", w3_file, "--out", str(tmp_path / "e"),
                     "--f", "1,0,0", "--T-grid", "10:20", "--plan", plan])
        assert code == 2
        err = capsys.readouterr().err
        assert "--plan" in err and len(err.strip().splitlines()) == 1

    def test_bad_f_length(self, tmp_path, w3_file, capsys):
        out = tmp_path / "e"
        code = main(["ergodic", "--kernel", w3_file, "--out", str(out),
                     "--f", "1,0", "--T-grid", "10:20"])
        assert code == 2
        assert "entries" in capsys.readouterr().err

    @pytest.mark.parametrize("f", ["1,nan,0", "1,0,inf", "0,-inf,0"])
    def test_non_finite_f_is_usage_error(self, tmp_path, w3_file, capsys, f):
        code = main(["ergodic", "--kernel", w3_file, "--out", str(tmp_path / "e"),
                     "--f", f, "--T-grid", "10:20"])
        assert code == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "e" / "ergodic.csv").exists()

    @pytest.mark.parametrize("plan", ["dirac:0", "dirac:2"])
    def test_dirac_bounds_finite_on_one_state_kernel(self, tmp_path, plan):
        # both fitted rates are infinite here; the envelope must read 0, not nan
        kf = tmp_path / "one.txt"
        kf.write_text("n 1 time_unit 1\n0.5\n")
        out = tmp_path / "e"
        code = main(["ergodic", "--kernel", str(kf), "--out", str(out),
                     "--f", "1", "--T-grid", "2:6:2", "--plan", plan])
        assert code == 0
        rows = [line.split(",") for line in read_lines(out / "ergodic.csv").splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [2, 4, 6]
        for row in rows:
            assert all(np.isfinite(float(v)) for v in row[1:])

    @pytest.mark.parametrize("rates", [(-0.0123, 0.5), (0.5, 0.0), (math.nan, 0.5)],
                             ids=["negative", "zero", "nan"])
    def test_dirac_plan_without_decay_exits_three(self, tmp_path, w3_file, capsys,
                                                  monkeypatch, rates):
        # a fitted rate that is NaN or <= 0 bounds nothing, as in verify
        monkeypatch.setattr(qprocess, "fitted_rates", lambda core: rates)
        out = tmp_path / "e"
        code = main(["ergodic", "--kernel", w3_file, "--out", str(out),
                     "--f", "1,0,0", "--T-grid", "10:30:10", "--plan", "dirac:5"])
        assert code == 3
        gamma, gamma_prime = (format(r, ".17g") for r in rates)
        assert capsys.readouterr().err == (
            f"vacuous envelope: dirac plan gamma={gamma} gamma_prime={gamma_prime}\n")
        assert len(read_lines(out / "ergodic.csv").splitlines()) == 1 + 3

    def test_uniform_plan_exactly_zero_on_one_state_kernel(self, tmp_path):
        # f is constant on one state: the time average is beta(f) exactly
        kf = tmp_path / "one.txt"
        kf.write_text("n 1 time_unit 1\n0.5\n")
        out = tmp_path / "e"
        code = main(["ergodic", "--kernel", str(kf), "--out", str(out),
                     "--f", "1", "--T-grid", "10:60:10"])
        assert code == 0
        rows = [line.split(",") for line in read_lines(out / "ergodic.csv").splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [10, 20, 30, 40, 50, 60]
        assert all(float(r[1]) == 0.0 for r in rows)


class TestEstimateAndSweep:
    def test_estimate_row_format(self, tmp_path, w3_file):
        out = tmp_path / "est"
        code = main(["estimate", "--kernel", w3_file, "--out", str(out),
                     "--f", "1,0,0", "--N", "5000", "--seed", "3"])
        assert code == 0
        lines = read_lines(out / "estimate.csv").splitlines()
        assert lines[0] == "N,T,t0,N_T,estimate,stderr,exact,abs_error,predicted"
        vals = lines[1].split(",")
        assert int(vals[0]) == 5000

    @pytest.mark.parametrize("sub", ["estimate", "sweep"])
    def test_non_finite_f_is_usage_error(self, tmp_path, w3_file, capsys, sub):
        size = ["--N", "1000"] if sub == "estimate" else ["--N-list", "100,1000"]
        code = main([sub, "--kernel", w3_file, "--out", str(tmp_path / "est"),
                     "--f", "1,nan,0", *size])
        assert code == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and len(err.strip().splitlines()) == 1

    def test_sweep_rows(self, tmp_path, w3_file):
        out = tmp_path / "sw"
        code = main(["sweep", "--kernel", w3_file, "--out", str(out),
                     "--f", "1,0,0", "--N-list", "100,1000", "--reps", "4",
                     "--seed", "9"])
        assert code == 0
        lines = read_lines(out / "sweep.csv").splitlines()
        assert lines[0] == "N,T,t0,N_T,estimate,stderr,exact,abs_error,predicted"
        assert len(lines) == 1 + 2

    def test_sweep_row_extinct_in_every_replication(self, tmp_path, capsys):
        kf = tmp_path / "half.txt"
        write_kernel(SubStochasticKernel([[0.5]]), kf)
        out = tmp_path / "sw"
        code = main(["sweep", "--kernel", str(kf), "--out", str(out), "--f", "1",
                     "--N-list", "1,2", "--reps", "3", "--seed", "0"])
        assert code == 0
        assert capsys.readouterr().err == "some sweep rows went extinct in every replication\n"
        assert read_lines(out / "sweep.csv").splitlines()[1] == "1,1,0,0,nan,nan,1,nan,1"

    def test_hundred_state_estimate_is_fast(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("kind logistic_bd\nn 100\nparams.birth_step 0.003\n")
        f = ",".join(["1"] * 50 + ["0"] * 50)
        start = time.monotonic()
        code = main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "est"),
                     "--f", f, "--N", "1000", "--T", "3", "--t0", "1"])
        assert code == 0
        assert time.monotonic() - start < 5.0

    def test_thread_count_never_changes_bytes(self, tmp_path, w3_file):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}"
            assert main(["sweep", "--kernel", w3_file, "--out", str(out),
                         "--f", "0,1,0", "--N-list", "50,500", "--reps", "3",
                         "--seed", "11", "--threads", threads]) == 0
            outs.append(read_lines(out / "sweep.csv"))
        assert outs[0] == outs[1]

    def test_manifest_records_simulation(self, tmp_path, w3_file):
        runs = {}
        for threads in ("1", "4"):
            for sub, extra in (("estimate", ["--N", "4000"]),
                               ("sweep", ["--N-list", "50,500", "--reps", "3",
                                          "--threads", threads])):
                out = tmp_path / f"{sub}{threads}"
                assert main([sub, "--kernel", w3_file, "--out", str(out), "--f", "0,1,0",
                             "--seed", "11"] + extra) == 0
                manifest = json.loads(read_lines(out / "manifest.json"))
                runs[sub, threads] = (manifest["config_hash"],
                                      read_lines(out / f"{sub}.csv"), manifest["simulation"])
        est = runs["estimate", "1"][2]
        _, T, _, N_T = map(int, runs["estimate", "1"][1].splitlines()[1].split(",")[:4])
        assert est["trajectories"] == 4000
        assert est["survivors"] == N_T
        # a survivor takes T steps, any other trajectory fewer
        assert N_T * T < est["trajectory_steps"] < 4000 * T
        sweep = runs["sweep", "1"][2]
        assert sweep["trajectories"] == 3 * (50 + 500)
        assert sweep["survivors"] < sweep["trajectories"] < sweep["trajectory_steps"]
        for sub in ("estimate", "sweep"):
            (hash1, csv1, rec1), (hash4, csv4, rec4) = runs[sub, "1"], runs[sub, "4"]
            assert (hash1, csv1, rec1) == (hash4, csv4, rec4)


class TestConverseSubcommand:
    def test_w3_certifies(self, tmp_path, w3_file):
        out = tmp_path / "c"
        code = main(["converse", "--kernel", w3_file, "--out", str(out),
                     "--T-max", "60"])
        assert code == 0
        lines = read_lines(out / "converse.csv").splitlines()
        assert lines[0] == "T,sup_pair_tv,envelope"
        assert "certified=True" in lines[-1]

    def test_horizon_below_certified_lag(self, tmp_path, w3_file, capsys):
        # t1 = 2 is certified; no decay-curve point T >= 2 fits under T_max = 1
        out = tmp_path / "c"
        code = main(["converse", "--kernel", w3_file, "--out", str(out), "--T-max", "1"])
        assert code == 0
        assert capsys.readouterr().err == ""
        lines = read_lines(out / "converse.csv").splitlines()
        assert lines[0] == "T,sup_pair_tv,envelope"
        assert lines[1].startswith("# certified=True t1=2 T1=2 delta=")
        assert len(lines) == 2

    def test_exhausted_search_exits_three(self, tmp_path, w3_file, capsys):
        out = tmp_path / "c"
        code = main(["converse", "--kernel", w3_file, "--out", str(out),
                     "--t1-max", "1", "--T-max", "40"])
        assert code == 3
        assert "not certified" in capsys.readouterr().err

    def test_curve_above_envelope_exits_three(self, tmp_path, w3_file, capsys, monkeypatch):
        search = converse.certify_converse

        def broken(K, **limits):
            rep = search(K, **limits)
            curve = [(T, min(1.0, 2.0 * rep.envelope(T))) for T, _ in rep.decay_curve]
            return dataclasses.replace(rep, decay_curve=curve)

        monkeypatch.setattr(converse, "certify_converse", broken)
        out = tmp_path / "c"
        code = main(["converse", "--kernel", w3_file, "--out", str(out), "--T-max", "20"])
        assert code == 3
        assert capsys.readouterr().err == "decay curve above its geometric envelope\n"
        lines = read_lines(out / "converse.csv").splitlines()
        assert "certified=True" in lines[-1] and len(lines) == 2 + 10


class TestPlainNumberMessages:
    """Diagnostics print numbers as plain floats and name the file and line."""

    def test_row_sum_above_one(self, tmp_path, capsys):
        p = tmp_path / "k.txt"
        p.write_text("n 2 time_unit 1\n5 5.3\n0.2 0.3\n")
        assert main(["spectral", "--kernel", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: row 0 sums to 10.3 > 1\n"

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_time_unit_names_file_and_line(self, tmp_path, capsys, value):
        p = tmp_path / "k.txt"
        p.write_text(f"\nn 2 time_unit {value}\n0.1 0.2\n0.2 0.3\n")
        assert main(["spectral", "--kernel", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {p}:2: time_unit must be a positive real\n"

    def test_survival_eigenvalue_at_one(self, tmp_path, capsys):
        p = tmp_path / "k.txt"
        write_kernel(SubStochasticKernel([[0.9, 0.1], [0.5, 0.5 - 1.1e-12]]), p)
        assert main(["spectral", "--kernel", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: survival eigenvalue 0.99999999999")
        assert err.endswith(" >= 1: kernel has no absorption\n") and "np." not in err

    def test_weights_that_do_not_sum_to_one(self, t3):
        from qsd.kernels import conditioned_evolve

        with pytest.raises(ValueError) as exc:
            conditioned_evolve(t3, np.array([0.5, 0.25]), 1)
        assert str(exc.value) == "weights sum to 0.75, not 1"


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate", "--out", "x"]) == 2

    # the arguments each subcommand requires besides --out
    REQUIRED = {"model": ["--config", "m.cfg"], "spectral": [], "verify": [],
                "ergodic": ["--f", "1", "--T-grid", "1:2"], "estimate": ["--f", "1", "--N", "1"],
                "sweep": ["--f", "1", "--N-list", "1"], "converse": []}

    @pytest.mark.parametrize("threads", ["0", "-2", "two", "1.5"])
    @pytest.mark.parametrize("sub", list(REQUIRED))
    def test_threads_must_be_positive(self, tmp_path, capsys, sub, threads):
        # sweep refuses the value; every other subcommand refuses the option
        argv = [sub, "--out", str(tmp_path / "x")] + self.REQUIRED[sub]
        assert main(argv + ["--threads", threads]) == 2
        err = capsys.readouterr().err
        assert "--threads" in err and len(err.strip().splitlines()) == 1
        assert ("must be a positive integer" in err) == (sub == "sweep")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("sub, option", [
        (sub, "--seed") for sub in ("spectral", "verify", "ergodic", "converse")] + [
        (sub, "--threads") for sub in ("model", "spectral", "verify", "ergodic", "estimate",
                                       "converse")])
    def test_option_that_changes_nothing_is_refused(self, tmp_path, capsys, sub, option):
        argv = [sub, "--out", str(tmp_path / "x")] + self.REQUIRED[sub] + [option, "2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"qsd: error: unrecognized arguments: {option} 2\n"
        assert not (tmp_path / "x").exists()

    def test_no_kernel_source(self, tmp_path, capsys):
        assert main(["spectral", "--out", str(tmp_path / "x")]) == 2
        assert "--kernel" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-12"])
    def test_bad_spectral_tol_exits_at_once(self, tmp_path, w3_file, capsys, tol):
        start = time.monotonic()
        code = main(["spectral", "--kernel", w3_file, "--out", str(tmp_path / "s"),
                     "--tol", tol])
        assert code == 2
        assert time.monotonic() - start < 1.0
        assert "tol" in capsys.readouterr().err

    def test_missing_kernel_file(self, tmp_path, capsys):
        code = main(["spectral", "--kernel", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("case", ["kernel_dir", "config_dir", "out_file", "out_under_file"])
    def test_path_errors_are_usage_errors(self, tmp_path, w3_file, capsys, case):
        # IsADirectoryError, FileExistsError and NotADirectoryError end in
        # one line and exit 2, like a missing file
        taken = tmp_path / "taken.txt"
        taken.write_text("x\n")
        argv = {
            "kernel_dir": ["--kernel", str(tmp_path), "--out", str(tmp_path / "o")],
            "config_dir": ["--config", str(tmp_path), "--out", str(tmp_path / "o")],
            "out_file": ["--kernel", w3_file, "--out", str(taken)],
            "out_under_file": ["--kernel", w3_file, "--out", str(taken / "sub")],
        }[case]
        assert main(["spectral"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv, name", [
        (["ergodic", "--f", "0,0.5,1", "--T-grid", "1:10:0"], "--T-grid"),
        (["ergodic", "--f", "0,0.5,1", "--T-grid", "10:5:-1"], "--T-grid"),
        (["ergodic", "--f", "0,0.5,1", "--T-grid", "10:5", "--plan", "dirac:1"], "--T-grid"),
        (["ergodic", "--f", "0,0.5,1", "--T-grid", "10:5"], "--T-grid"),
        (["ergodic", "--f", "0,0.5,1", "--T-grid", "10,,20"], "--T-grid"),
        (["ergodic", "--f", "0,0.5,1", "--T-grid", "1:2:3:4"], "--T-grid"),
        (["sweep", "--f", "0,0.5,1", "--N-list", "10,"], "--N-list"),
        (["verify", "--pair-t-max", "0"], "--pair-t-max"),
    ], ids=["zero_step", "negative_step", "empty_dirac_grid", "empty_uniform_grid", "empty_token",
            "four_parts", "empty_N_token", "no_pairs"])
    def test_bad_grid_names_its_argument(self, tmp_path, w3_file, capsys, argv, name):
        assert main(argv + ["--kernel", w3_file, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert name in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv", [
        ["ergodic", "--f", "1,,0", "--T-grid", "10:60:10"],
        ["estimate", "--f", "1,0,", "--N", "1000"],
        ["sweep", "--f", "1,x,0", "--N-list", "100,1000"],
    ], ids=["ergodic", "estimate", "sweep"])
    def test_bad_f_entry_names_f(self, tmp_path, w3_file, capsys, argv):
        assert main(argv + ["--kernel", w3_file, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "--f" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x").exists()

    def test_monte_carlo_arguments_name_their_flag(self, tmp_path, w3_file, capsys):
        cases = [
            (["estimate", "--f", "1,0,0", "--N", "1000", "--x0", "5"], "--x0"),
            (["sweep", "--f", "1,0,0", "--N-list", "100,1000", "--x0", "-1"], "--x0"),
            (["estimate", "--f", "1,0,0", "--N", "0"], "--N"),
            (["sweep", "--f", "1,0,0", "--N-list", "100,1000", "--reps", "0"], "--reps"),
            (["sweep", "--f", "1,0,0", "--N-list", "1000,100"], "--N-list"),
            (["sweep", "--f", "1,0,0", "--N-list", "0,100"], "--N-list"),
            (["estimate", "--f", "1,0,0", "--N", "1000", "--T", "-1"], "--T"),
            (["estimate", "--f", "1,0,0", "--N", "1000", "--T", "5", "--t0", "6"], "--t0"),
        ]
        for argv, name in cases:
            assert main(argv + ["--kernel", w3_file, "--out", str(tmp_path / "x")]) == 2, argv
            err = capsys.readouterr().err
            # the flag as a word: "--N" must not pass on "--N-list"
            assert name in err.replace(":", " ").split(), (argv, err)
            assert len(err.strip().splitlines()) == 1, (argv, err)
            assert not (tmp_path / "x").exists()


    @pytest.mark.parametrize("argv, name", [
        (["converse", "--t1-max", "0"], "--t1-max"),
        (["converse", "--T-max", "-3"], "--T-max"),
        (["converse", "--T-max", "2.5"], "--T-max"),
        (["spectral", "--tol", "0"], "--tol"),
        (["spectral", "--tol", "inf"], "--tol"),
        (["spectral", "--tol", "nan"], "--tol"),
    ], ids=["t1_max_zero", "T_max_negative", "T_max_fraction", "tol_zero", "tol_inf",
            "tol_nan"])
    def test_search_limits_and_tol_name_their_flag(self, tmp_path, w3_file, capsys, argv, name):
        assert main(argv + ["--kernel", w3_file, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert name in err.replace(":", " ").split(), err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x").exists()


class TestParserBuiltOnce:
    def test_one_parser_with_immutable_defaults(self):
        from qsd import cli

        parser = cli._build_parser()
        assert cli._build_parser() is parser
        subparsers = [a for a in parser._actions if a.choices and isinstance(a.choices, dict)]
        options = {name: [o for a in p._actions if a.dest != "help" for o in a.option_strings]
                   for sp in subparsers for name, p in sp.choices.items()}
        source = ["--kernel", "--config", "--out"]
        assert options == {
            "model": ["--config", "--out", "--seed"],
            "spectral": source + ["--tol"],
            "verify": source + ["--t-max", "--pair-t-max", "--pair-lag-max"],
            "ergodic": source + ["--f", "--T-grid", "--plan"],
            "estimate": source + ["--f", "--N", "--T", "--t0", "--x0", "--seed"],
            "sweep": source + ["--f", "--N-list", "--reps", "--x0", "--seed", "--threads"],
            "converse": source + ["--t1-max", "--T-max"],
        }
        assert sum(map(len, options.values())) == 42
        defaults = [(name, a.dest, a.default) for sp in subparsers
                    for name, p in sp.choices.items() for a in p._actions]
        for name, dest, value in defaults:
            assert value is None or isinstance(value, (bool, int, float, str)), (name, dest)

    def test_a_parse_leaves_no_trace_on_the_next(self, tmp_path, w3_file, monkeypatch, capsys):
        from qsd import cli

        seen = []
        monkeypatch.setattr(cli, "cmd_converse", lambda args: seen.append(vars(args)) or 0)
        base = ["converse", "--kernel", w3_file, "--out", str(tmp_path / "o")]
        assert main(base + ["--T-max", "7", "--t1-max", "4"]) == 0
        assert main(["spectral", "--tol", "nan", "--out", str(tmp_path / "x")]) == 2
        assert main(base) == 0
        assert [(a["T_max"], a["t1_max"]) for a in seen] == [(7, 4), (200, None)]


class TestWithoutMpmath:
    def test_reports_run_without_mpmath(self, tmp_path, w3_file):
        # extended precision is a test oracle only: no report may import it
        script = (
            "import sys; sys.modules['mpmath'] = None\n"
            "from qsd.cli import main\n"
            f"argv = ['--kernel', {w3_file!r}, '--out', {str(tmp_path / 'o')!r}]\n"
            "codes = [main(['verify'] + argv),\n"
            "         main(['ergodic', '--f', '0,0.5,1', '--T-grid', '10:60:10'] + argv),\n"
            "         main(['ergodic', '--f', '0,0.5,1', '--T-grid', '20,30', '--plan', 'dirac:5']\n"
            "              + argv)]\n"
            "sys.exit(max(codes))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestRerunByteIdentical:
    def test_spectral_and_verify_rerun(self, tmp_path, w3_file):
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            main(["spectral", "--kernel", w3_file, "--out", str(out)])
            main(["verify", "--kernel", w3_file, "--out", str(out),
                  "--t-max", "40", "--pair-t-max", "3", "--pair-lag-max", "10"])
            texts.append(
                read_lines(out / "spectral.csv")
                + read_lines(out / "eta_bound.csv")
                + read_lines(out / "qproc_approx.csv")
                + read_lines(out / "q_mixing.csv")
            )
        assert texts[0] == texts[1]

    def test_golden_kernel_available(self):
        assert str(golden_kernel_path()).endswith("w3.txt")


# Pinned runs: every subcommand that reads the deflated core, on the kernels
# whose CSVs must stay byte-identical (f = (x mod 3)/2; f = 1 on [[0.5]]).
# The digests in pinned_runs.json are the SHA-256 of each CSV, of stderr, and
# the exit code of each run.
PINNED_KERNELS = {
    "w3": models.w3,
    "t3": models.t3,
    "rs8": lambda: models.random_substochastic(8, 3),
    "half": lambda: SubStochasticKernel([[0.5]]),
}
PINNED_RUNS = {
    "verify": ["verify"],
    "converse": ["converse"],
    "ergodic_uniform": ["ergodic", "--plan", "uniform", "--T-grid", "10:200:10"],
    "ergodic_dirac": ["ergodic", "--plan", "dirac:5", "--T-grid", "5:60:5"],
    "estimate": ["estimate", "--N", "2000"],
    "sweep": ["sweep", "--N-list", "100,200,400", "--reps", "8"],
}
PINNED_DIGESTS = Path(__file__).with_name("pinned_runs.json")


def pinned_digests(name, workdir, capsys, runs=PINNED_RUNS):
    """{run: {"exit": code, "stderr": sha256, <csv name>: sha256}} for one kernel."""
    K = PINNED_KERNELS[name]()
    kf = Path(workdir) / f"{name}.txt"
    write_kernel(K, kf)
    f = "1" if name == "half" else ",".join(str((x % 3) / 2) for x in range(K.n))
    digests = {}
    for run, argv in runs.items():
        out = Path(workdir) / run
        extra = ["--f", f] if argv[0] in ("ergodic", "estimate", "sweep") else []
        capsys.readouterr()
        code = main(argv + extra + ["--kernel", str(kf), "--out", str(out)])
        record = {"exit": code,
                  "stderr": hashlib.sha256(capsys.readouterr().err.encode()).hexdigest()}
        for csv in sorted(out.glob("*.csv")):
            record[csv.name] = hashlib.sha256(csv.read_bytes()).hexdigest()
        digests[run] = record
    return digests


class TestPinnedRuns:
    @pytest.mark.parametrize("name", sorted(PINNED_KERNELS))
    def test_outputs_match_pinned_digests(self, tmp_path, capsys, name):
        want = json.loads(PINNED_DIGESTS.read_text())[name]
        got = pinned_digests(name, tmp_path, capsys)
        for run in PINNED_RUNS:
            for key in sorted(set(want[run]) | set(got[run])):
                assert got[run].get(key) == want[run].get(key), f"{name} {run}: {key} differs"

    @pytest.mark.parametrize("name", sorted(PINNED_KERNELS))
    def test_sweep_on_two_workers_matches_pinned_digests(self, tmp_path, capsys, monkeypatch,
                                                         name):
        monkeypatch.setattr(estimator, "_usable_cpus", lambda: 2)
        want = json.loads(PINNED_DIGESTS.read_text())[name]["sweep"]
        got = pinned_digests(name, tmp_path, capsys,
                             {"sweep": PINNED_RUNS["sweep"] + ["--threads", "2"]})
        assert got["sweep"] == want
        assert multiprocessing.active_children() == []



class TestCsvRows:
    """A row formatted at once matches the per-cell rule of ``_fmt``."""

    EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
             2.2250738585072014e-308, 1.5e-310, 0.1, 1 / 3, 1e300, -1.7976931348623157e308,
             np.float64(-2.5e-320), np.float32(0.1)]
    INTS = [0, True, 2**53 + 1, -(2**63), 2**70, np.int64(-7), np.uint64(2**64 - 1)]

    def _per_cell(self, rows):
        return [",".join(cli._fmt(x) for x in row) for row in rows]

    def _written(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), "h", rows, "# end")
        lines = path.read_text().split("\n")
        assert lines[0] == "h" and lines[-2:] == ["# end", ""]
        return lines[1:-2]

    def test_edge_values(self, tmp_path):
        rows = [self.EDGES, self.INTS, [None, 1.5, None, 3, None], [None], [],
                (7, math.nan, None, 2**60), [x for x in reversed(self.EDGES + self.INTS)]]
        assert self._written(tmp_path, rows) == self._per_cell(rows)

    def test_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(5).integers(0, 2**64, (2000, 5), dtype=np.uint64)
        rows = [(i, *row) for i, row in enumerate(bits.view(np.float64))]
        assert self._written(tmp_path, rows) == self._per_cell(rows)


class TestSweepWorkers:
    """sweep --threads N: how many worker processes, and that none outlives the sweep."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(estimator, "_usable_cpus", lambda: 2)

    @staticmethod
    def sweep(w3_file, out, threads="2"):
        return main(["sweep", "--kernel", w3_file, "--out", str(out), "--f", "0,0.5,1",
                     "--N-list", "50,500", "--reps", "3", "--seed", "5", "--threads", threads])

    @pytest.fixture()
    def pools(self, monkeypatch):
        """The size of each pool a sweep asks for; its jobs run at once, in this process."""
        asked = []

        class Recording:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def submit(self, fn, *args):
                done = concurrent.futures.Future()
                done.set_result(fn(*args))
                return done

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(estimator, "_bound", None)
        return asked

    @pytest.mark.parametrize("threads,cpus,want", [
        ("64", 3, [3]),  # capped at the usable CPUs
        ("64", 64, [6]),  # capped at the 2 x 3 replications
        ("2", 64, [2]),
        ("64", 1, []),  # one worker: the inline loop, no pool
        ("1", 64, []),
    ])
    def test_worker_count_capped(self, tmp_path, w3_file, monkeypatch, pools, threads, cpus,
                                 want):
        monkeypatch.setattr(estimator, "_usable_cpus", lambda: cpus)
        assert self.sweep(w3_file, tmp_path / "inline", "1") == 0
        assert self.sweep(w3_file, tmp_path / "pool", threads) == 0
        assert pools == want
        assert (read_lines(tmp_path / "pool" / "sweep.csv")
                == read_lines(tmp_path / "inline" / "sweep.csv"))

    def test_no_fork_beside_another_thread(self, tmp_path, w3_file, pools):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert self.sweep(w3_file, tmp_path / "s", "2") == 0
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert pools == []

    def test_no_worker_outlives_a_sweep(self, tmp_path, w3_file, capfd):
        assert self.sweep(w3_file, tmp_path / "s") == 0
        assert multiprocessing.active_children() == []
        # the pool's threads are gone too, so the next sweep may fork again
        assert threading.active_count() == 1
        assert capfd.readouterr().err == ""

    def test_worker_value_error_is_one_line_exit_two(self, tmp_path, w3_file, monkeypatch,
                                                      capfd):
        parent = os.getpid()

        def refuse(*args):
            assert os.getpid() != parent, "a replication ran in the parent"
            raise ValueError("refused in a worker")

        monkeypatch.setattr(estimator, "_simulate", refuse)
        assert self.sweep(w3_file, tmp_path / "s") == 2
        assert capfd.readouterr().err == "error: refused in a worker\n"
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_one_line_exit_one(self, tmp_path, w3_file, monkeypatch, capfd):
        parent = os.getpid()

        def die(*args):
            assert os.getpid() != parent, "a replication ran in the parent"
            os._exit(7)

        monkeypatch.setattr(estimator, "_simulate", die)
        assert self.sweep(w3_file, tmp_path / "s") == 1
        err = capfd.readouterr().err
        assert err.startswith("runtime error: ") and err.count("\n") == 1, err
        assert multiprocessing.active_children() == []


class TestOneCorePerCommand:
    """Each command refines the Perron triple once; verify walks D_t once."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        from qsd import deflation

        counts = {"refine": 0, "rows": 0, "survival": 0}
        refine, rows = deflation._refine_triple, deflation.Deflation.rows
        project = deflation.Deflation._project_survival

        def counting_refine(*args):
            counts["refine"] += 1
            return refine(*args)

        def counting_rows(self, t_max):
            for D in rows(self, t_max):
                counts["rows"] += 1
                yield D

        def counting_survival(self, *args):
            counts["survival"] += 1
            return project(self, *args)

        monkeypatch.setattr(deflation, "_refine_triple", counting_refine)
        monkeypatch.setattr(deflation.Deflation, "rows", counting_rows)
        monkeypatch.setattr(deflation.Deflation, "_project_survival", counting_survival)
        return counts

    def test_verify_refines_once_and_walks_once(self, tmp_path, w3_file, counts):
        assert main(["verify", "--kernel", w3_file, "--out", str(tmp_path / "v")]) == 0
        assert counts["refine"] == 1
        # D_0 .. D_200 for the series, D_0 .. D_10 for the bridge gaps
        assert counts["rows"] <= 200 + 10 + 2

    @pytest.mark.parametrize("kernel", ["w3", "rs64"])
    def test_verify_batches_the_bridge_gaps(self, tmp_path, monkeypatch, kernel):
        from qsd import deflation

        calls = {"_gap_block": 0}
        gap_block = deflation.Deflation._gap_block

        def counting(self, *args):
            calls["_gap_block"] += 1
            return gap_block(self, *args)

        monkeypatch.setattr(deflation.Deflation, "_gap_block", counting)
        K = models.w3() if kernel == "w3" else models.random_substochastic(64, 5)
        kf = tmp_path / "k.txt"
        write_kernel(K, kf)
        assert main(["verify", "--kernel", str(kf), "--out", str(tmp_path / "v")]) == 0
        # per t = 1 .. pair_t_max, one batched product per chunk of the 50
        # lags (all of them at n = 3), and none per pair
        per_t = -(-50 // deflation._chunk(K.n))
        assert calls == {"_gap_block": 10 * per_t}
        assert per_t == (1 if kernel == "w3" else 2)

    @pytest.mark.parametrize("argv", [
        ["ergodic", "--f", "0,0.5,1", "--T-grid", "5:60:5", "--plan", "dirac:5"],
        ["ergodic", "--f", "0,0.5,1", "--T-grid", "10:60:10"],
        ["estimate", "--f", "0,0.5,1", "--N", "200"],
        ["sweep", "--f", "0,0.5,1", "--N-list", "100,200", "--reps", "2"],
        ["converse"],
    ], ids=["ergodic_dirac", "ergodic_uniform", "estimate", "sweep", "converse"])
    def test_command_refines_once(self, tmp_path, w3_file, counts, argv):
        assert main(argv + ["--kernel", w3_file, "--out", str(tmp_path / "o")]) == 0
        assert counts["refine"] == 1

    def test_dirac_plan_walks_survival_once(self, tmp_path, w3_file, counts):
        # the rate fit's series walks e_0 .. e_60 and the plan deviations read
        # or extend that one walk: one projected step per e_t
        for T_max in (60, 100):
            counts["survival"] = 0
            assert main(["ergodic", "--f", "0,0.5,1", "--T-grid", f"5:{T_max}:5", "--plan",
                         "dirac:5", "--kernel", w3_file, "--out", str(tmp_path / "o")]) == 0
            assert counts["survival"] == T_max + 1
