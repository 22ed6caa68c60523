import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from lpsq.cli import cli_run, main
from lpsq.dyadic import SparseFamily
from lpsq.errors import ConfigError
from lpsq.grids import load_binary

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
from workloads import CAMPAIGNS as CLI_CAMPAIGNS  # noqa: E402


def run_main(args):
    return main(args)


class TestSubcommands:
    def test_dini_prints_three(self, tmp_path, capsys):
        rc = run_main(["--out-dir", str(tmp_path), "dini", "--modulus", "power:0.5"])
        out = capsys.readouterr().out.strip()
        assert rc == 0
        assert float(out) == pytest.approx(3.0, abs=1e-6)
        assert out == "3.0"

    def test_dini_suite_summary(self, tmp_path):
        rc = run_main(["--out-dir", str(tmp_path), "dini", "--modulus", "log:3",
                       "--suite"])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        names = {it["name"] for it in summary["items"]}
        assert "suite_c" in names and summary["passed"]

    def test_dini_table_modulus_verdicts(self, tmp_path, capsys):
        """w(t) = t on a table with a (0, 0) row: the constant is the exact
        segment sum, 2; over a positive floor the table is not Dini."""
        ts = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 64)])
        dini_path, floored = tmp_path / "w.csv", tmp_path / "f.csv"
        dini_path.write_text("\n".join(f"{t},{t}" for t in ts))
        floored.write_text("\n".join(f"{t},{max(t, 1e-3)}" for t in ts))
        out = tmp_path / "dini"
        assert run_main(["--out-dir", str(out), "dini", "--modulus", f"csv:{dini_path}"]) == 0
        assert capsys.readouterr().out.strip() == "2.0"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["items"] == [{"name": "dini_finite", "pass": True,
                                     "value": pytest.approx(2.0, abs=1e-10)}]
        out = tmp_path / "floored"
        assert run_main(["--out-dir", str(out), "dini", "--modulus", f"csv:{floored}"]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["passed"] and "diverges" in summary["error"]

    @pytest.mark.parametrize("args", [
        ["sparse", "--kernel", "ex1:kappa=2.2", "--h", "0.125"],
        ["dini", "--suite", "--modulus", "log:2.2"],
    ], ids=["sparse", "dini-suite"])
    def test_dini_not_log_dini_range_runs(self, tmp_path, args):
        """kappa = 2.2 is Dini but not log-Dini: the paper's new range."""
        outs = []
        for d in (tmp_path / "a", tmp_path / "b"):
            assert run_main(["--out-dir", str(d)] + args) == 0
            outs.append({f.name: f.read_bytes() for f in sorted(d.iterdir())})
        assert outs[0] == outs[1]

    def test_kernel_check(self, tmp_path):
        rc = run_main(["--out-dir", str(tmp_path), "kernel-check",
                       "--kernel", "ex1:kappa=3", "--mode", "size"])
        assert rc == 0
        assert (tmp_path / "kernel_check.csv").exists()

    def test_eval_writes_grid_files(self, tmp_path):
        rc = run_main(["--out-dir", str(tmp_path), "eval", "--op", "s",
                       "--kernel", "ex1:kappa=3", "--function", "gaussian",
                       "--h", "0.125"])
        assert rc == 0
        out = load_binary(str(tmp_path / "square_function.bin"))
        assert out.norm_l2() > 0

    def test_eval_bilinear(self, tmp_path):
        rc = run_main(["--out-dir", str(tmp_path), "eval", "--op", "s",
                       "--kind", "bilinear", "--kernel", "bi1:kappa=3",
                       "--function", "gaussian", "--function2", "hat",
                       "--R", "4", "--h", "0.125"])
        assert rc == 0

    def test_eval_bilinear_oracle_agrees(self, tmp_path):
        args = ["eval", "--op", "s", "--kind", "bilinear", "--kernel", "bi1:kappa=3",
                "--function", "gaussian", "--function2", "hat", "--R", "4", "--h", "0.125"]
        vals = []
        for name, extra in (("fft", []), ("direct", ["--oracle"])):
            out = tmp_path / name
            assert run_main(["--out-dir", str(out), *extra, *args]) == 0
            vals.append(np.genfromtxt(out / "square_function.csv", delimiter=",",
                                      skip_header=1))
        assert vals[0].shape == vals[1].shape == (64, 2)
        assert np.array_equal(vals[0][:, 0], vals[1][:, 0])
        assert np.max(np.abs(vals[0][:, 1] - vals[1][:, 1])) <= 1e-10 * np.max(vals[1][:, 1])

    def test_verify_sparse_bad_family_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"eta": 0.5, "n": 1, "base": 16.0, "cubes": []}))
        out = tmp_path / "v"
        rc = run_main(["--out-dir", str(out), "verify", "sparse", "--family", str(bad)])
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["passed"] and "root" in summary["error"]

    @pytest.mark.parametrize("family", ["missing.json", "."],
                             ids=["missing-file", "directory"])
    def test_verify_sparse_unreadable_family_exits_2(self, tmp_path, capsys, family):
        out = tmp_path / "v"
        rc = run_main(["--out-dir", str(out), "verify", "sparse",
                       "--family", str(tmp_path / family)])
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["passed"] and "cannot read" in summary["error"]
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["missing.csv", "."], ids=["missing-file", "directory"])
    @pytest.mark.parametrize("campaign, flag", [
        ("dini", "--modulus"), ("eval", "--function"), ("kernel-check", "--kernel"),
    ])
    def test_unreadable_csv_id_exits_2(self, tmp_path, capsys, campaign, flag, path):
        """A ``csv:`` id naming a missing file or a directory is a
        ConfigError: exit 2, with the error in summary.json."""
        out = tmp_path / "o"
        rc = run_main(["--out-dir", str(out), campaign, flag, f"csv:{tmp_path / path}"])
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["passed"] and "cannot read" in summary["error"]
        assert summary["campaign"] == campaign
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("campaign, flag", [
        ("dini", "--modulus"), ("kernel-check", "--kernel"),
    ])
    def test_malformed_csv_id_exits_2(self, tmp_path, capsys, campaign, flag):
        """A ``csv:`` table with a one-column row is a ConfigError: exit 2,
        with the error in summary.json."""
        path, out = tmp_path / "bad.csv", tmp_path / "o"
        path.write_text("0.1\n0.5,0.5\n1,1\n")
        rc = run_main(["--out-dir", str(out), campaign, flag, f"csv:{path}"])
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["passed"] and "two numbers" in summary["error"]
        assert summary["campaign"] == campaign
        assert "two numbers" in capsys.readouterr().err

    def test_config_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run_main(["--config", str(tmp_path), "--out-dir", str(out), "dini"])
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["passed"] and "cannot read" in summary["error"]
        assert summary["campaign"] == "dini"
        assert "cannot read" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="cannot read"):
            cli_run(str(tmp_path))

    def test_cz_campaign(self, tmp_path):
        rc = run_main(["--out-dir", str(tmp_path), "cz", "--function", "box:1",
                       "--rho", "0.5", "--h", "0.0078125"])
        assert rc == 0
        assert (tmp_path / "cz" / "manifest.json").exists()

    def test_sparse_emits_verifiable_family(self, tmp_path):
        rc = run_main(["--out-dir", str(tmp_path), "sparse",
                       "--kernel", "ex1:kappa=3", "--alpha", "1",
                       "--function", "bump:1.5", "--h", "0.0625"])
        assert rc == 0
        fam_path = tmp_path / "sparse_family.json"
        assert fam_path.exists()
        rc2 = run_main(["--out-dir", str(tmp_path / "v"), "verify", "sparse",
                        "--family", str(fam_path)])
        assert rc2 == 0
        fam = SparseFamily.load(str(fam_path))
        assert fam.eta == 0.5

    def test_verify_aperture_summary(self, tmp_path):
        rc = run_main(["--out-dir", str(tmp_path), "verify", "aperture",
                       "--alphas", "1", "2", "4", "--h", "0.0625"])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        names = {it["name"] for it in summary["items"]}
        assert {"ratio_alpha_1", "ratio_alpha_2", "ratio_alpha_4"} <= names

    @pytest.mark.parametrize("alphas, named", [
        (["0"], "lowest cone level has no nonzero offsets"),
        (["nan"], "alpha must be finite, got nan"),
        (["1", "inf"], "alpha must be finite, got inf"),
        (["-1"], "lowest cone level has no nonzero offsets"),
    ], ids=["zero", "nan", "inf", "negative"])
    def test_verify_aperture_bad_alphas_exit_2(self, tmp_path, capsys, alphas, named):
        rc = run_main(["--out-dir", str(tmp_path), "verify", "aperture",
                       "--alphas", *alphas, "--h", "0.0625"])
        assert rc == 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert not summary["passed"] and named in summary["error"]
        assert named in capsys.readouterr().err

    def test_verify_aperture_below_one_passes(self, tmp_path):
        rc = run_main(["--out-dir", str(tmp_path), "verify", "aperture",
                       "--alphas", "0.5", "--h", "0.0625"])
        assert rc == 0

    def test_gstar_nan_lambda_exits_2(self, tmp_path, capsys):
        rc = run_main(["--out-dir", str(tmp_path), "eval", "--op", "gstar",
                       "--lam", "nan", "--R", "2", "--h", "0.25"])
        assert rc == 2
        assert "lambda must be finite" in capsys.readouterr().err

    def test_verify_weak(self, tmp_path):
        rc = run_main(["--out-dir", str(tmp_path), "verify", "weak",
                       "--h", "0.125"])
        assert rc == 0

    def test_verify_marcinkiewicz(self, tmp_path):
        rc = run_main(["--out-dir", str(tmp_path), "verify", "marcinkiewicz",
                       "--modulus", "power:1", "--h", "0.125"])
        assert rc == 0


class TestConfigAndErrors:
    def test_config_file_run(self, tmp_path):
        cfg = {"campaign": "dini", "modulus": "power:0.25",
               "out_dir": str(tmp_path / "o")}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli_run(str(p)) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["passed"]

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"campaign": "dini", "alhpa": 2.0,
                                 "out_dir": str(tmp_path / "o")}))
        with pytest.raises(ConfigError, match="alhpa"):
            cli_run(str(p))
        # the evaluation method is set by --oracle only
        p.write_text(json.dumps({"campaign": "dini", "method": "direct",
                                 "out_dir": str(tmp_path / "o")}))
        with pytest.raises(ConfigError, match="method"):
            cli_run(str(p))
        p.write_text(json.dumps({"campaign": "dini", "alhpa": 2.0,
                                 "out_dir": str(tmp_path / "o")}))
        rc = run_main(["--config", str(p), "--out-dir", str(tmp_path / "m"), "dini"])
        assert rc == 2
        assert "alhpa" in capsys.readouterr().err

    @pytest.mark.parametrize("campaign, edit, named", [
        ("cz", {"rho": "abc"}, "'rho': 'abc'"),
        ("sparse", {"eta": "x"}, "'eta': 'x'"),
        ("eval", {"h": "x"}, "'h': 'x'"),
        ("dini", {"tol": [1]}, "'tol': [1]"),
        ("dini", {"n": "1.5"}, "'n': '1.5'"),
        ("dini", {"seed": 1e400}, "'seed': inf"),
        ("dini", {"alphas": [1.0, "two"]}, "'alphas': 'two'"),
        ("dini", {"alphas": 2.0}, "'alphas'"),
        ("dini", {"cone": {"q": "four"}}, "'cone.q': 'four'"),
        ("dini", {"cone": {"tmin": "small"}}, "'cone.tmin': 'small'"),
        ("eval", {"kernel": 5}, "'kernel': 5 is not str"),
        ("eval", {"function": None}, "'function': None is not str"),
        ("cz", {"weight": 3}, "'weight': 3 is not str"),
        ("dini", {"rho_grid": ["x"]}, "'rho_grid': 'x' is not float"),
        ("dini", {"rho_grid": 5}, "'rho_grid': 5 is not a nonempty list"),
        ("dini", {"n": 1.5}, "'n': 1.5 is not int"),
        ("dini", {"n": True}, "'n': True is not int"),
        ("dini", {"seed": 2.7}, "'seed': 2.7 is not int"),
        ("dini", {"cone": {"q": 4.5}}, "'cone.q': 4.5 is not int"),
        ("dini", {"oracle": "false"}, "'oracle': 'false' is not bool"),
        ("eval", {"kind": "trilinear"}, "'kind': 'trilinear' is not one of"),
        ("dini", {"alphas": []}, "'alphas': [] is not a nonempty list"),
        ("kernel-check", {"gamma_log": 0}, "unknown config keys ['gamma_log']"),
    ], ids=["cz-rho", "sparse-eta", "eval-h", "tol-list", "n-text", "seed-inf",
            "alphas-entry", "alphas-scalar", "cone-q", "cone-tmin", "kernel-int",
            "function-null", "weight-int", "rho-grid-entry", "rho-grid-scalar",
            "n-float", "n-bool", "seed-float", "cone-q-float", "oracle-text",
            "kind-choice", "alphas-empty", "gamma-log"])
    def test_bad_number_in_config_exits_2(self, tmp_path, capsys, campaign, edit, named):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"campaign": campaign, "out_dir": str(tmp_path / "o"),
                                 **edit}))
        with pytest.raises(ConfigError, match=re.escape(named)):
            cli_run(str(p))
        rc = run_main(["--config", str(p), "--out-dir", str(tmp_path / "m"), campaign])
        assert rc == 2
        assert named in capsys.readouterr().err

    def test_unknown_id_is_config_error(self, tmp_path):
        rc = run_main(["--out-dir", str(tmp_path), "dini", "--modulus", "zzz:9"])
        assert rc == 2

    def test_bilinear_eval_without_function2_exits_2(self, tmp_path, capsys):
        rc = run_main(["--out-dir", str(tmp_path), "eval", "--kind", "bilinear",
                       "--kernel", "bi1:kappa=3", "--h", "0.25"])
        assert rc == 2
        assert "function2" in capsys.readouterr().err

    @pytest.mark.parametrize("args, bad", [
        (["eval", "--h", "0"], "h=0.0"),
        (["cz", "--h", "0"], "h=0.0"),
        (["eval", "--n", "2", "--h", "0"], "h=0.0"),
        (["eval", "--R", "-1"], "R=-1.0"),
    ])
    def test_nonpositive_grid_exits_2(self, tmp_path, capsys, args, bad):
        rc = run_main(["--out-dir", str(tmp_path), *args])
        assert rc == 2
        assert bad in capsys.readouterr().err
        assert bad in json.loads((tmp_path / "summary.json").read_text())["error"]

    @pytest.mark.parametrize("gamma, named", [
        ("-1", "finite and positive"), ("0", "finite and positive"),
        ("nan", "finite and positive"), ("abc", "'abc'"),
    ])
    def test_bad_gamma_exits_2(self, tmp_path, capsys, gamma, named):
        rc = run_main(["--out-dir", str(tmp_path), "sparse", "--R", "2", "--h", "0.25",
                       "--gamma", gamma])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert "gamma" in json.loads((tmp_path / "summary.json").read_text())["error"]

    @pytest.mark.parametrize("config, args, named", [
        ({"cone": {"tmin": math.nan}}, ["sparse"], "need 0 < t_min <= t_max"),
        ({"cone": {"tmax": math.nan}}, ["sparse"], "need 0 < t_min <= t_max"),
        ({}, ["eval", "--alpha", "nan"], "alpha must be >= 1, got nan"),
        ({}, ["eval", "--alpha", "inf"], "alpha must be finite, got inf"),
    ], ids=["cone-tmin", "cone-tmax", "alpha", "alpha-inf"])
    def test_nan_cone_parameter_exits_2(self, tmp_path, capsys, config, args, named):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"campaign": args[0], **config}))  # json writes NaN
        rc = run_main(["--config", str(p), "--out-dir", str(tmp_path / "o"), *args])
        assert rc == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("config, args, named", [
        ({"cone": {"tmin": 0}}, ["sparse"], "need 0 < t_min <= t_max"),
        ({"cone": {"q": 0}}, ["sparse"], "q (levels per octave) must be >= 1"),
        ({"cone": {"tmin": 0}}, ["eval", "--op", "gstar"], "need 0 < t_min <= t_max"),
        ({"rho_grid": []}, ["verify", "weak"], "'rho_grid': [] is not a nonempty list"),
    ], ids=["cone-tmin", "cone-q", "gstar-tmin", "rho-grid"])
    def test_explicit_value_is_not_replaced_by_default(self, tmp_path, capsys, config,
                                                       args, named):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config))
        rc = run_main(["--config", str(p), "--out-dir", str(tmp_path / "o"), *args,
                       "--R", "2", "--h", "0.25"])
        assert rc == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["kernel-check", "--mode", "log_ratio"],
        ["kernel-check", "--gamma-log", "0"],
        ["verify", "domination"],
    ], ids=["log-ratio-mode", "gamma-log", "domination"])
    def test_removed_options_exit_2(self, tmp_path, args):
        with pytest.raises(SystemExit) as exc:
            run_main(["--out-dir", str(tmp_path), *args])
        assert exc.value.code == 2

    def test_weighted_weight_id_exits_2(self, tmp_path, capsys):
        rc = run_main(["--out-dir", str(tmp_path), "verify", "weighted",
                       "--weight", "power:x", "--h", "0.25"])
        assert rc == 2
        assert "power:a weight id, not 'x'" in capsys.readouterr().err

    def test_cz_rho_zero_exits_2(self, tmp_path, capsys):
        rc = run_main(["--out-dir", str(tmp_path), "cz", "--rho", "0", "--h", "0.125"])
        assert rc == 2
        assert "rho must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("rho", ["nan", "inf"])
    def test_cz_non_finite_rho_exits_2(self, tmp_path, capsys, rho):
        rc = run_main(["--out-dir", str(tmp_path), "cz", "--rho", rho, "--h", "0.125"])
        assert rc == 2
        assert "rho must be positive and finite" in capsys.readouterr().err
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert not summary["passed"] and "rho" in summary["error"]

    @pytest.mark.parametrize("grid", [[0.5, math.nan], [math.inf]], ids=["nan", "inf"])
    def test_verify_weak_non_finite_rho_grid_exits_2(self, tmp_path, capsys, grid):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"rho_grid": grid}))  # json writes NaN and Infinity
        rc = run_main(["--config", str(p), "--out-dir", str(tmp_path / "o"), "verify", "weak",
                       "--R", "2", "--h", "0.25"])
        assert rc == 2
        assert "rho grid must be nonempty, finite" in capsys.readouterr().err
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert not summary["passed"] and "rho grid" in summary["error"]

    def test_eta_outside_unit_interval_exits_2(self, tmp_path, capsys):
        rc = run_main(["--out-dir", str(tmp_path), "sparse", "--R", "2", "--h", "0.25",
                       "--eta", "2"])
        assert rc == 2
        assert "eta must lie in (0, 1]" in capsys.readouterr().err

    def test_campaign_failure_nonzero_named(self, tmp_path, capsys):
        # a constant kernel fails the size-condition stability check
        rc = run_main(["--out-dir", str(tmp_path), "cz", "--function", "box:1",
                       "--rho", "0.001", "--h", "0.125"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "resolvable" in err

    def test_determinism(self, tmp_path):
        args = ["verify", "marcinkiewicz", "--modulus", "power:1",
                "--h", "0.125", "--seed", "7"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run_main(["--out-dir", str(d1)] + args) == 0
        assert run_main(["--out-dir", str(d2)] + args) == 0
        assert (d1 / "verify_marcinkiewicz.csv").read_bytes() == \
            (d2 / "verify_marcinkiewicz.csv").read_bytes()

    @pytest.mark.parametrize("slug", list(CLI_CAMPAIGNS))
    def test_campaign_outputs_deterministic(self, tmp_path, slug):
        # every campaign the benchmark runs, at a coarse grid
        args = CLI_CAMPAIGNS[slug] + ["--h", "0.25", "--seed", "3"]
        if slug == "verify-sparse":
            fam = tmp_path / "fam"
            assert run_main(["--out-dir", str(fam), "sparse", "--h", "0.25"]) == 0
            args += ["--family", str(fam / "sparse_family.json")]
        outs = []
        for d in (tmp_path / "a", tmp_path / "b"):
            assert run_main(["--out-dir", str(d)] + args) == 0
            outs.append({str(f.relative_to(d)): f.read_bytes() for f in d.rglob("*")
                         if f.name == "summary.json" or f.suffix == ".csv"})
        assert len(outs[0]) >= 2
        assert outs[0] == outs[1]

    def test_oracle_flag_forces_direct(self, tmp_path):
        from lpsq.grids import build_cone, parse_function
        from lpsq.kernels import parse_kernel
        from lpsq.operators import SquareEvaluator, square_function

        args = ["eval", "--op", "s", "--kernel", "ex1:kappa=3",
                "--function", "gaussian", "--h", "0.25"]
        assert run_main(["--oracle", "--out-dir", str(tmp_path / "o")] + args) == 0
        k = parse_kernel("ex1:kappa=3", 1)
        f = parse_function("gaussian", 1, 8.0, 0.25)
        cone = build_cone(1.0, 1, 0.25, 0.5, 16.0, 4)
        direct = square_function(k, f, cone, method="direct").values
        oracle = load_binary(str(tmp_path / "o" / "square_function.bin")).values
        assert np.array_equal(oracle, direct)
        # nothing outlives the run: later calls take the FFT path again
        assert SquareEvaluator(k, f, cone).fast
        assert run_main(["--out-dir", str(tmp_path / "a")] + args) == 0
        auto = load_binary(str(tmp_path / "a" / "square_function.bin")).values
        assert np.array_equal(auto, square_function(k, f, cone).values)
        assert not np.array_equal(auto, direct)

    def test_console_entrypoint(self, tmp_path):
        r = subprocess.run(
            [sys.executable, "-m", "lpsq.cli", "--out-dir", str(tmp_path),
             "dini", "--modulus", "power:0.5"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0
        assert r.stdout.strip() == "3.0"
