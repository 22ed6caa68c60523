import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lpsq import cli
from lpsq.cli import main
from lpsq.dyadic import SparseFamily
from lpsq.grids import load_binary
from lpsq.kernels import KernelSpec, parse_kernel

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
        segment sum, 2; over a positive floor the table is not Dini, a
        failed check (exit 1) that carries the truncated integral."""
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
        assert run_main(["--out-dir", str(out), "dini", "--modulus", f"csv:{floored}"]) == 1
        summary = json.loads((out / "summary.json").read_text())
        [item] = summary["items"]
        assert not summary["passed"] and item["name"] == "dini_finite" and not item["pass"]
        assert math.isfinite(item["value"]) and item["value"] > 0

    def test_dini_divergence_is_a_failed_verdict(self, tmp_path, capsys):
        """log:2 is not Dini: dini_finite fails with the truncated integral
        that the DivergenceError carries, the suite is skipped, exit 1; a
        tolerance the quadrature cannot meet stays an error (exit 2)."""
        from lpsq.errors import DivergenceError
        from lpsq.moduli import dini_constant, parse_modulus

        with pytest.raises(DivergenceError) as exc:
            dini_constant(parse_modulus("log:2"), 1e-8)
        out = tmp_path / "log2"
        assert run_main(["--out-dir", str(out), "dini", "--suite", "--modulus", "log:2"]) == 1
        assert "FAIL: dini_finite" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["items"] == [{"name": "dini_finite", "pass": False,
                                     "value": exc.value.partial}]
        table = tmp_path / "w.csv"
        ts = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 64)])
        table.write_text("\n".join(f"{t},{t ** 0.5}" for t in ts))
        rc = run_main(["--out-dir", str(tmp_path / "budget"), "dini",
                       "--modulus", f"csv:{table}", "--tol", "1e-300"])
        assert rc == 2 and "within budget" in capsys.readouterr().err

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

    @pytest.mark.parametrize("root, named", [
        ({}, "root"), ({"root": {"generation": 1, "anchor": [0]}}, "'cubes'"),
    ], ids=["no-root", "no-cubes"])
    def test_verify_sparse_bad_family_exits_2(self, tmp_path, capsys, root, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"eta": 0.5, "n": 1, "base": 16.0, "cubes": [], **root}))
        out = tmp_path / "v"
        rc = run_main(["--out-dir", str(out), "verify", "sparse", "--family", str(bad)])
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["passed"] and named in summary["error"]
        assert named in capsys.readouterr().err

    def test_nan_kernel_fails_kernel_check(self, tmp_path, monkeypatch):
        """A kernel NaN at some radii fails every mode: exit 1."""
        ex1 = parse_kernel("ex1:kappa=3", 1)
        k = KernelSpec("convolution", 1, 1.0, ex1.w_mod, ex1.phi_mod, profile=lambda u: np.where(
            (np.abs(u) > 2.0) & (np.abs(u) < 3.0), np.nan, ex1.profile(u)))
        monkeypatch.setattr(cli, "parse_kernel", lambda spec, n: k)
        assert run_main(["--out-dir", str(tmp_path), "kernel-check"]) == 1
        items = json.loads((tmp_path / "summary.json").read_text())["items"]
        assert [it["pass"] for it in items] == [False, False, False]

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

    @pytest.mark.parametrize("path", ["missing.bin", "."], ids=["missing-file", "directory"])
    def test_unreadable_bin_function_exits_2(self, tmp_path, capsys, path):
        out = tmp_path / "o"
        rc = run_main(["--out-dir", str(out), "eval", "--function", f"bin:{tmp_path / path}"])
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["passed"] and "cannot read" in summary["error"]
        assert "cannot read" in capsys.readouterr().err

    def test_2d_csv_function_off_the_lattice_exits_2(self, tmp_path, capsys):
        """A 2-D CSV whose y column is not on the x cell centers is a
        ConfigError: exit 2, with the error in summary.json."""
        path, out = tmp_path / "f.csv", tmp_path / "o"
        c = [-0.75, -0.25, 0.25, 0.75]
        path.write_text("x,y,value\n" + "".join(f"{x},{y + 0.1},1.0\n" for x in c for y in c))
        rc = run_main(["--out-dir", str(out), "eval", "--n", "2", "--function", f"csv:{path}"])
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["passed"] and "do not lie on" in summary["error"]
        assert "do not lie on" in capsys.readouterr().err

    @pytest.mark.parametrize("campaign, flag, text, named", [
        ("dini", "--modulus", "0.1\n0.5,0.5\n1,1\n", "two numbers"),
        ("kernel-check", "--kernel", "0.1\n0.5,0.5\n1,1\n", "two numbers"),
        ("kernel-check", "--kernel", "x,k\n-1,0\n0,abc\n1,0\n", "line 3: expected two numbers"),
        ("kernel-check", "--kernel", "-1,0\n0,inf\n1,0\n", "line 2: non-finite"),
        ("eval", "--function", "0.5,1\n1.5,1\n2.5,1\n3.5,1\n", "not symmetric about 0"),
    ], ids=["dini---modulus", "kernel-check---kernel", "kernel-non-number", "kernel-inf",
            "eval-off-centre"])
    def test_malformed_csv_id_exits_2(self, tmp_path, capsys, campaign, flag, text, named):
        """A ``csv:`` table with a one-column row, a field that is not a
        number or a non-finite one is a ConfigError naming its line, and a
        grid function whose cell centers are not symmetric about 0 one
        naming their range: exit 2, with the error in summary.json."""
        path, out = tmp_path / "bad.csv", tmp_path / "o"
        path.write_text(text)
        rc = run_main(["--out-dir", str(out), campaign, flag, f"csv:{path}"])
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["passed"] and named in summary["error"]
        assert summary["campaign"] == campaign
        assert named in capsys.readouterr().err

    def test_config_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run_main(["--config", str(tmp_path), "--out-dir", str(out), "dini"])
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["passed"] and "cannot read" in summary["error"]
        assert summary["campaign"] == "dini"
        assert "cannot read" in capsys.readouterr().err

    def test_cz_campaign(self, tmp_path):
        rc = run_main(["--out-dir", str(tmp_path), "cz", "--function", "box:1",
                       "--rho", "0.5", "--h", "0.0078125"])
        assert rc == 0
        assert (tmp_path / "cz" / "manifest.json").exists()

    @pytest.mark.parametrize("n, rho", [(1, "0.2"), (2, "0.05")])
    def test_cz_rows_match_the_manifest(self, tmp_path, n, rho):
        """cz.csv gives each cube's lower corner on every axis (``_lo`` in
        1-D, ``_lo_x`` and ``_lo_y`` in 2-D) and its side, as the cube of
        cz/manifest.json."""
        rc = run_main(["--out-dir", str(tmp_path), "cz", "--n", str(n), "--R", "4",
                       "--h", "0.25", "--rho", rho])
        assert rc == 0
        rows = dict(line.split(",") for line in
                    (tmp_path / "cz.csv").read_text().splitlines()[1:])
        bad = json.loads((tmp_path / "cz" / "manifest.json").read_text())["bad"]
        assert len(bad) > 1 and int(rows["n_cubes"]) == len(bad)
        axes = [""] if n == 1 else ["_x", "_y"]
        assert len(rows) == 3 + len(bad) * (len(axes) + 2)
        for i, q in enumerate(bad):
            side = q["base"] * 2.0 ** -q["generation"]
            assert float(rows[f"cube_{i}_side"]) == side
            for axis, a in zip(axes, q["anchor"]):
                assert float(rows[f"cube_{i}_lo{axis}"]) == a * side
        if n == 2:  # two cubes of one generation and x, with different y
            los = {(rows[f"cube_{i}_lo_x"], rows[f"cube_{i}_lo_y"], rows[f"cube_{i}_side"])
                   for i in range(len(bad))}
            assert len(los) == len(bad) > len({(x, s) for x, _, s in los})

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
        (["1", "1e308"], "top cone level's radius at inf cells"),
    ], ids=["zero", "nan", "inf", "negative", "overflow"])
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

    def test_verify_weak_refines_the_original_levels(self, tmp_path, monkeypatch):
        """The h/2 run takes the config's cone rule from tmin/2: its levels
        are one octave (q levels) below the original ones, then those."""
        import lpsq.cli

        cones, inner = [], lpsq.cli.square_function
        monkeypatch.setattr(lpsq.cli, "square_function",
                            lambda k, f, cone, **kw: cones.append(cone) or inner(k, f, cone, **kw))
        assert run_main(["--out-dir", str(tmp_path), "verify", "weak"]) == 0
        coarse, fine = (c.t_levels for c in cones)
        assert cones[1].h == cones[0].h / 2
        assert len(fine) == len(coarse) + 4
        assert np.allclose(fine[4:], coarse, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ["csv", "bin"])
    def test_verify_weak_refuses_a_file_input(self, tmp_path, capsys, kind):
        """The campaign re-samples --function at h/2, which a file cannot be:
        even one saved at the run's own R and h exits 2 naming that."""
        from lpsq.grids import parse_function, save_binary, save_csv

        path = tmp_path / f"f.{kind}"
        (save_csv if kind == "csv" else save_binary)(
            parse_function("gaussian", 1, 8.0, 0.125), str(path))
        out = tmp_path / "o"
        rc = run_main(["--out-dir", str(out), "verify", "weak", "--h", "0.125",
                       "--function", f"{kind}:{path}"])
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["passed"] and "re-samples its input at h/2" in summary["error"]
        assert "analytic" in capsys.readouterr().err

    def test_verify_weighted_reads_no_function(self, tmp_path):
        """The ten inputs are drawn on the weight's lattice: a file on a
        wider box gives the default run's CSV."""
        from lpsq.grids import sample_function, save_binary

        path = tmp_path / "wide.bin"
        save_binary(sample_function(lambda x: np.exp(-(x**2)), 1, 16.0, 1.0 / 16), str(path))
        csvs = []
        for name, extra in (("default", []), ("file", ["--function", f"bin:{path}"])):
            out = tmp_path / name
            assert run_main(["--out-dir", str(out), "verify", "weighted", *extra]) == 0
            csvs.append((out / "verify_weighted.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_verify_sparse_deep_family(self, tmp_path):
        """A cube 61 generations below the root is counted exactly: its
        share of the root is 2^-61, with no dense mask of 2^61 cells."""
        fam = tmp_path / "deep.json"
        fam.write_text(json.dumps({
            "eta": 0.5, "n": 1, "base": 16.0,
            "root": {"generation": 1, "anchor": [0]},
            "cubes": [{"generation": 1, "anchor": [0]},
                      {"generation": 62, "anchor": [5], "parent": 0}]}))
        out = tmp_path / "v"
        rc = run_main(["--out-dir", str(out), "verify", "sparse", "--family", str(fam)])
        assert rc == 0
        rows = (out / "verify_sparse.csv").read_text().splitlines()
        assert rows[1] == f"worst_ratio,{2.0 ** -61!r}"

    def test_verify_sparse_generation_out_of_range_exits_2(self, tmp_path, capsys):
        fam = tmp_path / "deep.json"
        fam.write_text(json.dumps({
            "eta": 0.5, "n": 1, "base": 16.0,
            "root": {"generation": 1, "anchor": [0]},
            "cubes": [{"generation": 1, "anchor": [0]},
                      {"generation": 65, "anchor": [5], "parent": 0}]}))
        out = tmp_path / "v"
        rc = run_main(["--out-dir", str(out), "verify", "sparse", "--family", str(fam)])
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["passed"] and "generation must lie in [0, 64]" in summary["error"]
        assert "generation" in capsys.readouterr().err

    def test_sparse_gamma_budget_exhausted_exits_2(self, tmp_path, capsys, monkeypatch):
        """A node that needs more gamma doublings than the budget is a
        ConstructionError: exit 2, with the error in summary.json."""
        from lpsq import dyadic
        from lpsq.grids import sample_function, save_binary

        monkeypatch.setattr(dyadic, "_GAMMA_BUDGET", 1)
        v = np.zeros(256)
        v[[40, 100, 101, 200]] = [5.0, -3.0, 4.0, 2.0]
        path = tmp_path / "spikes.bin"
        save_binary(sample_function(lambda x: np.zeros_like(x), 1, 8.0, 1.0 / 16)
                    .with_values(v), str(path))
        out = tmp_path / "o"
        rc = run_main(["--out-dir", str(out), "sparse", "--function", f"bin:{path}"])
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["passed"] and "budget exhausted" in summary["error"]
        assert "residual" in capsys.readouterr().err

    def test_verify_marcinkiewicz(self, tmp_path):
        rc = run_main(["--out-dir", str(tmp_path), "verify", "marcinkiewicz",
                       "--modulus", "power:1", "--h", "0.125"])
        assert rc == 0

    @pytest.mark.parametrize("grid, code", [([], 2), (["--R", "4", "--h", "0.25"], 0)],
                             ids=["default-grid", "file-grid"])
    def test_verify_marcinkiewicz_file_on_another_grid_exits_2(self, tmp_path, capsys,
                                                                grid, code):
        """The cubes are drawn over the config's R and F integrated on the
        file's grid: a file on R = 4, h = 1/4 run at the default R = 8 is a
        GridError (exit 2), and on its own grid it runs."""
        from lpsq.grids import sample_function, save_csv

        path, out = tmp_path / "f.csv", tmp_path / "o"
        save_csv(sample_function(lambda x: 1 / (1 + x * x), 1, 4.0, 0.25), str(path))
        rc = run_main(["--out-dir", str(out), "verify", "marcinkiewicz",
                       "--function", f"csv:{path}", *grid])
        assert rc == code
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] == (code == 0)
        if code:
            assert "not the config's" in summary["error"]
            assert "not the config's" in capsys.readouterr().err


class TestConfigAndErrors:
    def test_config_file_run(self, tmp_path):
        cfg = {"modulus": "power:0.25", "out_dir": str(tmp_path / "o")}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert run_main(["--config", str(p), "dini"]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["passed"]

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        # the evaluation method is set by --oracle only
        # the weak sup is exact over every height: no height grid is set
        for key, val in (("alhpa", 2.0), ("method", "direct"), ("rho_grid", [0.5, 1.0])):
            p.write_text(json.dumps({key: val, "out_dir": str(tmp_path / "o")}))
            rc = run_main(["--config", str(p), "--out-dir", str(tmp_path / "m"), "dini"])
            assert rc == 2
            assert key in capsys.readouterr().err

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
        ("dini", {"n": 1.5}, "'n': 1.5 is not int"),
        ("dini", {"n": True}, "'n': True is not int"),
        ("dini", {"seed": 2.7}, "'seed': 2.7 is not int"),
        ("dini", {"cone": {"q": 4.5}}, "'cone.q': 4.5 is not int"),
        ("dini", {"oracle": "false"}, "'oracle': 'false' is not bool"),
        ("eval", {"kind": "trilinear"}, "'kind': 'trilinear' is not one of"),
        ("dini", {"alphas": []}, "'alphas': [] is not a nonempty list"),
        ("kernel-check", {"gamma_log": 0}, "unknown config keys ['gamma_log']"),
        # the campaign is the subcommand, never a config key
        ("dini", {"campaign": "dini"}, "unknown config keys ['campaign']"),
        # the weak sup is exact over every height: a height grid is refused whatever it holds
        ("dini", {"rho_grid": ["x"]}, "unknown config keys ['rho_grid']"),
        ("dini", {"rho_grid": 5}, "unknown config keys ['rho_grid']"),
    ], ids=["cz-rho", "sparse-eta", "eval-h", "tol-list", "n-text", "seed-inf",
            "alphas-entry", "alphas-scalar", "cone-q", "cone-tmin", "kernel-int",
            "function-null", "weight-int", "n-float", "n-bool", "seed-float", "cone-q-float", "oracle-text",
            "kind-choice", "alphas-empty", "gamma-log", "campaign-key",
            "rho-grid-entry", "rho-grid-scalar"])
    def test_bad_number_in_config_exits_2(self, tmp_path, capsys, campaign, edit, named):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"out_dir": str(tmp_path / "o"), **edit}))
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

    @pytest.mark.parametrize("args, bad", [
        (["eval", "--R", "inf"], "R=inf and spacing h=0.0625 must be positive and finite"),
        (["eval", "--R", "1e308"], "past the array index range"),
        (["eval", "--R", "1e300"], "past the array index range"),
        (["eval", "--h", "nan"], "h=nan must be positive and finite"),
        (["cz", "--R", "inf"], "R=inf"),
        (["sparse", "--R", "1e308"], "past the array index range"),
        (["verify", "weak", "--R", "inf"], "R=inf"),
        (["verify", "aperture", "--R", "1e308"], "past the array index range"),
        (["verify", "weighted", "--R", "inf"], "R=inf"),
    ], ids=["eval-inf", "eval-overflow", "eval-index", "eval-h-nan", "cz-inf",
            "sparse-overflow", "weak-inf", "aperture-overflow", "weighted-inf"])
    def test_nonfinite_or_overflowing_grid_exits_2(self, tmp_path, capsys, args, bad):
        """The cell-count rule refuses the grid before any array is built:
        exit 2 (a parameter error, not a failed check), named on stderr and
        in summary.json."""
        rc = run_main(["--out-dir", str(tmp_path), *args])
        assert rc == 2
        assert bad in capsys.readouterr().err
        assert bad in json.loads((tmp_path / "summary.json").read_text())["error"]

    def test_nan_tol_exits_2(self, tmp_path, capsys):
        rc = run_main(["--out-dir", str(tmp_path), "dini", "--tol", "nan"])
        assert rc == 2
        assert "tol must be positive, got nan" in capsys.readouterr().err

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
        ({}, ["sparse", "--alpha", "inf", "--R", "2", "--h", "0.25"],
         "alpha must be finite, got inf"),
        ({}, ["eval", "--alpha", "1e308"], "top cone level's radius at inf cells"),
    ], ids=["cone-tmin", "cone-tmax", "alpha", "alpha-inf", "sparse-alpha-inf",
            "alpha-overflow"])
    def test_nan_cone_parameter_exits_2(self, tmp_path, capsys, config, args, named):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config))  # json writes NaN
        rc = run_main(["--config", str(p), "--out-dir", str(tmp_path / "o"), *args])
        assert rc == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("config, args, named", [
        ({"cone": {"tmin": 0}}, ["sparse"], "need 0 < t_min <= t_max"),
        ({"cone": {"q": 0}}, ["sparse"], "q (levels per octave) must be >= 1"),
        ({"cone": {"tmin": 0}}, ["eval", "--op", "gstar"], "need 0 < t_min <= t_max"),
        ({"alphas": []}, ["verify", "aperture"], "'alphas': [] is not a nonempty list"),
    ], ids=["cone-tmin", "cone-q", "gstar-tmin", "alphas-empty"])
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

    @pytest.mark.parametrize("weight", ["power:x", "exp:2", "power"])
    def test_weighted_weight_id_exits_2(self, tmp_path, capsys, weight):
        """The error names the whole weight id, not the text after its colon."""
        rc = run_main(["--out-dir", str(tmp_path), "verify", "weighted",
                       "--weight", weight, "--h", "0.25"])
        assert rc == 2
        assert f"power:a weight id, not {weight!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["power:1", "power:-3", "power:-1", "power:nan"])
    def test_weighted_weight_outside_a_p_exits_2(self, tmp_path, capsys, weight):
        """|x|^a is an A_2 weight in 1-D iff -1 < a < 1."""
        rc = run_main(["--out-dir", str(tmp_path), "verify", "weighted",
                       "--weight", weight, "--h", "0.25"])
        assert rc == 2
        assert "not an A_p weight at p = 2" in capsys.readouterr().err
        assert "A_p" in json.loads((tmp_path / "summary.json").read_text())["error"]

    @pytest.mark.parametrize("weight", ["power:0.99", "power:-0.99"])
    def test_weighted_weight_inside_a_p_passes(self, tmp_path, weight):
        assert run_main(["--out-dir", str(tmp_path), "verify", "weighted",
                         "--weight", weight]) == 0

    @pytest.mark.parametrize("spec", [
        "gaussian:abc", "bump:abc", "hat:abc", "box:abc", "const:abc",
        "gaussian:0", "bump:0", "hat:0", "box:0",
        "bump:-1", "hat:-2", "gaussian:-1", "gaussian:inf", "const:inf", "const:nan",
    ])
    def test_malformed_function_id_exits_2(self, tmp_path, capsys, spec):
        rc = run_main(["--out-dir", str(tmp_path), "eval", "--function", spec, "--h", "0.25"])
        assert rc == 2
        assert repr(spec) in capsys.readouterr().err
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert not summary["passed"] and repr(spec) in summary["error"]

    @pytest.mark.parametrize("spec", ["gaussian:", "hat:0.5", "const:-2", "const:0"])
    def test_function_id_arguments_in_range_run(self, tmp_path, spec):
        assert run_main(["--out-dir", str(tmp_path), "eval", "--function", spec,
                         "--h", "0.25"]) == 0

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

    @pytest.mark.parametrize("mode, named", [
        ("weak", "needs a finite positive input norm, got 0.0"),
        ("aperture", "||S_1 f||_2 = 0, so there is no ratio"),
    ], ids=["weak", "aperture"])
    def test_verify_zero_input_exits_2(self, tmp_path, capsys, mode, named):
        rc = run_main(["--out-dir", str(tmp_path), "verify", mode, "--function", "const:0",
                       "--R", "2", "--h", "0.25"])
        assert rc == 2
        assert named in capsys.readouterr().err
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert not summary["passed"] and named in summary["error"]

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
        assert SquareEvaluator.of(k, f, cone) is not None
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
