import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lpsq.cli import cli_run, main
from lpsq.dyadic import SparseFamily
from lpsq.errors import ConfigError
from lpsq.grids import load_binary


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
