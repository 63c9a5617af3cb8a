import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from morreylab import verify
from morreylab.cli import main
from morreylab.funcnorm import GrandNormEvaluator, GrandParams, bmo_norm
from morreylab.homspace import build_uniform_grid, dump_space_json

SRC = Path(__file__).resolve().parents[1] / "src"

SMALL_VERIFY_CFG = {
    "space": {"kind": "circle", "n": 16},
    "corpus": {"family": "mixed", "size": 8, "seed": 3},
    "calibration": {"family": "mixed", "size": 12, "seed": 4, "headroom": 1.5},
    "bmo_corpus": {"family": "bmo", "size": 4, "seed": 5},
    "params": {"n_eps": 6},
    "eta_draws": 20,
    "checks": ["eta_identity", "maximal_morrey"],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpaceCommand:
    def test_grid_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "space", "--grid", "16", "--check", "all")
        assert code == 0
        payload = json.loads(out)
        assert payload["doubling_constant"] == pytest.approx(3.0)
        assert payload["annulus"]["passed"]

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "space", "--space", str(bad))
        assert code == 2
        assert "parse" in err

    def test_axiom_violation_exits_one_with_witness(self, capsys, tmp_path):
        payload = {"n": 3, "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
                   "weight": [1, 1, 1], "ct": 1.0, "cs": 1.0}
        path = tmp_path / "bad_space.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "space", "--space", str(path))
        assert code == 1
        assert "(0,2,1)" in err.replace(" ", "")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "space", "--space", "/nonexistent.json")
        assert code == 2


class TestNormCommand:
    def test_three_point_morrey(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        f.write_text("[1.0, 0.0, 0.0]")
        code, out, _ = run(capsys, "norm", "--grid", "3", "--f", str(f),
                           "--norm", "morrey", "--p", "1.0", "--lambda", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(3.0 ** -0.5)
        assert payload["argmax"]["center"] == 0

    def test_zero_function_grand_morrey(self, capsys):
        code, out, _ = run(capsys, "norm", "--grid", "8",
                           "--norm", "grand_morrey", "--p", "2.0",
                           "--lambda", "0.25")
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    def test_nonzero_grand_morrey_is_the_evaluator_value(self, capsys, tmp_path):
        f = np.random.default_rng(12).normal(size=16)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(f.tolist()))
        code, out, _ = run(capsys, "norm", "--circle", "16", "--f", str(path),
                           "--norm", "grand_morrey", "--p", "2.0", "--lambda", "0.25")
        assert code == 0
        payload = json.loads(out)
        gp = GrandParams.power(2.0, 0.25, 1.0)
        assert payload["value"] > 0
        assert payload["value"] == GrandNormEvaluator(build_uniform_grid(16, 1, "circle"), gp)(f)
        argmax = payload["argmax"]
        assert argmax["eps"] in gp.eps_grid[gp.eps_grid < gp.smax]
        assert 0 <= argmax["center"] < 16 and argmax["radius_rank"] >= 0

    @pytest.mark.parametrize("variant, extra, params", [
        ("mean", [], {"variant": "mean"}),
        ("inf", [], {"variant": "inf"}),
        ("jn", ["--p", "3"], {"variant": "jn", "p": 3.0}),
    ], ids=["mean", "inf", "jn-p3"])
    def test_bmo_params_name_what_produced_the_value(self, capsys, tmp_path, variant,
                                                     extra, params):
        # the exponent enters only the "jn" value, so only "jn" reports it
        path = tmp_path / "f.json"
        f = np.sin(0.3 * np.arange(16))
        path.write_text(json.dumps(f.tolist()))
        code, out, _ = run(capsys, "norm", "--circle", "16", "--f", str(path),
                           "--norm", "bmo", "--variant", variant, *extra)
        assert code == 0
        payload = json.loads(out)
        assert payload["params"] == params
        p = params.get("p")
        assert payload["value"] == bmo_norm(build_uniform_grid(16, 1, "circle"), f, variant, p=p)

    def test_unknown_norm_usage_error(self, capsys):
        code, _, err = run(capsys, "norm", "--grid", "8", "--norm", "bogus")
        assert code == 2
        assert "unknown norm" in err

    def test_csv_function_file(self, capsys, tmp_path):
        f = tmp_path / "f.csv"
        f.write_text("1.0\n0.0\n0.0\n")
        code, out, _ = run(capsys, "norm", "--grid", "3", "--f", str(f),
                           "--norm", "lp", "--p", "1.0")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0 / 3.0)

    def test_length_mismatch(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        f.write_text("[1.0, 2.0]")
        code, _, err = run(capsys, "norm", "--grid", "3", "--f", str(f),
                           "--norm", "lp")
        assert code == 2


class TestOpCommand:
    def test_maximal_values(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        f.write_text("[1.0, 0.0, 0.0]")
        code, out, _ = run(capsys, "op", "--grid", "3", "--f", str(f),
                           "--op", "maximal")
        assert code == 0
        vals = json.loads(out)["values"]
        assert vals == pytest.approx([1.0, 1 / 3, 1 / 3])

    def test_potential(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        f.write_text("[0.0, 1.0]")
        code, out, _ = run(capsys, "op", "--grid", "2", "--f", str(f),
                           "--op", "potential", "--alpha", "0.5")
        assert code == 0
        assert json.loads(out)["values"][0] == pytest.approx(2 ** -0.5)

    def test_kernel_table_from_file(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        f.write_text("[1.0, 0.0, 0.0]")
        kern = tmp_path / "k.json"
        kern.write_text(json.dumps([[0, 1, 2], [1, 0, 1], [2, 1, 0]]))
        code, out, _ = run(capsys, "op", "--grid", "3", "--f", str(f),
                           "--op", "cz", "--kernel-file", str(kern))
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["kernel"] == "file"
        # Tf(x) = K(x,0) * 1 * (1/3) off the diagonal
        assert payload["values"] == pytest.approx([0.0, 1 / 3, 2 / 3])

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_kernel_file_is_usage_error(self, capsys, tmp_path, bad):
        f = tmp_path / "f.json"
        f.write_text("[1.0, 0.0]")
        kern = tmp_path / "k.json"
        kern.write_text(f"[[0, {bad}], [1, 0]]")
        code, out, err = run(capsys, "op", "--grid", "2", "--op", "cz",
                             "--kernel-file", str(kern), "--f", str(f))
        assert code == 2 and not out
        assert "error: kernel entry K(0,1)" in err and "not finite" in err

    def test_kernel_file_shape_mismatch(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        f.write_text("[1.0, 0.0, 0.0]")
        kern = tmp_path / "k.json"
        kern.write_text(json.dumps([[0, 1], [1, 0]]))
        code, _, err = run(capsys, "op", "--grid", "3", "--f", str(f),
                           "--op", "cz", "--kernel-file", str(kern))
        assert code == 2


class TestVerifyCommand:
    def test_small_config_passes(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_VERIFY_CFG))
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "verify", "--config", str(cfg),
                           "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "reports.json").exists()
        assert (out_dir / "reports.csv").exists()
        assert "PASS eta_identity" in out

    def test_empty_checks_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(SMALL_VERIFY_CFG, checks=[])))
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert "no checks selected" in err

    def test_bad_config_json(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1,2,")
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2

    def test_unknown_check_name(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(SMALL_VERIFY_CFG, checks=["bogus"])))
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert "unknown checks" in err

    @pytest.mark.parametrize("params, check, needle", [
        ({"a2_slope": -0.05}, "potential_commutator_grand", "A2 slope"),
        ({"a2_slope": -0.05}, "commutator_potential", "A2 slope"),
        ({"a_slope": -0.5}, "maximal_grand", "non-decreasing"),
        ({"n_eps": 1}, "reduction_maximal", "n_eps"),
    ])
    def test_bad_params_usage_error(self, capsys, tmp_path, params, check, needle):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(SMALL_VERIFY_CFG, params=params, checks=[check])))
        code, _, err = run(capsys, "verify", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
        assert code == 2
        assert needle in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("user, key", [({"parms": {}}, "parms"),
                                           ({"params": {"lamda": 0.3}}, "lamda")])
    def test_unknown_config_key_usage_error(self, capsys, tmp_path, user, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(SMALL_VERIFY_CFG, **user)))
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert key in err

    def test_benchmark_config_keys_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(SMALL_VERIFY_CFG, seed=7)))
        code, _, _ = run(capsys, "verify", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 0

    def test_byte_identical_reports(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_VERIFY_CFG))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "verify", "--config", str(cfg), "--out", str(d1))[0] == 0
        assert run(capsys, "verify", "--config", str(cfg), "--out", str(d2))[0] == 0
        assert (d1 / "reports.json").read_bytes() == (d2 / "reports.json").read_bytes()

    def test_jobs_flag_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--out", str(tmp_path / "o"), "--jobs", "2")
        assert code == 2 and "--jobs" in err

    def test_jobs_config_key_is_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(SMALL_VERIFY_CFG, jobs=1)))
        code, _, err = run(capsys, "verify", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2 and "jobs" in err

    def test_eta_only_subsecond(self, capsys, tmp_path):
        import time
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": {"kind": "circle", "n": 8},
                                   "checks": ["eta_identity"],
                                   "eta_draws": 200}))
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
        assert code == 0
        assert time.perf_counter() - t0 < 5.0


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("argv", [
        ["norm", "--grid", "8", "--norm", "lp", "--p", "0.5"],
        ["norm", "--grid", "8", "--norm", "morrey", "--lambda", "1.5"],
        ["norm", "--grid", "8", "--norm", "grand_lebesgue", "--p", "1.0"],
        ["norm", "--grid", "8", "--norm", "grand_morrey", "--p", "1.0"],
        ["norm", "--grid", "8", "--norm", "bmo", "--variant", "jn", "--p", "1.0"],
        ["op", "--grid", "8", "--f", "{f}", "--op", "potential", "--alpha", "1.5"],
        ["op", "--grid", "8", "--f", "{f}", "--op", "maximal_s", "--s", "0.5"],
        ["norm", "--grid", "8", "--f", "{nan}", "--norm", "lp"],
        ["op", "--grid", "8", "--f", "{nan}", "--op", "maximal"],
    ], ids=["lp-p", "morrey-lambda", "grand-lebesgue-p", "grand-morrey-p", "bmo-jn-p",
            "potential-alpha", "maximal-s", "norm-nan", "op-nan"])
    def test_out_of_range_parameter_is_usage_error(self, tmp_path, argv):
        (tmp_path / "f.json").write_text(json.dumps(list(range(8))))
        (tmp_path / "nan.json").write_text("[1, 2, NaN, 4, 5, 6, 7, 8]")
        argv = [a.format(f=tmp_path / "f.json", nan=tmp_path / "nan.json") for a in argv]
        env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run([sys.executable, "-m", "morreylab.cli", *argv], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

    def test_axiom_violation_in_norm_keeps_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad_space.json"
        path.write_text(json.dumps({"n": 3, "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
                                    "weight": [1, 1, 1], "ct": 1.0, "cs": 1.0}))
        code, _, err = run(capsys, "norm", "--space", str(path), "--norm", "lp")
        assert code == 1 and "axiom violation" in err

    def test_space_requires_source(self, capsys):
        code, _, err = run(capsys, "space")
        assert code == 2
