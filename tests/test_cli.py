"""Command line front end: pipelines, manifests, config precedence, exit codes."""

import json
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from tflp import processes
from tflp.cli import main, read_csv
from tflp.driver import CompoundPoisson, UniformSymmetric
from tflp.grids import SampleGrid
from tflp.processes import TemperedParams, noise_path, simulate_tflp1, simulate_tflp2


def run(argv):
    return main([str(a) for a in argv])


def test_simulate_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "path.csv"
    assert run(["simulate", "tflp1", "--d", "0.3", "--lambda", "1", "--tmax", "2",
                "--n", "16", "--seed", "1", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == ["t", "path0"]
    assert lines[1].split(",") == ["time", "value"]
    assert len(lines) == 2 + 17
    manifest = json.loads((tmp_path / "path.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["d"] == 0.3
    assert manifest["tool"] == "tflp"


def test_simulate_ensemble_columns(tmp_path):
    out = tmp_path / "ens.csv"
    assert run(["simulate", "tflp2", "--d", "0.2", "--lambda", "1", "--tmax", "1",
                "--n", "8", "--ensemble", "3", "--seed", "5", "--out", out]) == 0
    names, data = read_csv(out)
    assert names == ["t", "path0", "path1", "path2"]
    assert data.shape == (9, 4)
    assert not np.allclose(data[:, 1], data[:, 2])
    p, g = TemperedParams(0.2, 1.0), SampleGrid(0.0, 1.0, 8)
    driver = CompoundPoisson(1.0, UniformSymmetric(1.0))
    for i in range(3):
        path = simulate_tflp2(p, g, driver, seed=5, stream=i)
        np.testing.assert_array_equal(data[:, 1 + i], path.values)


def test_noise_ensemble_columns_are_single_path_noises(tmp_path):
    out = tmp_path / "noise.csv"
    assert run(["simulate", "tfln1", "--d", "0.2", "--lambda", "0.5", "--tmax", "8",
                "--n", "16", "--ensemble", "2", "--seed", "3", "--out", out]) == 0
    names, data = read_csv(out)
    p, g = TemperedParams(0.2, 0.5), SampleGrid(0.0, 8.0, 16)
    driver = CompoundPoisson(1.0, UniformSymmetric(1.0))
    for i in range(2):
        noise = noise_path(simulate_tflp1(p, g, driver, seed=3, stream=i))
        np.testing.assert_array_equal(data[:, 0], noise.grid.points)
        np.testing.assert_array_equal(data[:, 1 + i], noise.values)


def test_noise_kind_produces_stationary_series(tmp_path):
    out = tmp_path / "noise.csv"
    assert run(["simulate", "tfln1", "--d", "0.2", "--lambda", "0.5",
                "--tmax", "32", "--n", "32", "--seed", "2", "--out", out]) == 0
    names, data = read_csv(out)
    assert data.shape[0] == 32  # one fewer than the 33 path points at unit lag


def test_analytic_curves(tmp_path):
    out = tmp_path / "acvf.csv"
    assert run(["analytic", "acvf1", "--d", "0.2", "--lambda", "0.5",
                "--range", "0:5:1", "--out", out]) == 0
    names, data = read_csv(out)
    assert names == ["h", "gamma"]
    assert len(data) == 6
    from tflp.analytics import acvf_tfln1
    from tflp.processes import TemperedParams
    assert abs(data[2, 1] - acvf_tfln1(TemperedParams(0.2, 0.5), 2.0)) < 1e-14


def test_estimate_pipeline_from_simulated_noise(tmp_path):
    noise = tmp_path / "noise.csv"
    acvf = tmp_path / "acvf.csv"
    assert run(["simulate", "tfln1", "--d", "0.2", "--lambda", "0.5",
                "--tmax", "4096", "--n", "4096", "--refine", "2",
                "--seed", "3", "--out", noise]) == 0
    assert run(["estimate", "acvf", "--input", noise, "--max-lag", "20",
                "--out", acvf]) == 0
    names, data = read_csv(acvf)
    assert names == ["h", "gamma"]
    assert len(data) == 21
    assert data[0, 1] > 0  # lag zero is the sample variance


def test_estimate_fit_semilrd_json(tmp_path):
    curve = tmp_path / "curve.csv"
    fit = tmp_path / "fit.json"
    assert run(["analytic", "acvf1", "--d", "0.2", "--lambda", "0.3",
                "--range", "33:66:1", "--out", curve]) == 0
    assert run(["estimate", "fit-semilrd", "--input", curve, "--out", fit]) == 0
    payload = json.loads(fit.read_text())
    assert abs(payload["lambda_hat"] - 0.3) < 0.02
    assert abs(payload["delta_hat"] - 0.2) < 0.05


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# simulation defaults\nd = 0.3\nlambda = 1.0\n"
                   "tmax = 1\nn = 8\nseed = 4\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    out3 = tmp_path / "c.csv"
    assert run(["simulate", "tflp1", "--config", cfg, "--out", out1]) == 0
    # flag overrides config value
    assert run(["simulate", "tflp1", "--config", cfg, "--seed", "9",
                "--out", out2]) == 0
    assert run(["simulate", "tflp1", "--d", "0.3", "--lambda", "1.0",
                "--tmax", "1", "--n", "8", "--seed", "9", "--out", out3]) == 0
    assert out1.read_text() != out2.read_text()
    assert out2.read_text() == out3.read_text()


def test_estimate_holder_json(tmp_path):
    ens = tmp_path / "ens.csv"
    out = tmp_path / "holder.json"
    assert run(["simulate", "tflp1", "--d", "0.3", "--lambda", "0.5", "--tmax", "4",
                "--n", "64", "--ensemble", "20", "--seed", "2", "--out", ens]) == 0
    assert run(["estimate", "holder", "--input", ens, "--taus", "1,2,4",
                "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert np.isfinite(payload["slope"]) and np.isfinite(payload["zeta"])
    manifest = json.loads((tmp_path / "holder.json.manifest.json").read_text())
    assert manifest["command"] == "estimate"
    assert manifest["config"]["task"] == "holder"


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "p.csv"
    manifest = tmp_path / "p.csv.manifest.json"
    assert run(["simulate", "tflp2", "--d", "0.25", "--lambda", "0.8",
                "--tmax", "1", "--n", "8", "--seed", "6", "--out", out]) == 0
    first = out.read_bytes()
    out.unlink()
    assert run(["rerun", manifest]) == 0
    assert out.read_bytes() == first


def test_rerun_ignores_retired_verify_budget_key(tmp_path):
    # verify manifests once carried an unused "budget" key; runners read
    # only the keys they know, so such manifests still rerun
    out = tmp_path / "v.csv"
    manifest = tmp_path / "v.csv.manifest.json"
    assert run(["verify", "calculus", "--out", out]) == 0
    first = out.read_bytes()
    payload = json.loads(manifest.read_text())
    assert "budget" not in payload["config"]
    payload["config"]["budget"] = "quick"
    manifest.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    out.unlink()
    assert run(["rerun", manifest]) == 0
    assert out.read_bytes() == first


def test_parameter_errors_exit_2(tmp_path):
    out = tmp_path / "x.csv"
    assert run(["simulate", "tflp1", "--d", "0.3", "--lambda", "0",
                "--tmax", "1", "--n", "8", "--out", out]) == 2
    assert run(["simulate", "nosuch", "--out", out]) == 2
    assert run(["simulate", "tflp1", "--d", "0.3", "--lambda", "1",
                "--ensemble", "0", "--out", out]) == 2
    assert run(["analytic", "cov2", "--d", "-0.2", "--lambda", "1",
                "--out", out]) == 2
    assert run(["estimate", "acvf", "--input", str(tmp_path / "missing.csv"),
                "--out", out]) == 2


def test_cell_budget_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(processes, "_MAX_CELLS", 100)
    out = tmp_path / "x.csv"
    assert run(["simulate", "tflp1", "--d", "0.3", "--lambda", "1",
                "--tmax", "1", "--n", "8", "--out", out]) == 3
    assert "budget" in capsys.readouterr().err
    assert not out.exists()
    # a --range is counted against the same budget before it is allocated
    assert run(["analytic", "acvf1", "--d", "0.2", "--lambda", "0.5",
                "--range", "0:1000:1", "--out", out]) == 3
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, files, code", [
    ("analytic varlimit --d 100 --lambda 1 --out {tmp}/x.csv", {}, 3),
    ("analytic varlimit --d 0.3 --lambda 1e-300 --out {tmp}/x.csv", {}, 3),
    ("analytic cov1 --lambda 1 --range 0:3:1 --out {tmp}/x.csv", {}, 2),
    ("simulate tflp1 --d 0.3 --lambda 1 --tmax 1 --n 8 --out {tmp}/nodir/x.csv",
     {}, 2),
    ("simulate tflp1 --config {tmp}/missing.cfg --out {tmp}/x.csv", {}, 2),
    ("rerun {tmp}/missing.json", {}, 2),
    ("rerun {tmp}/m.json", {"m.json": '{"config": {}}'}, 2),
    ("rerun {tmp}/m.json", {"m.json": '{"command": "analytic", "config": {}}'}, 2),
    ("rerun {tmp}/m.json", {"m.json": "[1, 2]"}, 2),
    ("estimate acvf --input {tmp}/in.csv --out {tmp}/x.csv",
     {"in.csv": "t\ntime\n0\n1\n2\n"}, 2),
    ("estimate holder --input {tmp}/in.csv --out {tmp}/x.csv",
     {"in.csv": "t,path0\ntime,value\n0,0\n"}, 2),
])
def test_bad_input_exits_with_documented_code(tmp_path, capsys, argv, files, code):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run(argv.format(tmp=tmp_path).split()) == code
    err = capsys.readouterr().err
    assert err.startswith({2: "parameter error: ", 3: "tolerance error: "}[code])
    assert "Traceback" not in err


def test_verify_suites_pass(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for suite in ("calculus", "covariance", "spectra"):
            assert run(["verify", suite]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text.replace("FAILED", "")
