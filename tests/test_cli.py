"""Command line front end: pipelines, manifests, config precedence, exit codes."""

import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

import tflp
from tflp import cli, errors
from tflp.cli import main, read_csv
from tflp.driver import (CompoundPoisson, TemperedStable, UniformSymmetric,
                         sample_increments, second_moment, spec_from_config)
from tflp.grids import SampleGrid
from tflp.integration import ElementaryFunction, transform_integrand
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
    pgram = tmp_path / "pgram.csv"
    assert run(["estimate", "periodogram", "--input", noise,
                "--segment-length", "256", "--out", pgram]) == 0
    names, data = read_csv(pgram)
    assert names == ["omega", "power"]
    assert len(data) == 128  # omega_k = 2 pi k / 256, k = 1..128
    assert np.all(data[:, 1] > 0)


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


def test_driver_defaults_match_cli_config(tmp_path):
    out = tmp_path / "p.csv"
    assert run(["simulate", "tflp1", "--d", "0.3", "--lambda", "1", "--tmax", "1",
                "--n", "8", "--driver", "tstable", "--out", out]) == 0
    config = json.loads((tmp_path / "p.csv.manifest.json").read_text())["config"]
    spec = spec_from_config({"driver": "tstable"})
    assert spec == spec_from_config(config) == TemperedStable(0.7, 0.01, 1.0)


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "p.csv"
    manifest = tmp_path / "p.csv.manifest.json"
    assert run(["simulate", "tflp2", "--d", "0.25", "--lambda", "0.8",
                "--tmax", "1", "--n", "8", "--seed", "6", "--out", out]) == 0
    first = out.read_bytes()
    out.unlink()
    assert run(["rerun", manifest]) == 0
    assert out.read_bytes() == first


def test_engine_versioned_manifest_reruns_only_on_its_engine(tmp_path, capsys):
    out = tmp_path / "c.csv"
    manifest = tmp_path / "c.csv.manifest.json"
    simulate = ["simulate", "tflp1", "--d", "0.3", "--lambda", "0.5", "--tmax", "4",
                "--n", "8", "--driver", "tstable", "--lambda-noise", "1"]
    for argv, engine in (
            # every curve that takes G takes it by one positive integral
            # (one more below)
            (["analytic", "cov1", "--d", "0.3", "--lambda", "0.5",
              "--range", "0.25:2:0.25"], 1),
            # cov2 has a new numerical route (engine 1): the closed-form covariance
            (["analytic", "cov2", "--d", "0.3", "--lambda", "0.5",
              "--range", "0.25:2:0.25"], 2),
            # cov2 with d < 0 raised before, so it has no older bytes
            (["analytic", "cov2", "--d", "-0.3", "--lambda", "0.5",
              "--range", "0.25:2:0.25"], 2),
            # acvf2 takes its far lags by the stencil rule (engine 2), and
            # every lag past 1 (engine 4); with d < 0 it left a cut spectral
            # inversion for the closed form (one more); the band is
            # calibrated on its lags past 1
            (["analytic", "acvf2", "--d", "0.3", "--lambda", "1",
              "--range", "0:8:2"], 4),
            (["analytic", "acvf2", "--d", "-0.3", "--lambda", "1",
              "--range", "0:8:2"], 5),
            (["analytic", "acvf2band", "--d", "0.3", "--lambda", "1",
              "--range", "5:8:1"], 4),
            (["analytic", "acvf2band", "--d", "-0.3", "--lambda", "1",
              "--range", "5:8:1"], 5),
            # acvf1 drops the plateau from its far-lag differences (engine 1)
            # and takes them by the stencil rule (engine 2), then every lag
            # past 1 (engine 4)
            (["analytic", "acvf1", "--d", "0.2", "--lambda", "1",
              "--range", "0:60:10"], 4),
            # every simulate run convolves only the lags it reads (engine 1),
            # with the kernel cut below rounding and its far-lag constant
            # added through the cumulative increments (engine 2), and direct
            # sums over windows of the increments also when nothing is cut
            # (engine 3), and its kernel cells from series_start on take the
            # series of cell_moments (engine 4)
            ([*simulate[:10], "--driver", "gauss"], 4),
            # drivers that draw compound-Poisson jumps count them once and
            # scatter them over the cells (one more)
            (simulate[:10], 5),
            ([*simulate, "--alpha", "1.4"], 5),
            # tempered-stable drivers with alpha < 1 split their cells into
            # sub-increments instead (one more)
            ([*simulate, "--alpha", "0.7"], 5),
            # type II adds its far-lag constant through the cumulative
            # increments also when nothing is cut (one more)
            (["simulate", "tflp2", *simulate[2:], "--alpha", "1.4"], 6),
            (["simulate", "tfln2", *simulate[2:], "--alpha", "0.7"], 6),
            # verify suites that draw take the new compound-Poisson draws too
            (["verify", "isometry", "--n-draws", "200"], 1),
            (["verify", "isometry", "--n-draws", "200", "--driver", "tstable",
              "--alpha", "1.4", "--lambda-noise", "1"], 1)):
        assert run([*argv, "--out", out]) == 0
        first = out.read_bytes()
        payload = json.loads(manifest.read_text())
        assert payload["engine"] == engine
        out.unlink()
        assert run(["rerun", manifest]) == 0
        assert out.read_bytes() == first
        # a manifest of an earlier engine (none recorded means 0) must fail
        # loudly rather than rerun to other bytes, and leave the output alone
        for stale in {0, engine - 1}:
            out.write_bytes(b"old")
            payload.pop("engine", None)
            manifest.write_text(json.dumps({**payload, **({"engine": stale} if stale else {})},
                                           sort_keys=True, indent=2) + "\n")
            capsys.readouterr()
            assert run(["rerun", manifest]) == 2
            err = capsys.readouterr().err
            assert "engine" in err and len(err.splitlines()) == 1
            assert out.read_bytes() == b"old"
        out.unlink()


def test_unchanged_curve_manifest_has_no_engine_key(tmp_path):
    out = tmp_path / "a.csv"
    manifest = tmp_path / "a.csv.manifest.json"
    for argv in (["analytic", "spec1", "--d", "0.3", "--lambda", "0.5",
                  "--range", "0:3:0.25"],
                 # verify is engine 0 unless its driver splits cells or a
                 # suite that draws takes compound-Poisson jumps
                 ["verify", "calculus"],
                 ["verify", "isometry", "--n-draws", "200", "--driver", "gauss"]):
        assert run([*argv, "--out", out]) == 0
        first, text = out.read_bytes(), manifest.read_text()
        assert "engine" not in json.loads(text)
        out.unlink()
        assert run(["rerun", manifest]) == 0
        assert out.read_bytes() == first and manifest.read_text() == text


def test_simulate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the criterion-05 setting, which takes direct lag sums: they must not
    # go through a BLAS reduction whose order depends on the thread count
    src = os.path.dirname(os.path.dirname(tflp.__file__))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"p{threads}.csv"
        argv = ["simulate", "tflp1", "--d", "0.1667", "--lambda", "0.1", "--tmax", "2",
                "--n", "8", "--ensemble", "3", "--seed", "8", "--out", str(out)]
        subprocess.run([sys.executable, "-m", "tflp.cli", *argv], check=True,
                       env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
                       timeout=120)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_heavily_tempered_simulate_exits_0(tmp_path):
    # with one rejection step per cell this ran for more than a minute
    src = os.path.dirname(os.path.dirname(tflp.__file__))
    argv = ["simulate", "tflp1", "--d", "0.3", "--lambda", "0.5", "--tmax", "10",
            "--n", "10", "--refine", "1", "--driver", "tstable", "--alpha", "0.7",
            "--lambda-noise", "10", "--out", str(tmp_path / "p.csv")]
    done = subprocess.run([sys.executable, "-m", "tflp.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0


def test_half_integer_d_cov1_runs(tmp_path):
    # d = 1.5 hit a pole of the reflection series and exited 2
    out = tmp_path / "h.csv"
    assert run(["analytic", "cov1", "--d", "1.5", "--lambda", "1",
                "--range", "0.1:1:0.1", "--out", out]) == 0
    names, data = read_csv(out)
    assert np.all(np.diff(data[:, 1]) > 0)


def test_acvf2_short_lags_emit_no_integration_warning(tmp_path):
    out = tmp_path / "g.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["analytic", "acvf2", "--d", "0.2", "--lambda", "1",
                    "--range", "0:3:0.37", "--out", out]) == 0


@pytest.mark.parametrize("lam, lags", [("800", "2:4:1"), ("1000", "1:1.05:0.01"),
                                        ("5000", "1:1.05:0.01"), ("1e10", "1:3:0.5")])
def test_acvf2_at_strong_tempering_writes_finite_values(tmp_path, lam, lags):
    # e^{-lam r} of the far-lag integrand once overflowed past lam = 709,
    # and scipy's kve returns nan past z = 2^30; those lags were written as
    # nan with exit 0
    out = tmp_path / "g.csv"
    assert run(["analytic", "acvf2", "--d", "0.2", "--lambda", lam,
                "--range", lags, "--out", out]) == 0
    names, data = read_csv(out)
    assert len(data) >= 3 and np.all(np.isfinite(data))


@pytest.mark.parametrize("curve, lags", [("acvf2", "0:3:1"), ("cov2", "0.5:2:0.5")])
def test_type2_curves_out_of_double_range_exit_3(tmp_path, curve, lags):
    # at lam = 1e-200, S(z) = z [K_mu L_{mu-1} + L_mu K_{mu-1}] of H has an
    # overflowing K against an underflowing L; those rows were written as
    # nan with exit 0
    out = tmp_path / "h.csv"
    assert run(["analytic", curve, "--d", "-0.3", "--lambda", "1e-200",
                "--range", lags, "--out", out]) == 3
    assert not out.exists()


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
    # type II is defined for d > -1/2 except d = 0, where S^II = L
    assert run(["analytic", "cov2", "--d", "0", "--lambda", "1",
                "--out", out]) == 2
    assert run(["estimate", "acvf", "--input", str(tmp_path / "missing.csv"),
                "--out", out]) == 2
    # the positional is checked once, before anything runs, for every command
    series = tmp_path / "series.csv"
    series.write_text("t,x\ntime,value\n0,1\n1,2\n2,0\n")
    assert run(["analytic", "nosuch", "--d", "0.3", "--lambda", "1",
                "--out", out]) == 2
    assert run(["estimate", "nosuch", "--input", series, "--out", out]) == 2
    assert run(["verify", "nosuch", "--out", out]) == 2
    assert not out.exists()
    assert run(["analytic", "acvf1", "--d", "0.3", "--lambda", "1",
                "--range", "0:2:1", "--out", out]) == 0
    manifest = tmp_path / "x.csv.manifest.json"
    payload = json.loads(manifest.read_text())
    payload["config"]["curve"] = "nosuch"
    manifest.write_text(json.dumps(payload))
    assert run(["rerun", manifest]) == 2


def test_cell_budget_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(errors, "MAX_CELLS", 100)
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


def test_draw_budget_exits_3(tmp_path, monkeypatch, capsys):
    out = tmp_path / "x.csv"
    # 1e15 jumps per unit time ended in a MemoryError traceback
    for argv in (["simulate", "tflp1", "--d", "0.3", "--lambda", "1", "--tmax", "1",
                  "--n", "8", "--intensity", "1e15", "--out", out],
                 ["verify", "isometry", "--intensity", "1e15", "--out", out]):
        assert run(argv) == 3
        assert "expected jumps (" in capsys.readouterr().err
        assert not out.exists()
    # about 1.5e3 fine cells fit a budget of 5000; the draws do not: 2.4e4
    # expected jumps, and m n = 9 * 1.5e3 tempered-stable sub-steps
    monkeypatch.setattr(errors, "MAX_CELLS", 5000)
    simulate = ["simulate", "tflp1", "--d", "0.3", "--lambda", "1", "--tmax", "1",
                "--n", "8", "--out", out]
    for flags, what in ((["--intensity", "1000"], "expected jumps"),
                        (["--driver", "tstable", "--lambda-noise", "1000"],
                         "sub-step draws")):
        assert run([*simulate, *flags]) == 3
        err = capsys.readouterr().err
        assert what in err and "exceed the budget of 5000" in err
        assert not out.exists()
    assert run([*simulate, "--intensity", "10"]) == 0


def test_sub_step_budget_bounds_time_on_short_grids(tmp_path, capsys):
    # m = 67734 sub-steps of a 64-cell grid were within a budget on m n and
    # took 45 s; each sub-step now counts as at least 4096 draws
    out = tmp_path / "x.csv"
    start = time.perf_counter()
    assert run(["simulate", "tflp1", "--d", "0.3", "--lambda", "1", "--tmax", "64",
                "--n", "64", "--refine", "1", "--driver", "tstable",
                "--lambda-noise", "1e6", "--out", out]) == 3
    assert time.perf_counter() - start < 1.0
    assert "sub-step draws (" in capsys.readouterr().err
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
    # values of the wrong type, and null where the key has a default
    ("rerun {tmp}/m.json", {"m.json": json.dumps({"command": "analytic", "config": {
        "curve": "cov1", "d": "0.3", "lam": 1.0, "el2": 1.0, "range": "0:3:1",
        "out": "x.csv"}})}, 2),
    ("rerun {tmp}/m.json", {"m.json": json.dumps({"command": "analytic", "config": {
        "curve": "cov1", "d": 0.3, "lam": 1.0, "el2": None, "range": "0:3:1",
        "out": "x.csv"}})}, 2),
    # the asymptotic envelope h^(d-1) e^(-lam h) is only defined for h > 0
    ("analytic acvf2band --d 0.35 --lambda 0.05 --range 0:20:1 --out {tmp}/x.csv", {}, 2),
    # type II is not defined at d = 0, where S^II = L
    ("analytic acvf2 --d 0 --lambda 1 --range 0:3:1 --out {tmp}/x.csv", {}, 2),
    # a malformed range, and two empty ones
    ("analytic cov1 --d 0.3 --lambda 1 --range 1:2 --out {tmp}/x.csv", {}, 2),
    ("analytic cov1 --d 0.3 --lambda 1 --range 5:1:1 --out {tmp}/x.csv", {}, 2),
    ("analytic cov1 --d 0.3 --lambda 1 --range 0:1:0 --out {tmp}/x.csv", {}, 2),
    ("simulate tflp1 --config {tmp}/run.cfg --out {tmp}/x.csv",
     {"run.cfg": "d = 0.3\nlambda 1\n"}, 2),
    ("estimate acvf --input {tmp}/in.csv --out {tmp}/x.csv",
     {"in.csv": "t,x\ntime,value\n0,1\n1,abc\n2,3\n"}, 2),
    ("rerun {tmp}/m.json", {"m.json": json.dumps({"command": "analytic", "config": {
        "curve": "cov1", "d": "abc", "lam": 1.0, "el2": 1.0, "range": "0:3:1",
        "out": "x.csv"}})}, 2),
    # a segment needs a step of L/2 >= 1, and a 2-point Hann window is all zeros
    *(("estimate periodogram --input {tmp}/in.csv --segment-length %d "
       "--out {tmp}/x.csv" % L, {"in.csv": "t,x\ntime,value\n0,1\n1,2\n2,0\n3,1\n"}, 2)
      for L in (0, 1, 2)),
    ("estimate acvf --input {tmp}/in.csv --max-lag -1 --out {tmp}/x.csv",
     {"in.csv": "t,x\ntime,value\n0,1\n1,2\n2,0\n"}, 2),
    # non-finite range parts, a negative EL2 and a negative truncation width
    ("analytic cov1 --d 0.3 --lambda 1 --range 0:inf:1 --out {tmp}/x.csv", {}, 2),
    ("analytic cov1 --d 0.3 --lambda 1 --el2 -1 --out {tmp}/x.csv", {}, 2),
    ("simulate tflp1 --d 0.3 --lambda 1 --tmax 1 --n 8 --trunc-width -1 "
     "--out {tmp}/x.csv", {}, 2),
    # a zero-variance driver leaves the isometry nothing to compare
    ("verify isometry --intensity 0 --out {tmp}/x.csv", {}, 2),
    ("verify all --intensity 0 --out {tmp}/x.csv", {}, 2),
])
def test_bad_input_exits_with_documented_code(tmp_path, capsys, argv, files, code):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run(argv.format(tmp=tmp_path).split()) == code
    err = capsys.readouterr().err
    assert err.startswith({2: "parameter error: ", 3: "tolerance error: "}[code])
    assert "Traceback" not in err


def test_read_csv_reports_bad_rows_by_line(tmp_path):
    # a nan went through the estimators into a nan table with exit 0, and a
    # ragged row stopped in numpy without a line number
    for row, message in (("1,nan", ":4: non-finite value"), ("1,2,3", ":4: 3 columns"),
                         ("1,inf", ":4: non-finite value")):
        path = tmp_path / "in.csv"
        path.write_text(f"t,x\ntime,value\n0,1\n{row}\n2,3\n")
        with pytest.raises(errors.ParameterError, match=message):
            read_csv(path)
        out = tmp_path / "x.csv"
        assert run(["estimate", "acvf", "--input", path, "--out", out]) == 2
        assert not out.exists()


# one command line per command, to which each float flag is appended
_FINITE_BASE = {
    "simulate": ["simulate", "tflp1", "--d", "0.3", "--lambda", "1", "--tmax", "1",
                 "--n", "8"],
    "analytic": ["analytic", "cov1", "--d", "0.3", "--lambda", "1"],
    "verify": ["verify", "isometry", "--n-draws", "200"],
}


def test_non_finite_float_values_exit_2(tmp_path, capsys):
    # every float key of the config table, from a flag and from a manifest:
    # a nan or inf ran on to nan output, a silent default or exit 3
    out = tmp_path / "x.csv"
    floats = [k for k, (typ, _) in cli._FIELDS.items() if typ is float]
    assert {"d", "lam", "el2", "trunc_width", "intensity", "sigma"} <= set(floats)
    for key in floats:
        command = next(c for c, spec in cli._COMMANDS.items() if key in spec[2])
        for bad in ("nan", "inf", "-inf"):
            argv = [*_FINITE_BASE[command], f"{cli._flag(key)}={bad}", "--out", out]
            assert run(argv) == 2, (key, bad)
            assert "must be finite" in capsys.readouterr().err
            assert not out.exists()
    assert run([*_FINITE_BASE["analytic"], "--out", out]) == 0
    manifest = tmp_path / "x.csv.manifest.json"
    payload = json.loads(manifest.read_text())
    out.unlink()
    manifest.write_text(json.dumps({**payload, "config": {**payload["config"],
                                                          "el2": float("nan")}}))
    assert run(["rerun", manifest]) == 2
    assert not out.exists()


def test_verify_suites_pass(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for suite in ("calculus", "covariance", "spectra", "isometry"):
            assert run(["verify", suite]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text.replace("FAILED", "")


@pytest.mark.parametrize("argv", [["isometry", "--n-draws", "0"],
                                  ["isometry", "--n-draws", "1"],
                                  ["all", "--n-draws", "1"]])
def test_verify_with_fewer_than_two_draws_exits_2(tmp_path, capsys, argv):
    # the check needs a sample variance; nothing is drawn or written
    out = tmp_path / "v.csv"
    assert run(["verify", *argv, "--out", out]) == 2
    assert "--n-draws must be at least 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["all", "--intensity", "0"], ["all", "--n-draws", "1"],
                                  ["isometry", "--intensity", "0"]])
def test_verify_checks_isometry_inputs_before_any_suite(monkeypatch, capsys, argv):
    def spy(cfg, table):
        raise AssertionError("a suite ran before the inputs were checked")
    for name in cli._SUITES:
        monkeypatch.setitem(cli._SUITES, name, spy)
    assert run(["verify", *argv]) == 2
    assert "parameter error: verify isometry" in capsys.readouterr().err


def test_verify_isometry_values_follow_the_draw_recipe():
    # each ratio is Var(sum F dL on streams 0..n-1) / (EL2 ||F||^2), bit for bit
    cfg = {"n_draws": 40, "seed": 0}
    table = []
    cli._verify_isometry(cfg, table)
    driver = spec_from_config(cfg)
    f = ElementaryFunction.indicator(1.0)
    cases = [("TFLP2", 0.3), ("TFLP2", -0.3), ("TFLP1", -0.3), ("TFLP1", 0.3)]
    assert len(table) == len(cases)
    for (name, value, *_), (target, d) in zip(table, cases):
        tr = transform_integrand(f, TemperedParams(d, 1.0), target, dx=2.0 ** -6)
        F, g = tr.transformed.values[:-1], tr.transformed.grid
        draws = np.array([np.sum(F * sample_increments(driver, g, 0, stream=i))
                          for i in range(40)])
        assert value == draws.var() / (second_moment(driver) * tr.norm ** 2), name
