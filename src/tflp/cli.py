"""Batch command line front end.

Subcommands: simulate (paths/ensembles of the processes and noises),
analytic (tabulate closed-form curves), estimate (empirical estimators
on CSV input), verify (invariant batteries with a pass/fail table) and
rerun (re-execute a saved manifest).

Reproducibility contract: every run writes a JSON manifest with the
fully resolved configuration next to its output; `tflp rerun
<manifest>` reproduces the outputs byte for byte.  Outputs carry no
timestamps, floats are written as %.17g, JSON keys are sorted.

Config precedence: flags > config file (--config, flat key=value with
'#' comments, keys match the long flag names with '-' -> '_') >
defaults.

Exit codes: 0 success, 1 verification failure, 2 parameter error,
3 numeric tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analytics, integration
from .calculus import (GridTooNarrowError, fourier_multiplier,
                       frac_derivative_minus, frac_integral_minus)
from .driver import sample_increments, second_moment, spec_from_config
from .errors import ParameterError, ToleranceError
from .grids import GridFunction, SampleGrid
from .integration import ElementaryFunction, transform_integrand
from .processes import (TemperedParams, _unit_lag_noise, kernel_g1, kernel_g2,
                        simulate_ensemble)
from .special import gamma_fn

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARAMETER = 2
EXIT_TOLERANCE = 3


def _fmt(x) -> str:
    return "%.17g" % float(x)


def write_csv(path, names, units, rows):
    """CSV with a two-line header: column names, then units."""
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        fh.write(",".join(units) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_csv(path):
    """Read a two-line-header CSV; returns (names, array). Raises
    ParameterError with a line number on malformed rows."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParameterError(f"{path}: {exc.strerror}") from exc
    if len(lines) < 3:
        raise ParameterError(f"{path}: expected two header lines plus data")
    names = lines[0].split(",")
    data = []
    for i, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        try:
            data.append([float(v) for v in line.split(",")])
        except ValueError as exc:
            raise ParameterError(f"{path}:{i}: {exc}") from exc
    return names, np.asarray(data)


def write_manifest(out_path, command, config):
    manifest = {"command": command, "config": config, "tool": "tflp"}
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_config_file(path):
    cfg = {}
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{i}: expected key=value")
            k, v = line.split("=", 1)
            k = k.strip()
            if k == "lambda":  # same spelling as the --lambda flag
                k = "lam"
            cfg[k] = v.strip()
    return cfg


# every value the commands consume, with type and default; config files and
# flags both resolve into this table
_FIELDS = {
    "kind": (str, None), "curve": (str, None), "task": (str, None),
    "suite": (str, None),
    "d": (float, None), "lam": (float, None), "el2": (float, 1.0),
    "tmax": (float, 10.0), "n": (int, 256), "refine": (int, 8),
    "trunc_width": (float, 0.0), "ensemble": (int, 1), "seed": (int, 0),
    "driver": (str, "cpois"), "jumps": (str, "uniform"),
    "intensity": (float, 1.0), "a": (float, 1.0), "jump_sigma": (float, 1.0),
    "c": (float, 1.0), "alpha": (float, 0.7), "lambda_noise": (float, 0.01),
    "scale": (float, 1.0), "sigma": (float, 1.0),
    "range": (str, None), "out": (str, None), "input": (str, None),
    "max_lag": (int, 50), "segment_length": (int, 1024),
    "taus": (str, "1,2,4,8,16"), "budget": (str, "quick"),
    "n_draws": (int, 2000), "unit_lag": (float, 1.0),
}


def _resolve(args, keys):
    """Merge flags > config file > defaults into a flat config dict."""
    file_cfg = load_config_file(args.config) if getattr(args, "config", None) else {}
    cfg = {}
    for k in keys:
        typ, default = _FIELDS[k]
        val = getattr(args, k, None)
        if val is None and k in file_cfg:
            val = typ(file_cfg[k])
        if val is None:
            val = default
        cfg[k] = val
    return cfg


def _driver_from_cfg(cfg):
    keys = ("driver", "jumps", "intensity", "a", "jump_sigma", "c", "alpha",
            "lambda_noise", "scale", "sigma")
    return spec_from_config({k: cfg[k] for k in keys if cfg.get(k) is not None})


def _parse_range(spec):
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except (ValueError, AttributeError) as exc:
        raise ParameterError(f"range must be start:stop:step, got {spec!r}") from exc
    if step <= 0 or stop <= start:
        raise ParameterError(f"empty range {spec!r}")
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


# ---------------------------------------------------------------- simulate

def run_simulate(cfg):
    if cfg["kind"] not in ("tflp1", "tflp2", "tfln1", "tfln2"):
        raise ParameterError(f"unknown kind {cfg['kind']!r}")
    if cfg["out"] is None:
        raise ParameterError("simulate: --out is required")
    if cfg["ensemble"] < 1:
        raise ParameterError("simulate: --ensemble must be >= 1")
    grid = SampleGrid(0.0, cfg["tmax"], cfg["n"])
    paths = simulate_ensemble("TFLP" + cfg["kind"][-1],
                              TemperedParams(cfg["d"], cfg["lam"]), grid,
                              _driver_from_cfg(cfg), cfg["seed"], cfg["ensemble"],
                              cfg["trunc_width"], cfg["refine"])
    if cfg["kind"].startswith("tfln"):
        grid, paths = _unit_lag_noise(grid, paths, cfg["unit_lag"])
    write_csv(cfg["out"], ["t"] + [f"path{i}" for i in range(len(paths))],
              ["time"] + ["value"] * len(paths), np.column_stack([grid.points, paths.T]))
    write_manifest(cfg["out"], "simulate", cfg)


# ---------------------------------------------------------------- analytic

def run_analytic(cfg):
    curve = cfg["curve"]
    if cfg["out"] is None:
        raise ParameterError("analytic: --out is required")
    params = TemperedParams(cfg["d"], cfg["lam"])
    el2 = cfg["el2"]
    if curve == "varlimit":
        val = analytics.var_limit_tflp1(params, el2)
        write_csv(cfg["out"], ["var_limit"], ["value^2"], [[val]])
    elif curve in ("cov1", "cov2"):
        ts = _parse_range(cfg["range"] or "0.25:5:0.25")
        fn = analytics.cov_tflp1 if curve == "cov1" else analytics.cov_tflp2
        rows = [[t, fn(params, t, t, el2)] for t in ts]
        write_csv(cfg["out"], ["t", "variance"], ["time", "value^2"], rows)
    elif curve == "acvf1":
        hs = _parse_range(cfg["range"] or "0:50:1")
        rows = [[h, analytics.acvf_tfln1(params, h, el2)] for h in hs]
        write_csv(cfg["out"], ["h", "gamma"], ["lag", "value^2"], rows)
    elif curve == "acvf2":
        hs = _parse_range(cfg["range"] or "0:50:1")
        rows = [[h, analytics.acvf_tfln2(params, h, el2)] for h in hs]
        write_csv(cfg["out"], ["h", "gamma"], ["lag", "value^2"], rows)
    elif curve in ("spec1", "spec2"):
        ws = _parse_range(cfg["range"] or "0:3.141:0.01")
        fn = (analytics.spec_density_tfln1 if curve == "spec1"
              else analytics.spec_density_tfln2)
        rows = [[w, el2 * fn(params, w)] for w in ws]
        write_csv(cfg["out"], ["omega", "power"], ["rad/step", "value^2*step"], rows)
    elif curve == "acvf2band":
        hs = _parse_range(cfg["range"] or "1:50:1")
        rows = []
        for h in hs:
            lo, hi = analytics.acvf_tfln2_asymptotic_band(params, h)
            rows.append([h, el2 * lo, el2 * hi])
        write_csv(cfg["out"], ["h", "lower", "upper"],
                  ["lag", "value^2", "value^2"], rows)
    else:
        raise ParameterError(f"unknown curve {curve!r}")
    write_manifest(cfg["out"], "analytic", cfg)


# ---------------------------------------------------------------- estimate

def run_estimate(cfg):
    task = cfg["task"]
    if cfg["out"] is None or cfg["input"] is None:
        raise ParameterError("estimate: --input and --out are required")
    names, data = read_csv(cfg["input"])
    if task == "acvf":
        series = data[:, 1]
        ac = analytics.empirical_acvf(series, cfg["max_lag"])
        rows = [[h, g] for h, g in enumerate(ac)]
        write_csv(cfg["out"], ["h", "gamma"], ["lag", "value^2"], rows)
    elif task == "periodogram":
        series = data[:, 1]
        om, pw = analytics.periodogram(series, cfg["segment_length"])
        write_csv(cfg["out"], ["omega", "power"], ["rad/step", "value^2*step"],
                  np.column_stack([om, pw]))
    elif task == "fit-semilrd":
        fit = analytics.fit_semi_lrd(data[:, :2])
        payload = {
            "lambda_hat": fit.lambda_hat, "delta_hat": fit.delta_hat,
            "c_hat": fit.c_hat, "fit_range": list(fit.fit_range),
            "residual_rms": fit.residual_rms,
        }
        with open(cfg["out"], "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    elif task == "holder":
        # input: wide ensemble CSV (t, path0, path1, ...)
        t = data[:, 0]
        paths = data[:, 1:].T
        dx = float(t[1] - t[0])
        taus = [int(v) for v in cfg["taus"].split(",")]
        est = analytics.structure_exponent(paths, dx, taus)
        with open(cfg["out"], "w") as fh:
            json.dump(est, fh, sort_keys=True, indent=2)
            fh.write("\n")
    else:
        raise ParameterError(f"unknown task {task!r}")
    write_manifest(cfg["out"], "estimate", cfg)


# ---------------------------------------------------------------- verify

def _check(table, name, value, expected, tol):
    ok = abs(value - expected) <= tol
    table.append((name, value, expected, tol, ok))
    return ok


def _verify_calculus(cfg, table):
    lam = 1.0
    grid = SampleGrid(-25.0, 25.0, 2048)
    f = GridFunction.from_callable(grid, lambda x: np.exp(-x ** 2))
    sl = slice(128, -128)
    for kappa in (0.2, 0.5, 0.8):
        DI = frac_derivative_minus(frac_integral_minus(f, kappa, lam), kappa, lam)
        err = float(np.max(np.abs(DI.values[sl] - f.values[sl])))
        _check(table, f"inversion D(I f)=f kappa={kappa}", err, 0.0, 5e-3)
        M = fourier_multiplier(f, kappa, lam, "-")
        D = frac_derivative_minus(f, kappa, lam)
        err = float(np.max(np.abs(M.values[sl] - D.values[sl])))
        _check(table, f"multiplier vs Marchaud kappa={kappa}", err, 0.0, 2e-2)


def _verify_covariance(cfg, table):
    from scipy import integrate as _si
    for d, lam in ((0.2, 1.0), (-0.3, 0.5)):
        p = TemperedParams(d, lam)
        s, t = 1.0, 2.0
        fint = lambda x: kernel_g1(p, s, x) * kernel_g1(p, t, x)
        total = 0.0
        for a, b in ((-60.0 / lam, 0.0), (0.0, s), (s, t)):
            q, _ = _si.quad(fint, a, b, limit=400, epsabs=1e-13, epsrel=1e-11)
            total += q
        oracle = total / gamma_fn(1 + d) ** 2
        val = analytics.cov_tflp1(p, s, t)
        _check(table, f"cov1 quadrature d={d}", val, oracle, 1e-7 * abs(oracle))
        plateau = analytics.cov_tflp1(p, 20 / lam, 20 / lam)
        lim = analytics.var_limit_tflp1(p)
        _check(table, f"plateau d={d}", plateau, lim, 1e-5 * lim)
    p = TemperedParams(0.3, 1.0)
    q, _ = _si.quad(lambda y: kernel_g2(p, 1.0, y) ** 2, -60, 1.0,
                    limit=800, epsabs=1e-13, epsrel=1e-11)
    oracle = q / gamma_fn(1.3) ** 2
    _check(table, "cov2 quadrature d=0.3", analytics.cov_tflp2(p, 1.0, 1.0),
           oracle, 1e-5 * oracle)


def _verify_isometry(cfg, table):
    n = cfg["n_draws"]
    driver = _driver_from_cfg(cfg)
    el2 = second_moment(driver)
    cases = [("TFLP2", 0.3), ("TFLP2", -0.3), ("TFLP1", -0.3), ("TFLP1", 0.3)]
    f = ElementaryFunction.indicator(1.0)
    for target, d in cases:
        p = TemperedParams(d, 1.0)
        tr = transform_integrand(f, p, target, dx=2.0 ** -6)
        g = tr.transformed.grid
        F = tr.transformed.values[:-1]
        draws = np.empty(n)
        for i in range(n):
            draws[i] = np.sum(F * sample_increments(driver, g, cfg["seed"],
                                                    stream=i))
        pred = el2 * tr.norm ** 2
        ratio = float(draws.var() / pred)
        m2 = draws.var()
        m4 = np.mean((draws - draws.mean()) ** 4)
        se = float(np.sqrt(max(m4 - m2 ** 2, 0.0) / n) / m2)
        regime = tr.regime
        _check(table, f"isometry {regime} ({target}, d={d})", ratio, 1.0, 3 * se)


def _verify_spectra(cfg, table):
    from scipy import integrate as _si
    p = TemperedParams(0.2, 0.3)
    val, _ = _si.quad(lambda w: analytics.spec_density_tfln1(p, w),
                      -np.inf, np.inf, limit=400)
    _check(table, "2*int h1 = gamma1(0)", 2 * val,
           analytics.acvf_tfln1(p, 0.0), 1e-5)
    p2 = TemperedParams(0.4, 0.5)
    for h in (1.5, 5.0):
        b = analytics.acvf_tfln2(p2, h, method="bessel")
        f = analytics.acvf_tfln2(p2, h, method="fourier")
        _check(table, f"gamma2 dual route h={h}", b, f, 1e-5 * abs(b))


def run_verify(cfg):
    table = []
    suites = {
        "calculus": _verify_calculus, "covariance": _verify_covariance,
        "isometry": _verify_isometry, "spectra": _verify_spectra,
    }
    chosen = list(suites) if cfg["suite"] == "all" else [cfg["suite"]]
    for name in chosen:
        if name not in suites:
            raise ParameterError(f"unknown suite {name!r}")
        suites[name](cfg, table)
    width = max(len(r[0]) for r in table)
    all_ok = True
    for name, value, expected, tol, ok in table:
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:<{width}}  value={value:.6g} "
              f"expected={expected:.6g} tol={tol:.2g}")
    print(f"{'OK' if all_ok else 'FAILED'}: {sum(r[4] for r in table)}"
          f"/{len(table)} checks passed")
    if cfg.get("out"):
        rows = [[i, float(r[4])] for i, r in enumerate(table)]
        write_csv(cfg["out"], ["check", "passed"], ["index", "bool"], rows)
        write_manifest(cfg["out"], "verify", cfg)
    return all_ok


# ---------------------------------------------------------------- plumbing

_COMMAND_KEYS = {
    "simulate": ["kind", "d", "lam", "tmax", "n", "refine", "trunc_width",
                 "ensemble", "seed", "unit_lag", "driver", "jumps", "intensity",
                 "a", "jump_sigma", "c", "alpha", "lambda_noise", "scale",
                 "sigma", "out"],
    "analytic": ["curve", "d", "lam", "el2", "range", "out"],
    "estimate": ["task", "input", "max_lag", "segment_length", "taus", "out"],
    "verify": ["suite", "budget", "seed", "n_draws", "driver", "jumps",
               "intensity", "a", "jump_sigma", "c", "alpha", "lambda_noise",
               "scale", "sigma", "out"],
}

_RUNNERS = {
    "simulate": run_simulate, "analytic": run_analytic,
    "estimate": run_estimate,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tflp",
        description="Tempered fractional Levy processes: simulate, "
                    "tabulate, estimate, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(cmd, positional):
        p = sub.add_parser(cmd)
        p.add_argument(positional, type=str)
        p.add_argument("--config", type=str, default=None)
        for key in _COMMAND_KEYS[cmd]:
            if key == positional:
                continue
            typ, _ = _FIELDS[key]
            flag = "--" + key.replace("_", "-")
            if key == "lam":
                p.add_argument("--lambda", dest="lam", type=typ, default=None)
            else:
                p.add_argument(flag, dest=key, type=typ, default=None)
        return p

    add("simulate", "kind")
    add("analytic", "curve")
    add("estimate", "task")
    add("verify", "suite")
    rerun = sub.add_parser("rerun")
    rerun.add_argument("manifest", type=str)
    return parser


def _dispatch(command, cfg):
    if command == "verify":
        return EXIT_OK if run_verify(cfg) else EXIT_VERIFY
    _RUNNERS[command](cfg)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            with open(args.manifest) as fh:
                manifest = json.load(fh)
            command = manifest["command"]
            if command not in _COMMAND_KEYS:
                raise ParameterError(f"manifest command {command!r} unknown")
            return _dispatch(command, manifest["config"])
        cfg = _resolve(args, _COMMAND_KEYS[args.command])
        return _dispatch(args.command, cfg)
    except (ToleranceError, GridTooNarrowError) as exc:
        print(f"tolerance error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (ParameterError, ValueError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
