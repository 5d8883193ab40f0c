"""Batch command line front end.

Subcommands: simulate (paths/ensembles of the processes and noises),
analytic (tabulate closed-form curves), estimate (empirical estimators
on CSV input), verify (invariant batteries with a pass/fail table) and
rerun (re-execute a saved manifest).

Each choice is written once, in a table: _COMMANDS (positional, its
values, config keys, required keys, runner per command), _FIELDS (type
and default per key), _CURVES (engine, default range, columns and row
values per analytic curve), _TASKS (estimate outputs) and _SUITES (verify
batteries).  build_parser reads them, and _dispatch checks fresh runs and
reruns against them.

Reproducibility contract: every run writes a JSON manifest with the
fully resolved configuration next to its output; `tflp rerun
<manifest>` reproduces the outputs byte for byte.  Outputs carry no
timestamps, floats are written as %.17g, JSON keys are sorted.  A rerun
whose manifest "engine" (0 when absent) is not the current one exits 2.

Config precedence: flags > config file (--config, flat key=value with
'#' comments, keys match the long flag names with '-' -> '_') >
defaults.

Exit codes: 0 success, 1 verification failure, 2 parameter or I/O
error (ValueError, OSError), 3 numeric tolerance, budget or overflow
failure (ToleranceError, ArithmeticError); see tflp.errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analytics
from .calculus import (fourier_multiplier, frac_derivative_minus,
                       frac_integral_minus)
from .driver import DRIVER_DEFAULTS, check_seed, second_moment, spec_from_config
from .errors import ParameterError, ToleranceError, check_budget
from .grids import GridFunction, SampleGrid
from .integration import ElementaryFunction, integrate_general
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
    ParameterError with a line number on a malformed or non-finite value and
    on a row whose column count differs from the first row's, and when there
    are fewer than two columns or two data rows."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    data = []
    for i, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError as exc:
            raise ParameterError(f"{path}:{i}: {exc}") from exc
        if data and len(row) != len(data[0]):
            raise ParameterError(f"{path}:{i}: {len(row)} columns, the first "
                                 f"row has {len(data[0])}")
        if not all(map(math.isfinite, row)):
            raise ParameterError(f"{path}:{i}: non-finite value")
        data.append(row)
    data = np.asarray(data)
    if data.ndim != 2 or min(data.shape) < 2:
        raise ParameterError(f"{path}: expected two header lines, then at "
                             "least two data rows of at least two columns")
    return lines[0].split(","), data


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _engine(command, config):
    """Version of the numerical route behind a run's bytes; manifests record
    it only when it is not 0, so those of unchanged routes keep their bytes.
    analytic: per curve, as in _CURVES (varlimit 1), 1 more for acvf2 and
    acvf2band with d < 0.  simulate: 6, 1 more for type II.  simulate and
    verify: 1 more for a tempered-stable driver with alpha < 1 (split
    cells); simulate and the verify suites that draw (isometry, all): 1 more
    for a driver that draws compound-Poisson jumps (cpois, or tstable with
    alpha >= 1).  The README's engine table gives the route change behind
    each step."""
    if command == "analytic":
        curve = config["curve"]
        return (_CURVES[curve][0] if curve in _CURVES else 1) + int(
            curve in ("acvf2", "acvf2band") and config["d"] < 0)
    simulate = command == "simulate"
    driver = config.get("driver")
    split = driver == "tstable" and config["alpha"] < 1.0
    jumps = driver == "cpois" or (driver == "tstable" and not split)
    draws = simulate or config.get("suite") in ("isometry", "all")
    return (6 * simulate + int(simulate and config["kind"].endswith("2"))
            + int(split) + int(jumps and draws))


def write_manifest(out_path, command, config):
    engine = _engine(command, config)
    _write_json(out_path + ".manifest.json",
                {"command": command, "config": config, "tool": "tflp",
                 **({"engine": engine} if engine else {})})


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
    **{k: (type(v), v) for k, v in DRIVER_DEFAULTS.items()},
    "range": (str, None), "out": (str, None), "input": (str, None),
    "max_lag": (int, 50), "segment_length": (int, 1024),
    "taus": (str, "1,2,4,8,16"),
    "n_draws": (int, 2000), "unit_lag": (float, 1.0),
}


def _resolve(args):
    """Merge flags > config file > defaults into a flat config dict."""
    positional, _, keys, _, _ = _COMMANDS[args.command]
    file_cfg = load_config_file(args.config) if args.config else {}
    cfg = {}
    for k in (positional, *keys):
        typ, default = _FIELDS[k]
        val = getattr(args, k, None)
        if val is None and k in file_cfg:
            val = typ(file_cfg[k])
        if val is None:
            val = default
        cfg[k] = val
    return cfg


def _parse_range(spec):
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except (ValueError, AttributeError) as exc:
        raise ParameterError(f"range must be start:stop:step, got {spec!r}") from exc
    if not np.all(np.isfinite([start, stop, step])):
        raise ParameterError(f"range parts must be finite, got {spec!r}")
    if step <= 0 or stop <= start:
        raise ParameterError(f"empty range {spec!r}")
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    check_budget(n, f"range {spec!r}: points")
    return start + step * np.arange(n)


# ---------------------------------------------------------------- simulate

def run_simulate(cfg):
    if cfg["ensemble"] < 1:
        raise ParameterError("simulate: --ensemble must be >= 1")
    grid = SampleGrid(0.0, cfg["tmax"], cfg["n"])
    paths = simulate_ensemble("TFLP" + cfg["kind"][-1],
                              TemperedParams(cfg["d"], cfg["lam"]), grid,
                              spec_from_config(cfg), cfg["seed"], cfg["ensemble"],
                              cfg["trunc_width"], cfg["refine"])
    if cfg["kind"].startswith("tfln"):
        grid, paths = _unit_lag_noise(grid, paths, cfg["unit_lag"])
    write_csv(cfg["out"], ["t"] + [f"path{i}" for i in range(len(paths))],
              ["time"] + ["value"] * len(paths), np.column_stack([grid.points, paths.T]))
    write_manifest(cfg["out"], "simulate", cfg)


# ---------------------------------------------------------------- analytic

# curve -> (engine, default --range, column names, units, row values after x);
# analytics functions are looked up at call time.  An engine is one more for
# each route change behind the curve's bytes (the README's engine table).
_CURVES = {
    "cov1": (2, "0.25:5:0.25", ["t", "variance"], ["time", "value^2"],
             lambda p, t, el2: [analytics.cov_tflp1(p, t, t, el2)]),
    "cov2": (3, "0.25:5:0.25", ["t", "variance"], ["time", "value^2"],
             lambda p, t, el2: [analytics.cov_tflp2(p, t, t, el2)]),
    "acvf1": (6, "0:50:1", ["h", "gamma"], ["lag", "value^2"],
              lambda p, h, el2: [analytics.acvf_tfln1(p, h, el2)]),
    "acvf2": (6, "0:50:1", ["h", "gamma"], ["lag", "value^2"],
              lambda p, h, el2: [analytics.acvf_tfln2(p, h, el2)]),
    "spec1": (0, "0:3.141:0.01", ["omega", "power"], ["rad/step", "value^2*step"],
              lambda p, w, el2: [el2 * analytics.spec_density_tfln1(p, w)]),
    "spec2": (0, "0:3.141:0.01", ["omega", "power"], ["rad/step", "value^2*step"],
              lambda p, w, el2: [el2 * analytics.spec_density_tfln2(p, w)]),
    "acvf2band": (6, "1:50:1", ["h", "lower", "upper"], ["lag", "value^2", "value^2"],
                  lambda p, h, el2: [el2 * b for b in
                                     analytics.acvf_tfln2_asymptotic_band(p, h)]),
}


def run_analytic(cfg):
    if cfg["el2"] < 0:
        raise ParameterError(f"analytic: --el2 must be >= 0, got {cfg['el2']!r}")
    params = TemperedParams(cfg["d"], cfg["lam"])
    if cfg["curve"] == "varlimit":
        write_csv(cfg["out"], ["var_limit"], ["value^2"],
                  [[analytics.var_limit_tflp1(params, cfg["el2"])]])
    else:
        _, default, names, units, values = _CURVES[cfg["curve"]]
        rows = [[x, *values(params, x, cfg["el2"])]
                for x in _parse_range(cfg["range"] or default)]
        write_csv(cfg["out"], names, units, rows)
    write_manifest(cfg["out"], "analytic", cfg)


# ---------------------------------------------------------------- estimate

# task -> writer of its output from the config and the input's data rows
_TASKS = {
    "acvf": lambda cfg, data: write_csv(
        cfg["out"], ["h", "gamma"], ["lag", "value^2"],
        enumerate(analytics.empirical_acvf(data[:, 1], cfg["max_lag"]))),
    "periodogram": lambda cfg, data: write_csv(
        cfg["out"], ["omega", "power"], ["rad/step", "value^2*step"],
        np.column_stack(analytics.periodogram(data[:, 1], cfg["segment_length"]))),
    "fit-semilrd": lambda cfg, data: _write_json(
        cfg["out"], vars(analytics.fit_semi_lrd(data[:, :2]))),
    # input: wide ensemble CSV (t, path0, path1, ...)
    "holder": lambda cfg, data: _write_json(cfg["out"], analytics.structure_exponent(
        data[:, 1:].T, float(data[1, 0] - data[0, 0]),
        [int(v) for v in cfg["taus"].split(",")])),
}


def run_estimate(cfg):
    _TASKS[cfg["task"]](cfg, read_csv(cfg["input"])[1])
    write_manifest(cfg["out"], "estimate", cfg)


# ---------------------------------------------------------------- verify

def _check(table, name, value, expected, tol):
    table.append((name, value, expected, tol, abs(value - expected) <= tol))


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


def _isometry_driver(cfg):
    """The driver of the isometry suite and its E[L(1)^2], once its inputs
    are checked; run_verify checks them before any suite runs."""
    check_seed(cfg["seed"])
    if cfg["n_draws"] < 2:
        raise ParameterError("verify isometry: --n-draws must be at least 2, "
                             f"got {cfg['n_draws']}")
    driver = spec_from_config(cfg)
    el2 = second_moment(driver)
    if el2 == 0.0:
        raise ParameterError("verify isometry: the driver has E[L(1)^2] = 0, "
                             "so the isometry has nothing to compare")
    return driver, el2


def _verify_isometry(cfg, table):
    n = cfg["n_draws"]
    driver, el2 = _isometry_driver(cfg)
    cases = [("TFLP2", 0.3), ("TFLP2", -0.3), ("TFLP1", -0.3), ("TFLP1", 0.3)]
    f = ElementaryFunction.indicator(1.0)
    for target, d in cases:
        draws, tr = integrate_general(f, TemperedParams(d, 1.0), driver, cfg["seed"],
                                      n, target, dx=2.0 ** -6)
        m2 = draws.var()
        m4 = np.mean((draws - draws.mean()) ** 4)
        se = float(np.sqrt(max(m4 - m2 ** 2, 0.0) / n) / m2)
        _check(table, f"isometry {tr.regime} ({target}, d={d})",
               float(m2 / (el2 * tr.norm ** 2)), 1.0, 3 * se)


def _verify_spectra(cfg, table):
    from scipy import integrate as _si
    p = TemperedParams(0.2, 0.3)
    # h1 = g (1 - cos w) is even, so 2 int_R h1 = 4 (int_0^inf g - int_0^inf
    # g cos w); the oscillatory part goes to quad's Fourier-integral route
    g = lambda w: 1.0 / (2.0 * np.pi * (p.lam ** 2 + w ** 2) ** (p.d + 1.0))
    flat, _ = _si.quad(g, 0.0, np.inf)
    osc, _ = _si.quad(g, 0.0, np.inf, weight="cos", wvar=1.0)
    _check(table, "2*int h1 = gamma1(0)", 4.0 * (flat - osc),
           analytics.acvf_tfln1(p, 0.0), 1e-5)
    for d, h in ((0.4, 1.5), (-0.3, 5.0)):
        p2 = TemperedParams(d, 0.5)
        b = analytics.acvf_tfln2(p2, h, method="bessel")
        f = analytics.acvf_tfln2(p2, h, method="fourier")
        _check(table, f"gamma2 dual route d={d} h={h}", b, f, 1e-5 * abs(b))


_SUITES = {
    "calculus": _verify_calculus, "covariance": _verify_covariance,
    "isometry": _verify_isometry, "spectra": _verify_spectra,
}


def run_verify(cfg):
    table = []
    names = [*_SUITES] if cfg["suite"] == "all" else [cfg["suite"]]
    if "isometry" in names:
        _isometry_driver(cfg)
    for name in names:
        _SUITES[name](cfg, table)
    width = max(len(r[0]) for r in table)
    all_ok = all(r[4] for r in table)
    for name, value, expected, tol, ok in table:
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  value={value:.6g} "
              f"expected={expected:.6g} tol={tol:.2g}")
    print(f"{'OK' if all_ok else 'FAILED'}: {sum(r[4] for r in table)}"
          f"/{len(table)} checks passed")
    if cfg.get("out"):
        rows = [[i, float(r[4])] for i, r in enumerate(table)]
        write_csv(cfg["out"], ["check", "passed"], ["index", "bool"], rows)
        write_manifest(cfg["out"], "verify", cfg)
    return EXIT_OK if all_ok else EXIT_VERIFY


# ---------------------------------------------------------------- plumbing

# command -> (positional, its values, other keys, keys without a default
# that the command cannot run without, runner)
_COMMANDS = {
    "simulate": ("kind", ("tflp1", "tflp2", "tfln1", "tfln2"),
                 ("d", "lam", "tmax", "n", "refine", "trunc_width", "ensemble",
                  "seed", "unit_lag", *DRIVER_DEFAULTS, "out"),
                 ("d", "lam", "out"), run_simulate),
    "analytic": ("curve", (*_CURVES, "varlimit"),
                 ("d", "lam", "el2", "range", "out"), ("d", "lam", "out"),
                 run_analytic),
    "estimate": ("task", tuple(_TASKS),
                 ("input", "max_lag", "segment_length", "taus", "out"),
                 ("input", "out"), run_estimate),
    "verify": ("suite", (*_SUITES, "all"),
               ("seed", "n_draws", *DRIVER_DEFAULTS, "out"), (), run_verify),
}


def _flag(key):
    return "--lambda" if key == "lam" else "--" + key.replace("_", "-")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tflp",
        description="Tempered fractional Levy processes: simulate, "
                    "tabulate, estimate, verify.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (positional, _, keys, _, _) in _COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument(positional, type=str)
        p.add_argument("--config", type=str, default=None)
        for key in keys:
            p.add_argument(_flag(key), dest=key, type=_FIELDS[key][0], default=None)
    rerun = sub.add_parser("rerun")
    rerun.add_argument("manifest", type=str)
    return parser


def _parses_to(key, value):
    """True when the key's flag parses the value's text back to the value;
    null only for keys whose default is null."""
    typ, default = _FIELDS[key]
    try:
        return default is None if value is None else repr(typ(str(value))) == repr(value)
    except ValueError:
        return False


def _dispatch(command, cfg, engine=None):
    """Validate a configuration, fresh or from a manifest with its engine, and
    run it.  Extra keys (the retired "budget") are kept for byte-identical reruns."""
    if not (isinstance(command, str) and command in _COMMANDS):
        raise ParameterError(f"unknown command {command!r}")
    positional, allowed, keys, required, runner = _COMMANDS[command]
    keys = (positional, *keys)
    if not (isinstance(cfg, dict) and cfg.keys() >= set(keys)):
        raise ParameterError(f"{command}: config must be an object holding "
                             f"the keys {', '.join(keys)}")
    for key in keys:
        if not _parses_to(key, cfg[key]):
            raise ParameterError(f"{command}: {key} must be a "
                                 f"{_FIELDS[key][0].__name__}, got {cfg[key]!r}")
        if isinstance(cfg[key], float) and not np.isfinite(cfg[key]):
            raise ParameterError(f"{command}: {key} must be finite, got {cfg[key]!r}")
    if cfg[positional] not in allowed:
        raise ParameterError(f"unknown {positional} {cfg[positional]!r}")
    missing = [_flag(k) for k in required if cfg[k] is None]
    if missing:
        raise ParameterError(f"{command}: {', '.join(missing)} required")
    if engine not in (None, _engine(command, cfg)):
        raise ParameterError(f"manifest engine {engine!r} is not the current engine "
                             f"{_engine(command, cfg)}; run the command afresh")
    return runner(cfg) or EXIT_OK  # only run_verify returns a code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            with open(args.manifest) as fh:
                manifest = json.load(fh)
            if not isinstance(manifest, dict):
                raise ParameterError(f"{args.manifest}: manifest must be a JSON object")
            return _dispatch(manifest.get("command"), manifest.get("config"),
                             manifest.get("engine", 0))
        return _dispatch(args.command, _resolve(args))
    except (ToleranceError, ArithmeticError) as exc:
        print(f"tolerance error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (ValueError, OSError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
