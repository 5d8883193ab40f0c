"""Benchmark of the tflp library and command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 15 --trace 0

Workloads: montecarlo, long_path, tables, cli (see perfbench/README.md).
A run sets up, computes its oracles, then repeats rounds of the
workload's operation list for --seconds seconds (at least one round)
and checks the outputs.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics:

  --trace 0  end-to-end metrics, measured with tracing off and calibrated
             to the host's speed (see hostspeed.py)
  --trace 1  per-layer metrics from alternating untraced and traced rounds

Lines before it are a human-readable report; the full record (seed,
environment, samples, every check) is written to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from hostspeed import REFERENCE_S, calibrated, reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
NAMES = ("montecarlo", "long_path", "tables", "cli")
SETUP_PROBES = 4
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "TFLP_WORKERS")
END_TO_END = ("setup_s", "run_s", "cmd_p50_s", "peak_rss_mb")
# per-layer metrics that are exact counts: they repeat exactly for a seed
EXACT = (".calls", ".elems", ".cells", ".points", ".bytes_computed",
         ".lags_read_frac", ".write_csv.bytes", ".missing_wrappers")


def unit(name):
    for suffix, u in (("_s", "s"), ("_mb", "MB"), (".us_per_point", "us"),
                      (".ms_per_point", "ms"), ("bytes_computed", "B"),
                      (".bytes", "B"), ("_frac", "ratio"), ("abserr_max", "abs")):
        if name.endswith(suffix):
            return u
    return "count"


def environment():
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{v: os.environ.get(v, "unset") for v in THREAD_VARS},
    }


def child_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("TFLP_WORKERS", None)
    return env


def fresh_process(argv):
    """Wall time and stdout of one fresh Python process."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"perfbench: probe {argv} failed:\n{proc.stderr}")
    return wall, proc.stdout


def setup_probe(args):
    """Fresh-process set-up: import tflp, build the seeded inputs, one
    warm-up call.  Oracles are not computed."""
    from workloads import WORKLOADS
    WORKLOADS[args.workload](args.seed, OUT).warmup()


IMPORT_CODE = ("import time; t = time.perf_counter(); import tflp; "
               "print(time.perf_counter() - t)")


# ---------------------------------------------------------------- rounds

class Runner:
    """Runs rounds of a workload and keeps their timings and failures.

    An operation is one entry of the round's list, named by its label;
    it counts once however many rounds fit in --seconds, and fails if
    any of its calls raised, so attempted and failed depend on the seed
    only, not on the machine's speed."""

    def __init__(self, wl):
        self.wl = wl
        self.round_s = []
        self.round_ref_s = []     # mean reference time paired with each round
        self.op_ref_s = []        # mean reference time around each op (REFERENCE_PER_OP)
        self.ops = set()
        self.op_failures = {}

    def round(self, r, tracer=None, calibrate=False):
        """Run round r.  With calibrate, time reference() just before and
        just after the round, or also between its operations if the
        workload's REFERENCE_PER_OP, and pair each round (operation) with
        the mean of the reference times around it.  The reference runs
        are not part of round_s."""
        per_op = calibrate and self.wl.REFERENCE_PER_OP
        refs = [reference()] if calibrate and not per_op else []
        if tracer:
            tracer.install()
        try:
            ops = self.wl.ops(r)
            if tracer:
                tracer.begin_round()
            spent = 0.0
            for label, call in ops:
                self.ops.add(label)
                if per_op:
                    refs.append(reference())
                t0 = perf_counter()
                try:
                    call()
                except Exception as exc:
                    self.op_failures.setdefault(label, f"{label}: {exc!r}")
                    traceback.print_exc()
                spent += perf_counter() - t0
            self.round_s.append(spent)
            if tracer:
                tracer.end_round()
        finally:
            if tracer:
                tracer.uninstall()
        if calibrate:
            refs.append(reference())
            self.round_ref_s.append(statistics.mean(refs))
        if per_op:
            self.op_ref_s.extend(0.5 * (a + b) for a, b in zip(refs, refs[1:]))

    def checks(self):
        from workloads import Check
        try:
            return self.wl.checks()
        except Exception as exc:
            traceback.print_exc()
            return [Check("checks raised", False, repr(exc))]


def run_untraced(args, wl):
    setup, setup_ref = [], []

    def probe():
        before = reference()
        setup.append(fresh_process([os.path.abspath(__file__), "--probe", "setup",
                                    "--workload", args.workload, "--seed", str(args.seed)])[0])
        setup_ref.append(0.5 * (before + reference()))

    # The set-up probes and the oracles run between rounds, spread over the
    # run: the host's speed drifts over tens of seconds, and a longer
    # stretch of it under the rounds makes run_s steadier from run to run.
    tasks = [probe] * SETUP_PROBES + [wl.prepare]
    done = 0
    wl.warmup()
    reference()    # warm-up: the first call is slower
    run = Runner(wl)
    r = 0
    while r < wl.MIN_ROUNDS or sum(run.round_s) + run.round_s[-1] <= args.seconds:
        run.round(r, calibrate=True)
        r += 1
        if r == wl.MIN_ROUNDS:
            # a fixed amount of work, so the allocator's later growth does
            # not tie the figure to how many rounds fit in --seconds
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rss_what = f"benchmark process, up to the end of round {r}"
        while done < int(len(tasks) * min(1.0, sum(run.round_s) / args.seconds)):
            tasks[done]()
            done += 1
    for task in tasks[done:]:
        task()
    if wl.name == "cli":
        # each op runs exactly one command, so wl.cmd_s pairs with op_ref_s
        cmd, cmd_ref = wl.cmd_s, run.op_ref_s
        cmd_what = "commands (one CLI process each)"
        rss, rss_what = max(wl.rss_mb), f"max over {len(wl.rss_mb)} command processes"
    else:
        cmd, cmd_ref = run.round_s, run.round_ref_s
        cmd_what = "rounds (in-process: a command is one round)"
    how = ", calibrated to host speed"
    metrics = {
        "setup_s": (calibrated(setup, setup_ref),
                    f"median of {len(setup)} fresh processes{how}"),
        "run_s": (calibrated(run.round_s, run.round_ref_s),
                  f"median of {len(run.round_s)} rounds{how}"),
        "cmd_p50_s": (calibrated(cmd, cmd_ref), f"median of {len(cmd)} {cmd_what}{how}"),
        "peak_rss_mb": (rss, rss_what),
    }
    n = len(cmd)
    tail = [p for p in (99, 95, 90, 75) if n * (100 - p) / 100 >= 10]
    if tail:
        q = statistics.quantiles([REFERENCE_S * c / f for c, f in zip(cmd, cmd_ref)],
                                 n=100)[tail[0] - 1]
        metrics[f"cmd_p{tail[0]}_s"] = (q, f"of {n} commands{how} (extra, not in BENCHMARK.json)")
    # raw wall times and the host's speed, reported but not bounded
    for name, walls in (("setup_wall_s", setup), ("run_wall_s", run.round_s),
                        ("cmd_p50_wall_s", cmd)):
        metrics[name] = (statistics.median(walls), "median wall time, not calibrated (extra)")
    metrics["reference_s"] = (statistics.median(setup_ref + run.round_ref_s + run.op_ref_s),
                              f"median reference() time (extra; nominal {REFERENCE_S} s)")
    samples = {"setup_s": setup, "setup_ref_s": setup_ref, "round_s": run.round_s,
               "round_ref_s": run.round_ref_s, "cmd_s": cmd, "cmd_ref_s": cmd_ref}
    return run, metrics, samples


def run_traced(args, wl):
    from tracing import WRAPPERS, Tracer
    imports = [float(fresh_process(["-c", IMPORT_CODE])[1])
               for _ in range(IMPORT_PROBES)]
    wl.warmup()
    wl.prepare()
    run = Runner(wl)
    tracer = Tracer()
    plain, traced = [], []
    start = perf_counter()
    r = 0
    while 2 * r < wl.MIN_ROUNDS or (perf_counter() - start + plain[-1]
                                    + traced[-1]["trace.run_s"] <= args.seconds):
        run.round(2 * r)
        plain.append(run.round_s[-1])
        run.round(2 * r + 1, tracer)
        traced.append(tracer.round_metrics())
        r += 1
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.tsv"))
    # times from the traced round of median duration; exact counts from
    # the first traced round, so they repeat for the seed
    mid = sorted(traced, key=lambda m: m["trace.run_s"])[(len(traced) - 1) // 2]
    layer = {k: (traced[0][k] if k.endswith(EXACT) else v) for k, v in mid.items()}
    layer["import.tflp_s"] = statistics.median(imports)
    layer["trace.overhead_s"] = (statistics.median(m["trace.run_s"] for m in traced)
                                 - statistics.median(plain))
    layer["trace.missing_wrappers"] = len(tracer.missing)
    varying = [k for k in layer if k.endswith(EXACT) and k in traced[0]
               and any(m[k] != traced[0][k] for m in traced)]
    idle = [t for t in (f"{m}.{a}" for _, m, a, _ in WRAPPERS)
            if t not in tracer.wrapper_calls and t not in tracer.missing]
    metrics = {k: (v, f"{len(traced)} traced rounds" + (", exact" if k.endswith(EXACT) else ""))
               for k, v in sorted(layer.items())}
    samples = {"plain_round_s": plain, "traced_round_s": [m["trace.run_s"] for m in traced],
               "import_s": imports}
    notes = []
    if tracer.missing:
        notes.append("MISSING WRAPPER TARGETS (their layers read zero): "
                     + ", ".join(tracer.missing))
    if varying:
        notes.append("counts that depend on the round's inputs "
                     "(reported from the first traced round): "
                     + ", ".join(varying))
    notes.append("wrappers that found nothing on this workload: " + (", ".join(idle) or "none"))
    return run, metrics, samples, notes


def run_all(args):
    """Run every workload in turn, one fresh process each, passing its
    report through, then print one summary line per workload."""
    summary = []
    for name in NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited with code {proc.returncode}")
        res = json.loads(proc.stdout.splitlines()[-1])
        summary.append((name, res))
    print("# summary")
    for name, res in summary:
        cells = " ".join(f"{k}={m['value']:.6g}{m['unit']}" for k, m in res["metrics"].items())
        print(f"{name:<11} correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']} {cells}")


# ---------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",),
                    help="'all' runs every workload, one fresh process each, and sums up")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=("setup",), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "tflp", "__init__.py")):
        sys.exit(f"perfbench: no tflp sources at {SRC}; run from the root of a tflp checkout")
    if args.seed < 0:
        sys.exit("perfbench: --seed must be >= 0")
    sys.path.insert(0, SRC)
    if args.probe == "setup":
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS
    os.makedirs(OUT, exist_ok=True)
    in_process = args.workload != "cli" or bool(args.trace)
    wl = WORKLOADS[args.workload](args.seed, OUT, in_process=in_process)
    notes = []
    if args.trace:
        run, metrics, samples, notes = run_traced(args, wl)
    else:
        run, metrics, samples = run_untraced(args, wl)
    checks = run.checks()

    failed_checks = [c for c in checks if not c.ok]
    unexpected = [c for c in failed_checks if not c.known_defect]
    attempted = len(run.ops) + len(checks)
    failed = len(run.op_failures) + len(failed_checks)
    correct = not unexpected and not run.op_failures
    env = environment()

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, how) in metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit(name):<6} {how}")
    print(f"{'fail_frac':<34} {failed / attempted:>14.6g} {'ratio':<6} "
          f"{failed} failed / {attempted} attempted ({len(checks)} checks, "
          f"{len(run.ops)} operations, {len(run.op_failures)} raised)")
    for c in failed_checks:
        print(f"{'KNOWN DEFECT' if c.known_defect else 'FAIL'}: {c.name}: {c.detail}")
    for why in sorted({c.known_defect for c in failed_checks if c.known_defect}):
        print(f"KNOWN DEFECT: {why}")
    for f in run.op_failures.values():
        print(f"RAISED: {f}")
    for note in notes:
        print(f"NOTE: {note}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "metrics": {k: {"value": v, "unit": unit(k), "how": how}
                    for k, (v, how) in metrics.items()},
        "samples": samples, "correct": correct, "attempted": attempted, "failed": failed,
        "op_failures": list(run.op_failures.values()), "notes": notes,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail,
                    "known_defect": c.known_defect} for c in checks],
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, (v, _) in metrics.items()
                    if args.trace or k in END_TO_END},
    }))


if __name__ == "__main__":
    main()
