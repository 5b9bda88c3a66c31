#!/usr/bin/env python3
"""Layered benchmark of the carleman package.

    python3 bench/run.py --workload series-embed --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --workload cli --seed 1 --smoke

One closed-loop client runs jobs one after another: the next job starts when
the previous one has returned and been checked. Every job's output is
compared with the independent oracles in `checks.py` outside the timed span;
a mismatch counts as a failed job and makes the run exit 1.

With `--trace 0` the run measures jobs for at least `--seconds` seconds of
job time and at least MIN_JOBS jobs, in whole schedule blocks, and reports
the end-to-end metrics. Every time it reports is corrected for the speed of
the shared host (see `HostSpeed`); the uncorrected figures are printed too. With `--trace 1` it runs a fixed TRACE_JOBS jobs
(rounded up to whole blocks), records a span around every library call and
reports the per-layer metrics, so counts repeat exactly for a seed.
`--workload all` runs every workload both ways in child processes and also
prints the tracing overhead. `--smoke` runs one block at tiny sizes.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The package is imported from
`src/` next to this directory; without it the run exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import spans  # noqa: E402

MIN_JOBS = 100  # at least ten samples beyond the 90th percentile
TRACE_JOBS = 120
SETUP_REPEATS = 7
WALL_CAP_S = 150.0  # stop early rather than overrun the 180 s exit limit
STARTUP_REPEATS = 7

END_TO_END = (
    ("job_p50_s", "s", "lower"),
    ("job_p90_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

LAYER_CALLS = {
    "series": ("compose", "invert"),
    "matrices": ("carleman_embed", "truncated_multiply", "lul_decompose"),
    "linalg": (
        "plu_decompose", "kernel_basis", "sigma_determinants",
        "find_pivot_rows", "gamma_probe", "invert_triangular",
    ),
    "convergence": ("entry_series_probe", "latent_product_report"),
    "scenarios": ("circle_generator_matrix", "circle_raw_product", "adjoint_mu_check"),
}
SHARE_LAYERS = tuple(LAYER_CALLS) + ("cli", "harness")


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for layer, fns in LAYER_CALLS.items():
        for fn in fns:
            out += [(f"{layer}.{fn}.calls", "count", "lower"), (f"{layer}.{fn}.busy_s", "s", "lower")]
    out += [
        ("linalg.gamma_probe.rows_checked", "count", "lower"),
        ("convergence.terms", "count", "lower"),
        ("convergence.decided_frac", "ratio", "higher"),
        ("scalars.max_bits", "bits", "lower"),
        ("scalars.values_out", "count", "lower"),
        ("cli.interpreter_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.startup_share", "ratio", "lower"),
    ]
    out += [(f"cli.{cmd}.busy_s", "s", "lower") for cmd in jobs.CLI_COMMANDS]
    out += [(f"layer.{layer}.self_share", "ratio", "lower") for layer in SHARE_LAYERS]
    out += [("trace.job_p50_s", "s", "lower"), ("trace.jobs", "count", "higher")]
    return out


class HostSpeed:
    """How fast the host runs a fixed Fraction kernel, sampled between jobs.

    The host is shared: for stretches of a fraction of a second to minutes,
    everything on it runs up to twice as slow, whatever the job. A sample
    is the median wall time of three runs of the kernel. A job's host factor
    is the mean of the samples taken just before and just after it, over
    REFERENCE_S, the kernel's time on the reference host (2-CPU x86-64,
    Python 3.11) at full speed. Dividing a wall time by that factor gives
    the job's time on the reference host at full speed. The kernel does not
    use the library, so a change to the library cannot move the factor.
    """

    REFERENCE_S = 0.00029
    REPEATS = 3

    def __init__(self):
        self.last = None

    def _kernel(self):
        for _ in range(2):
            acc = Fraction(0)
            for i in range(1, 80):
                acc += Fraction(1, i)

    def sample(self):
        walls = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            walls.append(time.perf_counter() - t0)
        self.last = statistics.median(walls)
        return self.last

    def timed(self, fn, *args, **kwargs):
        """(fn's result, its wall time, the mean sample around it)."""
        before = self.last or self.sample()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        return out, elapsed, (before + self.sample()) / 2

    def factor(self, local):
        return local / self.REFERENCE_S


class StartSpeed(HostSpeed):
    """Host speed for the `cli` workload, sampled with one bare interpreter start.

    A `cli` job is mostly interpreter start and import, which slow less under
    host load than `Fraction` arithmetic: at a `HostSpeed` factor of 2, a
    bare start takes about 1.5 times as long. So `cli` samples the host with
    the same kind of work. REFERENCE_S is a bare `python -c pass` on the
    reference host at full speed.
    """

    REFERENCE_S = 0.039
    REPEATS = 1

    def _kernel(self):
        subprocess.run([sys.executable, "-c", "pass"], check=True)


def fresh_import(modules):
    """Import carleman from SRC, discarding any copy already imported."""
    for name in [m for m in sys.modules if m == "carleman" or m.startswith("carleman.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("carleman")
    if Path(pkg.__file__).resolve().parent != SRC / "carleman":
        raise ImportError(f"carleman imported from {pkg.__file__}, not from {SRC}")
    lib = {m: importlib.import_module(f"carleman.{m}") for m in modules}
    return SimpleNamespace(src=SRC, **lib)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def startup_times(env, repeats, speed):
    """Median bare interpreter start, and median extra for importing the CLI."""
    def median_wall(code):
        runs = [speed.timed(subprocess.run, [sys.executable, "-c", code], env=env, check=True)
                for _ in range(repeats)]
        return statistics.median(wall / speed.factor(local) for _, wall, local in runs)

    bare = median_wall("pass")
    return bare, median_wall("import carleman.cli") - bare


def attempt(wl, spec, tracer):
    """Run one job and check it: (seconds, failure reason or None, output)."""
    t0 = time.perf_counter()
    try:
        out = tracer.call("job", wl.run, spec, tracer)
    except Exception as exc:  # a job that raises counts as failed
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}", None
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, wl.check(spec, out), out
    except Exception as exc:  # so does an output the check cannot read
        return elapsed, f"check raised {type(exc).__name__}: {exc}", out


def set_up(cls, args, workdir):
    """Import, generate the first block, run and check the warm-up jobs."""
    t0 = time.perf_counter()
    lib = fresh_import(cls.MODULES)
    wl = cls(lib, random.Random(args.seed), args.smoke, workdir)
    block = wl.make_block()
    reasons = [attempt(wl, spec, spans.NULL)[1] for spec in wl.warmup_specs()]
    return time.perf_counter() - t0, wl, block, next(filter(None, reasons), None)


def measure_set_up(cls, args, workdir, failures, speed):
    (elapsed, wl, block, reason), _, local = speed.timed(set_up, cls, args, workdir)
    if reason:
        failures.append(("warm-up", reason))
    return (elapsed, local), wl, block


def run_workload(args, workdir):
    cls = jobs.WORKLOADS[args.workload]
    failures = []
    speed = StartSpeed() if args.workload == "cli" else HostSpeed()
    # An untimed first round loads the standard library modules the package
    # uses. Further rounds are spread over the run, one after each block, so
    # the median set-up time does not hinge on one moment of machine load.
    if not args.smoke:
        set_up(cls, args, workdir)
    setup, wl, block = measure_set_up(cls, args, workdir, failures, speed)
    setups = [setup]
    wanted = 1 if args.smoke or args.trace else SETUP_REPEATS

    tracer = spans.Tracer() if args.trace else spans.NULL
    counts = Counter()
    walls, locals_ = [], []
    timed = 0.0
    started = time.perf_counter()
    while True:
        for spec in block:
            tracer.job = len(walls)
            (dt, reason, out), _, local = speed.timed(attempt, wl, spec, tracer)
            walls.append(dt)
            locals_.append(local)
            timed += dt
            if reason:
                failures.append((len(walls), reason))
            elif args.trace:
                wl.observe(spec, out, counts)
        if args.smoke or time.perf_counter() - started > WALL_CAP_S:
            break
        if len(setups) < wanted:
            setups.append(measure_set_up(cls, args, workdir, failures, speed)[0])
        if args.trace and len(walls) >= TRACE_JOBS:
            break
        if not args.trace and timed >= args.seconds and len(walls) >= MIN_JOBS:
            break
        block = wl.make_block()

    while len(setups) < wanted:
        setups.append(measure_set_up(cls, args, workdir, failures, speed)[0])
    job_factors = [speed.factor(local) for local in locals_]
    durations = [w / f for w, f in zip(walls, job_factors)]
    setup_times = [e / speed.factor(local) for e, local in setups]
    attempted = len(walls) + sum(1 for where, _ in failures if where == "warm-up")
    ordered = sorted(durations)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
    }
    if args.trace:
        result["metrics"] = traced_metrics(args, wl, tracer, counts, ordered, job_factors, speed)
        spans_dir = ROOT / ".bench_spans"
        spans_dir.mkdir(exist_ok=True)
        tracer.write(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {
            "job_p50_s": statistics.median(ordered),
            "job_p90_s": percentile(ordered, 0.9),
            "jobs_per_s": len(durations) / sum(durations),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(children=args.workload == "cli"),
        }
        result["metrics"] = {n: {"value": values[n], "unit": u} for n, u, _ in END_TO_END}
    raw_walls = sorted(walls)
    print(f"uncorrected: job_p50_s {statistics.median(raw_walls):.6g}, "
          f"job_p90_s {percentile(raw_walls, 0.9):.6g}, jobs_per_s {len(walls) / timed:.6g}, "
          f"setup_s {statistics.median(e for e, _ in setups):.6g}; "
          f"median host factor {statistics.median(job_factors):.4g}, max {max(job_factors):.4g}")
    for where, reason in failures[:5]:
        print(f"FAILED job {where}: {reason}", file=sys.stderr)
    return result, len(durations), timed


def traced_metrics(args, wl, tracer, counts, ordered, job_factors, speed):
    totals = tracer.totals(job_factors)
    values = {}
    for layer, fns in LAYER_CALLS.items():
        for fn in fns:
            calls, busy, _ = totals.get(f"{layer}.{fn}", (0, 0.0, 0.0))
            values[f"{layer}.{fn}.calls"] = calls
            values[f"{layer}.{fn}.busy_s"] = busy
    values["linalg.gamma_probe.rows_checked"] = counts["linalg.gamma_probe.rows_checked"]
    values["convergence.terms"] = counts["convergence.terms"]
    entries = counts["convergence.entries"]
    values["convergence.decided_frac"] = counts["convergence.decided"] / entries if entries else 0.0
    values["scalars.max_bits"] = counts["scalars.max_bits"]
    values["scalars.values_out"] = counts["scalars.values_out"]
    job_total = totals["job"][1]
    if args.workload == "cli":
        interpreter, imports = startup_times(wl.env, 1 if args.smoke else STARTUP_REPEATS, speed)
        values["cli.startup_share"] = (interpreter + imports) * len(ordered) / job_total
    else:
        interpreter = imports = 0.0
        values["cli.startup_share"] = 0.0
    values["cli.interpreter_s"] = interpreter
    values["cli.import_s"] = imports
    for cmd in jobs.CLI_COMMANDS:
        values[f"cli.{cmd}.busy_s"] = totals.get(f"cli.{cmd}", (0, 0.0, 0.0))[1]
    shares = Counter()
    for name, (_, _, self_s) in totals.items():
        shares["harness" if name == "job" else name.split(".")[0]] += self_s
    for layer in SHARE_LAYERS:
        values[f"layer.{layer}.self_share"] = shares[layer] / job_total
    values["trace.job_p50_s"] = statistics.median(ordered)
    values["trace.jobs"] = len(ordered)
    return {n: {"value": values[n], "unit": u} for n, u, _ in per_layer_metrics()}


def print_table(name, result, jobs_run, timed):
    failed_frac = result["failed"] / result["attempted"]
    print(f"{name}: {jobs_run} jobs in {timed:.2f} s of job time, failed_frac {failed_frac:.4g}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:42s} {entry['value']:.6g} {entry['unit']}")


def run_all(args):
    """Every workload untraced then traced, in child processes."""
    summary = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {},
    }
    correct = True
    attempted = failed = 0
    for name in jobs.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode not in (0, 1) or not lines:
                print(f"{name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 2
            res = json.loads(lines[-1])
            correct &= res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            res["failed_frac"] = res["failed"] / res["attempted"]
            entry["traced" if trace else "untraced"] = res
        base = entry["untraced"]["metrics"]["job_p50_s"]["value"]
        entry["trace_overhead"] = entry["traced"]["metrics"]["trace.job_p50_s"]["value"] / base
        print(f"{name}: tracing overhead (traced / untraced job_p50_s) {entry['trace_overhead']:.4f}")
        summary["workloads"][name] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "summary": summary}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*jobs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one block at tiny sizes")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps a running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "carleman" / "__init__.py").is_file():
        print(f"error: no carleman package under {SRC}", file=sys.stderr)
        return 2
    # build: byte-compile the package so no run pays for compilation
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: the carleman sources do not compile", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".bench_work")
    try:
        result, jobs_run, timed = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_table(args.workload, result, jobs_run, timed)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
