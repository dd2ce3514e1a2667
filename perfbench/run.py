"""rqmcheck benchmark: time run_suites on one workload and gate its verdicts.

    python3 perfbench/run.py --workload grid-quadrature --seed 0 \
        --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nowhere else.  Each round is one
``run_suites(RunConfig(suites=..., seeds=(seed,), jobs=1))`` call; rounds
repeat until ``--seconds`` would be exceeded (at least one round).

Every call passes the verdict gate: non-controls pass, negative controls
fail, no ``*_internal_error``, the check count matches the config, and
the reports equal those of the first call bit for bit.  Drift of each
measured value against the stored same-seed reference is printed.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: the median
untraced call (``wall_s``), the median fresh-process import time over
several processes (``setup_s``) and the peak resident memory.  ``--trace 1``
alternates untraced and traced calls and prints the per-layer metrics.
The last line of standard output is the JSON result; the exit code is 1
when the gate fails.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_SNIPPET = ("import time; t = time.perf_counter(); "
                 "import rqmcheck, scipy.special, scipy.stats.qmc; "
                 "print(time.perf_counter() - t)")

sys.path.insert(0, str(HERE))

from tracer import Bindings, Tracer, install, time_suites  # noqa: E402
from verdict import (drift, gate, load_reference,  # noqa: E402
                     worst_headroom)
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import rqmcheck from this checkout, or stop without a result."""
    if not (SRC / "rqmcheck" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rqmcheck source under {SRC}")
    sys.path.insert(0, str(SRC))
    import rqmcheck
    if Path(rqmcheck.__file__).resolve().parent != SRC / "rqmcheck":
        raise SystemExit(f"perfbench: imported {rqmcheck.__file__}, "
                         f"not the checkout's copy")
    # lazy imports of the MC paths belong to set-up, not to wall_s
    import scipy.special  # noqa: F401
    import scipy.stats.qmc  # noqa: F401


def measure_setup():
    """Median import time of the program in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def blas_threads():
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    """Machine and software the figures were measured on."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


class Run:
    """Rounds of ``run_suites`` on one workload, gated call by call."""

    def __init__(self, name, seed):
        from rqmcheck.suites import run_suites

        self.name = name
        self.cfg = WORKLOADS[name].config(seed)
        self.run_suites = run_suites
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None          # reports of the first call
        self.first_snapshot = None
        self.walls = []
        self.suite_walls = {}      # suite -> [seconds per untraced call]
        self.traced = []           # per traced call: (wall, layer metrics)
        self.spans = []

    def _gate(self, reports):
        attempted, failed, problems = gate(reports, self.cfg)
        snapshot = [json.dumps(r.as_dict(), sort_keys=True) for r in reports]
        if self.first is None:
            self.first, self.first_snapshot = reports, snapshot
        elif snapshot != self.first_snapshot:
            differing = sum(a != b for a, b in
                            zip(snapshot, self.first_snapshot))
            differing += abs(len(snapshot) - len(self.first_snapshot))
            failed += differing
            problems.append(f"{differing} reports differ from the first call")
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    def untraced(self, suite_seconds):
        gc.collect()
        suite_seconds.clear()
        start = perf_counter()
        reports = self.run_suites(self.cfg)
        self.walls.append(perf_counter() - start)
        for suite, seconds in suite_seconds.items():
            self.suite_walls.setdefault(suite, []).append(seconds)
        self._gate(reports)

    def traced_call(self):
        gc.collect()
        tracer = Tracer()
        tracer.request = len(self.traced)
        bindings = Bindings()
        install(tracer, bindings)
        try:
            reports, wall = tracer.root(self.run_suites)(self.cfg)
        finally:
            bindings.restore()
        self.traced.append((wall, tracer.metrics()))
        self.spans.append(tracer.spans)
        self._gate(reports)

    def measure(self, seconds, trace):
        suite_seconds = {}
        bindings = Bindings()
        time_suites(bindings, suite_seconds)
        start = perf_counter()
        rounds = []
        try:
            while True:
                round_start = perf_counter()
                self.untraced(suite_seconds)
                if trace:
                    self.traced_call()
                rounds.append(perf_counter() - round_start)
                if (perf_counter() - start + statistics.median(rounds)
                        > seconds):
                    break
        finally:
            bindings.restore()


def end_to_end(run, setup_s):
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"wall_s": statistics.median(run.walls),
            "setup_s": setup_s,
            "peak_rss_mb": peak_kb / 1024.0}


def per_layer(run):
    out = {}
    for suite in WORKLOADS[run.name].suites:
        out[f"suite_s.{suite}"] = statistics.median(run.suite_walls[suite])
    n = len(run.traced)
    for _, layer_metrics in run.traced:
        for key, value in layer_metrics.items():
            out[key] = out.get(key, 0.0) + value / n
    traced_wall = sum(wall for wall, _ in run.traced) / n
    out["trace.wall_s"] = traced_wall
    out["trace.overhead"] = traced_wall / statistics.fmean(run.walls) - 1.0
    out["worst_headroom"] = worst_headroom(run.first)
    return out


def write_spans(run, seed):
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{run.name}-seed{seed}-spans.json"
    doc = {"fields": ["request", "id", "parent", "layer", "start", "end"],
           "spans": [list(s) for spans in run.spans for s in spans]}
    path.write_text(json.dumps(doc))
    return path


def select(metrics, declared):
    """Exactly the metrics BENCHMARK.json declares, with their units; a
    suite the workload does not run reads 0."""
    out = {}
    for spec in declared:
        name = spec["name"]
        if name.startswith("suite_s."):
            value = metrics.get(name, 0.0)
        else:
            value = metrics[name]
        out[name] = {"value": float(value), "unit": spec["unit"]}
    return out


def main(argv=None):
    args = parse_args(argv)
    import_program()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps({"environment": {
        **environment(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "jobs": 1}}),
        flush=True)

    setup_s = measure_setup() if args.trace == 0 else None
    run = Run(args.workload, args.seed)
    run.measure(args.seconds, args.trace)

    reference = load_reference(args.workload, args.seed,
                               WORKLOADS[args.workload])
    if reference is None:
        print(json.dumps({"drift": None, "note": "no stored reference for "
                          f"seed {args.seed} of this workload"}))
    else:
        print(json.dumps({"drift": drift(run.first, reference)}))
    for problem in run.problems:
        print(f"GATE FAIL: {problem}")

    if args.trace:
        metrics = select(per_layer(run), declared["per_layer"])
        print(f"spans: {write_spans(run, args.seed)}")
    else:
        metrics = select(end_to_end(run, setup_s), declared["end_to_end"])
        for suite, times in run.suite_walls.items():
            print(f"suite_s.{suite} = {statistics.median(times):.6g} s")
        print(f"check_fail_ratio = {run.failed / run.attempted:.6g} ratio")
        print(f"worst_headroom = {worst_headroom(run.first):.6g} ratio")
    print(f"calls: {len(run.walls)} untraced, {len(run.traced)} traced; "
          f"{run.failed} of {run.attempted} checks failed")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
