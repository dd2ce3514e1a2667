"""Store each check's measured value per seed for drift reports.

    python3 perfbench/make_reference.py --workload irrep-action --seeds 0-23

Runs one untraced ``run_suites`` call per seed and merges the measured
values into ``perfbench/reference/<workload>.json``, together with the
verdict-gate outcome of every seed tried and the environment it ran in.
Stored seeds of other suites or sizes are discarded.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from verdict import REFERENCE_DIR, as_reference, gate


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="e.g. 0-9,15")
    args = parser.parse_args(argv)
    run.import_program()
    from rqmcheck.suites import run_suites

    workload = run.WORKLOADS[args.workload]
    path = REFERENCE_DIR / f"{args.workload}.json"
    doc = json.loads(path.read_text()) if path.is_file() else {}
    suites = list(workload.suites)
    if doc.get("suites") != suites or doc.get("sizes") != workload.sizes:
        doc = {"suites": suites, "sizes": workload.sizes, "seeds": {},
               "gate": {}}
    doc["environment"] = run.environment()
    all_passed = True
    for seed in args.seeds:
        cfg = workload.config(seed)
        reports = run_suites(cfg)
        attempted, failed, problems = gate(reports, cfg)
        doc["seeds"][str(seed)] = as_reference(reports)
        doc["gate"][str(seed)] = {"attempted": attempted, "failed": failed,
                                  "problems": problems}
        all_passed &= failed == 0
        print(f"seed {seed}: {attempted - failed}/{attempted} checks pass",
              flush=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
