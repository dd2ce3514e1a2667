"""Verdict gate and drift of measured values against a stored reference."""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import expected_checks

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def check_keys(reports):
    """Identity of each check: its name plus its sorted inputs."""
    return [r.name + " " + json.dumps(r.inputs, sort_keys=True, default=str)
            for r in reports]


def is_failure(report):
    """A failed non-control, a negative control that passed, or an
    internal error; ``make_report`` already folds the control inversion
    into ``passed``."""
    return (not report.passed) or report.name.endswith("_internal_error")


def gate(reports, cfg):
    """(attempted, failed, problems) for one ``run_suites`` call."""
    expected = expected_checks(cfg)
    failed = [r for r in reports if is_failure(r)]
    problems = [f"{r.name} {r.inputs}: measured {r.measured!r} vs "
                f"tolerance {r.tolerance!r}" for r in failed]
    missing = abs(expected - len(reports))
    if missing:
        problems.append(f"{len(reports)} checks reported, config asks for "
                        f"{expected}")
    return max(expected, len(reports)), len(failed) + missing, problems


def worst_headroom(reports):
    """Largest measured/tolerance over non-control checks."""
    ratios = [r.measured / r.tolerance if r.tolerance else math.inf
              for r in reports if not r.negative_control]
    return max(ratios) if ratios else 0.0


def as_reference(reports):
    return dict(zip(check_keys(reports), (r.measured for r in reports)))


def load_reference(name, seed, workload):
    """Stored same-seed measured values, or None when none were stored for
    this seed and this workload's suites and sizes."""
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    if doc.get("suites") != list(workload.suites) or \
            doc.get("sizes") != workload.sizes:
        return None
    return doc["seeds"].get(str(seed))


def drift(reports, reference):
    """Relative change of each check's measured value against the
    reference; lists every check that changed."""
    changed = []
    compared = 0
    worst = 0.0
    for key, r in zip(check_keys(reports), reports):
        if key not in reference:
            changed.append({"check": key, "reference": None,
                            "measured": r.measured})
            continue
        compared += 1
        ref = reference[key]
        if ref == r.measured or (math.isnan(ref) and math.isnan(r.measured)):
            continue
        rel = abs(r.measured - ref) / max(abs(ref), 1e-300)
        worst = max(worst, rel)
        changed.append({"check": key, "reference": ref,
                        "measured": r.measured, "rel": rel})
    return {"compared": compared, "changed": len(changed),
            "max_rel": worst, "checks": changed}
