"""rqmcheck: batch runner for the verification suites.

Usage::

    rqmcheck run [--suite NAME]... [--mass X]... [--spin 2S]...
                 [--variant V]... [--seed N]... [--jobs N]
                 [--config PATH] [--out PATH] [--json] [--csv PATH]
    rqmcheck list [--json]

Exit status: 0 all checks behaved as required, 1 at least one check
failed, 2 usage or configuration error.  A default config file can be
pointed at with the ``RQMCHECK_DEFAULT_CONFIG`` environment variable;
command-line flags override config values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .spacetime import KernelVariant
from .suites import SIZE_FIELDS, SUITES, RunConfig, run_suites

USAGE_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rqmcheck",
        description="run numerical verification suites for the Euclidean "
                    "realization of positive-mass representations")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute verification suites")
    runp.add_argument("--suite", "--suites", action="append", default=None,
                      help="suite name (repeatable or comma-separated); "
                           "'all' runs everything")
    runp.add_argument("--mass", "--masses", action="append", default=None)
    runp.add_argument("--spin", "--spins", action="append", default=None,
                      metavar="TWO_S",
                      help="doubled spin (repeatable or comma-separated)")
    runp.add_argument("--variant", "--variants", action="append",
                      default=None)
    runp.add_argument("--seed", "--seeds", action="append", default=None)
    runp.add_argument("--jobs", type=int, default=None)
    runp.add_argument("--config", default=None,
                      help="JSON config file (see README for the schema)")
    runp.add_argument("--out", default=None, help="write the JSON report")
    runp.add_argument("--json", action="store_true",
                      help="print the JSON report to stdout")
    runp.add_argument("--csv", default=None,
                      help="write a CSV summary (check,param-set,measured,"
                           "tolerance,pass)")

    listp = sub.add_parser("list", help="list available suites")
    listp.add_argument("--json", action="store_true")
    return parser


def load_config(path: str | None) -> dict:
    if path is None:
        path = os.environ.get("RQMCHECK_DEFAULT_CONFIG")
    if not path:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    return data


def _split_flags(values):
    if values is None:
        return None
    out = []
    for v in values:
        out.extend(part for part in str(v).split(",") if part)
    return out


def _pick(flag_values, parse, data, key, default):
    """Parsed command-line values if given, else the config value as is."""
    flags = _split_flags(flag_values)
    if flags:
        return [parse(v) for v in flags]
    return data.get(key, default)


def make_config(args) -> RunConfig:
    """Gather flags and config values; :class:`RunConfig` validates them."""
    data = load_config(args.config)
    variants = _pick(args.variant, str, data, "variants",
                     [v.value for v in KernelVariant])
    if isinstance(variants, list):
        variants = [KernelVariant.from_string(v) for v in variants]
    sizes = {key: data[key] for key in SIZE_FIELDS if key in data}
    return RunConfig(
        suites=_pick(args.suite, str, data, "suites", ["all"]),
        masses=_pick(args.mass, float, data, "masses", [1.0]),
        two_spins=_pick(args.spin, int, data, "spins", [0, 1, 2]),
        variants=variants,
        seeds=_pick(args.seed, int, data, "seeds", [0]),
        tolerances=data.get("tolerances", {}),
        jobs=args.jobs if args.jobs is not None else data.get("jobs", 1),
        **sizes,
    )


def config_echo(cfg: RunConfig) -> dict:
    return {
        "suites": list(cfg.suites),
        "masses": list(cfg.masses),
        "spins": list(cfg.two_spins),
        "variants": [v.value for v in cfg.variants],
        "seeds": list(cfg.seeds),
        "tolerances": cfg.tolerances,
        "jobs": cfg.jobs,
        **{key: getattr(cfg, key) for key in SIZE_FIELDS},
    }


def command_run(args) -> int:
    try:
        cfg = make_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"rqmcheck: {exc}", file=sys.stderr)
        return USAGE_ERROR
    started = time.time()
    reports = run_suites(cfg)
    wall = time.time() - started
    overall = all(r.passed for r in reports)
    doc = {
        "tool": "rqmcheck",
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": config_echo(cfg),
        "checks": [r.as_dict() for r in reports],
        "wall_time_s": wall,
        "overall_pass": overall,
    }
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        control = " [negative control]" if r.negative_control else ""
        params = ", ".join(f"{k}={v}" for k, v in sorted(r.inputs.items(),
                                                         key=str))
        print(f"{flag}  {r.name}{control} ({params}): "
              f"measured {r.measured:.3e} vs tolerance {r.tolerance:.3e}")
    print(f"{'OVERALL PASS' if overall else 'OVERALL FAIL'}: "
          f"{sum(r.passed for r in reports)}/{len(reports)} checks, "
          f"{wall:.1f}s")
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("check,param-set,measured,tolerance,pass\n")
            for r in reports:
                params = ";".join(f"{k}={v}"
                                  for k, v in sorted(r.inputs.items(),
                                                     key=str))
                fh.write(f"{r.name},\"{params}\",{r.measured!r},"
                         f"{r.tolerance!r},{int(r.passed)}\n")
    return 0 if overall else 1


def command_list(args) -> int:
    if args.json:
        doc = {name: desc for name, (_, desc) in SUITES.items()}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    width = max(len(n) for n in SUITES)
    for name, (_, desc) in SUITES.items():
        print(f"{name.ljust(width)}  {desc}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    if args.command == "run":
        return command_run(args)
    return command_list(args)


if __name__ == "__main__":
    sys.exit(main())
