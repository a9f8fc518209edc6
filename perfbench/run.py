#!/usr/bin/env python3
"""Benchmark for solidcyl: four workloads, checked against a 30-digit reference.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scalar_mix --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 a separate traced run gives the per-layer
ones. The lines before it name every metric with its unit for people.
The library is imported from src/ of the checkout and the CLI runs as
`python3 -m solidcyl.cli`; nothing is installed. --smoke runs every
workload at minimal size, traced and untraced, and checks that each metric
of BENCHMARK.json is emitted with its unit and that nothing failed.
NOTES.md explains the workloads, metrics and estimators.
"""

from __future__ import annotations

import argparse
import json
import sys

from workloads import ROOT, SIZES, WORKLOAD_FUNCS, WORKLOAD_MODULES, Result, load_library, run_workload

WORKLOADS = tuple(WORKLOAD_FUNCS)

E2E_UNITS = {
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# the ten suites of solidcyl.verify, named here so the metric list needs no import
SUITES = (
    "disc_cross", "cyl0_quad", "cyl0_pair", "legendre", "agm",
    "trivial_identities", "scale_invariance", "end_swap", "omega_range", "discontinuity",
)

LAYER_UNITS = {
    "elliptic.rf_calls_per_eval": "calls/eval",
    "elliptic.rd_calls_per_eval": "calls/eval",
    "elliptic.rj_calls_per_eval": "calls/eval",
    "elliptic.rc_calls_per_eval": "calls/eval",
    "elliptic.rf_calls_3term": "count",
    "elliptic.rd_calls_3term": "count",
    "elliptic.rj_calls_3term": "count",
    "elliptic.rc_calls_3term": "count",
    "elliptic.self_share": "frac",
    "elliptic.rf_us": "us",
    "elliptic.rd_us": "us",
    "elliptic.rj_us": "us",
    "elliptic.rj_max_rel_err": "rel",
    "geometry.decompose_us": "us",
    "geometry.self_share": "frac",
    "geometry.share_3term": "frac",
    "geometry.share_2term": "frac",
    "geometry.share_circ": "frac",
    "geometry.share_const": "frac",
    "solid_angle.params_calls_per_eval": "calls/eval",
    "solid_angle.params_calls_3term": "count",
    "solid_angle.params_us": "us",
    "solid_angle.cyl0_us": "us",
    "solid_angle.circ_us": "us",
    "solid_angle.total_3term_us": "us",
    "solid_angle.total_2term_us": "us",
    "solid_angle.total_p99_us": "us",
    "solid_angle.self_share": "frac",
    "solid_angle.series_share": "frac",
    "solid_angle.repeat_term_share": "frac",
    "oracle.quad_calls": "count",
    "oracle.quad_ms": "ms",
    "oracle.agm_us": "us",
    "oracle.mc_block_ms": "ms",
    "oracle.mc_hits": "count",
    "oracle.self_share": "frac",
    **{f"verify.{name}_s": "s" for name in SUITES},
    "verify.checks": "count",
    "cli.import_s": "s",
    "cli.format_share": "frac",
    "cli.output_bytes": "B",
    "trace.overhead_frac": "frac",
    "reference.max_abs_err": "fraction",
    "reference.max_rel_err": "rel",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload at minimal size and check the output")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    mods = load_library() if args.trace else load_library(WORKLOAD_MODULES[args.workload])
    result = run_once(mods, args.workload, args.seed, args.seconds, args.trace, SIZES["full"])
    emit(args.workload, args.trace, result)
    return 0


def run_once(mods, workload, seed, seconds, trace, size) -> Result:
    if trace:
        from traced import traced_run

        return traced_run(mods, workload, seed, seconds, size)
    return run_workload(mods, workload, seed, seconds, size)


def emit(workload, trace, result: Result) -> None:
    units = LAYER_UNITS if trace else E2E_UNITS
    for name, value, unit in result.notes:
        print(f"{workload} {name} = {value:.6g} {unit}")
    for line in result.details:
        print(f"{workload} note: {line}")
    metrics = {name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    sys.stdout.flush()


def smoke() -> int:
    """Every workload at minimal size, untraced and traced; checks names, units and failures."""
    mods = load_library()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        problems.append("BENCHMARK.json names a workload run.py does not have")
    for key, units in (("end_to_end", E2E_UNITS), ("per_layer", LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            problems.append(f"BENCHMARK.json {key} names or units differ from run.py's")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_once(mods, workload, 1, 0.2, trace, SIZES["smoke"])
            units = LAYER_UNITS if trace else E2E_UNITS
            missing = [name for name in units if not isinstance(result.metrics.get(name), (int, float))]
            if missing:
                problems.append(f"{workload} trace={trace}: missing {missing}")
            if result.attempted < 1 or result.failed:
                problems.append(f"{workload} trace={trace}: {result.failed} of {result.attempted} failed: {result.details}")
            print(f"smoke {workload} trace={trace}: {len(units)} metrics, {result.attempted} attempted, {result.failed} failed")
    for p in problems:
        print(f"smoke problem: {p}")
    print("smoke ok" if not problems else "smoke FAILED")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
