#!/usr/bin/env python3
"""Validate a BENCH_perf.json report from `jgre_bench micro_hotpaths`.

Usage:
  validate_perf_report.py BENCH_perf.json [--floor bench/perf_floor.json]

Two layers:

* Schema/sanity — the report is schema_version 2, every path carries
  positive ops / ns_per_op / ops_per_sec with ns_per_op * ops_per_sec
  consistent, the speedup field matches baseline_ns_per_op / ns_per_op, and
  the aggregate geomean recomputes from the aggregated paths' speedups.
* Regression smoke (--floor) — every path named in the floor file must be
  present, and its measured ns_per_op must not exceed
  max_regression x floor_ns_per_op. Floors are the checked-in pre-rebuild
  baselines, so the gate only trips on gross wall-clock regressions, not
  run-to-run noise or slow CI hardware.

Stdlib only.
"""
import argparse
import math

from bench_report_lib import check_envelope, fail, load_json, set_tool

set_tool("validate_perf_report")

REL_TOL = 1e-6  # for internally-derived fields written by the same process


def check_number(path_key, field, value):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(f"paths.{path_key}.{field} is not a number: {value!r}")
    if not math.isfinite(value) or value <= 0:
        fail(f"paths.{path_key}.{field} must be finite and > 0, got {value}")
    return float(value)


def validate_schema(doc, report_path):
    check_envelope(doc, report_path, schema_version=2, bench="micro_hotpaths",
                   seed=False)
    paths = doc.get("paths")
    if not isinstance(paths, dict) or not paths:
        fail(f"{report_path}: 'paths' missing or empty")

    speedups = {}
    for key, rec in paths.items():
        if not isinstance(rec, dict):
            fail(f"paths.{key} is not an object")
        ops = check_number(key, "ops", rec.get("ops"))
        ns_per_op = check_number(key, "ns_per_op", rec.get("ns_per_op"))
        ops_per_sec = check_number(key, "ops_per_sec", rec.get("ops_per_sec"))
        baseline = check_number(key, "baseline_ns_per_op",
                                rec.get("baseline_ns_per_op"))
        speedup = check_number(key, "speedup_vs_baseline",
                               rec.get("speedup_vs_baseline"))
        if "aggregated" not in rec or not isinstance(rec["aggregated"], bool):
            fail(f"paths.{key}.aggregated missing or not a bool")
        if ops < 1000:
            fail(f"paths.{key}.ops = {ops:.0f} is implausibly small")
        if not math.isclose(ops_per_sec, 1e9 / ns_per_op, rel_tol=REL_TOL):
            fail(f"paths.{key}: ops_per_sec {ops_per_sec} inconsistent with "
                 f"ns_per_op {ns_per_op}")
        if not math.isclose(speedup, baseline / ns_per_op, rel_tol=REL_TOL):
            fail(f"paths.{key}: speedup_vs_baseline {speedup} inconsistent "
                 f"with baseline {baseline} / ns_per_op {ns_per_op}")
        speedups[key] = (speedup, rec["aggregated"])

    agg = doc.get("aggregate")
    if not isinstance(agg, dict):
        fail(f"{report_path}: 'aggregate' missing")
    agg_paths = agg.get("paths")
    if not isinstance(agg_paths, list) or not agg_paths:
        fail("aggregate.paths missing or empty")
    for key in agg_paths:
        if key not in speedups:
            fail(f"aggregate.paths names unknown path {key!r}")
        if not speedups[key][1]:
            fail(f"aggregate.paths includes {key!r} but "
                 f"paths.{key}.aggregated is false")
    for key, (_, aggregated) in speedups.items():
        if aggregated and key not in agg_paths:
            fail(f"paths.{key}.aggregated is true but aggregate.paths "
                 "omits it")
    geomean = agg.get("geomean_speedup_vs_baseline")
    if not isinstance(geomean, (int, float)) or geomean <= 0:
        fail("aggregate.geomean_speedup_vs_baseline missing or non-positive")
    expected = math.exp(
        sum(math.log(speedups[k][0]) for k in agg_paths) / len(agg_paths))
    if not math.isclose(geomean, expected, rel_tol=1e-4):
        fail(f"aggregate geomean {geomean} does not recompute from path "
             f"speedups (expected {expected})")
    return paths


def validate_floor(paths, floor_path):
    floor_doc = load_json(floor_path)
    floors = floor_doc.get("floor_ns_per_op")
    if not isinstance(floors, dict) or not floors:
        fail(f"{floor_path}: floor_ns_per_op missing or empty")
    max_regression = floor_doc.get("max_regression", 2.0)
    if not isinstance(max_regression, (int, float)) or max_regression <= 1:
        fail(f"{floor_path}: max_regression must be > 1")
    failures = []
    for key, floor in floors.items():
        if key not in paths:
            fail(f"floor names path {key!r} absent from the report "
                 "(schema drift?)")
        measured = paths[key]["ns_per_op"]
        limit = max_regression * floor
        status = "OK" if measured <= limit else "REGRESSED"
        print(f"validate_perf_report: {key:18s} {measured:10.3f} ns/op "
              f"(limit {limit:10.3f}) {status}")
        if measured > limit:
            failures.append(key)
    if failures:
        fail(f"hot paths regressed past {max_regression}x their floor: "
             f"{', '.join(failures)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="BENCH_perf.json to validate")
    parser.add_argument("--floor", help="perf_floor.json regression gate")
    args = parser.parse_args()

    doc = load_json(args.report)
    paths = validate_schema(doc, args.report)
    if args.floor:
        validate_floor(paths, args.floor)
    agg = doc["aggregate"]["geomean_speedup_vs_baseline"]
    print(f"validate_perf_report: {args.report} OK — {len(paths)} paths, "
          f"aggregate geomean speedup {agg:.2f}x vs baseline")


if __name__ == "__main__":
    main()
