#!/usr/bin/env python3
"""Validate the per-interface witness report written by
`jgre_bench static_analysis` --analysis-json.

Usage:
  validate_analysis_report.py report.json

Checks the jgre-analysis-report-v1 schema and the witness contract: every
risky, unsifted interface must carry a witness path that starts at the IPC
entry itself (kind ipc_entry, frame == interface id) and ends at the JGR
sink (kind sink, frame == art::IndirectReferenceTable::Add), with every
intermediate step drawn from the known step kinds. Sifted or non-risky
interfaces must not carry a witness. Stdlib only.
"""
import sys

from bench_report_lib import (check_envelope, fail, load_json as load,
                              require, set_tool)

set_tool("validate_analysis_report")

SCHEMA = "jgre-analysis-report-v1"
SINK = "art::IndirectReferenceTable::Add"
STEP_KINDS = {"ipc_entry", "java_call", "stub_receive", "jni_bridge",
              "native_call", "sink"}
RETENTIONS = {"none", "transient", "read_only_key", "member_slot",
              "collection"}
PROTECTIONS = {"unprotected", "helper_guard", "server_constraint"}


def check_witness(witness, iface_id):
    ctx = f"{iface_id}: witness"
    require(witness, "reason", str, ctx)
    steps = require(witness, "steps", list, ctx)
    if len(steps) < 2:
        fail(f"{ctx}: only {len(steps)} steps, need entry and sink")
    for i, step in enumerate(steps):
        if not isinstance(step, dict):
            fail(f"{ctx}: steps[{i}] not an object")
        kind = require(step, "kind", str, f"{ctx}.steps[{i}]")
        frame = require(step, "frame", str, f"{ctx}.steps[{i}]")
        if kind not in STEP_KINDS:
            fail(f"{ctx}: steps[{i}] kind {kind!r} not in "
             f"{sorted(STEP_KINDS)}")
        if not frame:
            fail(f"{ctx}: steps[{i}] has an empty frame")
    if steps[0]["kind"] != "ipc_entry" or steps[0]["frame"] != iface_id:
        fail(f"{ctx}: does not start at the IPC entry "
             f"(got {steps[0]!r})")
    if steps[-1]["kind"] != "sink" or steps[-1]["frame"] != SINK:
        fail(f"{ctx}: does not end at the sink (got {steps[-1]!r})")


def check_report(doc, path):
    check_envelope(doc, path, schema=SCHEMA, seed=False)
    if doc.get("sink") != SINK:
        fail(f"{path}: sink is {doc.get('sink')!r}, want {SINK!r}")

    pipeline = require(doc, "pipeline", dict, path)
    for field in ("services_registered", "native_paths_total",
                  "native_paths_init_only", "native_paths_exploitable",
                  "java_jgr_entries"):
        if require(pipeline, field, int, "pipeline") < 0:
            fail(f"pipeline.{field} is negative")
    if (pipeline["native_paths_total"] - pipeline["native_paths_init_only"]
            != pipeline["native_paths_exploitable"]):
        fail("pipeline: total - init_only != exploitable")

    interfaces = require(doc, "interfaces", list, path)
    if not interfaces:
        fail("interfaces[] is empty")
    seen = set()
    witnesses = 0
    candidates = 0
    for i, iface in enumerate(interfaces):
        ctx = f"interfaces[{i}]"
        if not isinstance(iface, dict):
            fail(f"{ctx}: not an object")
        iface_id = require(iface, "id", str, ctx)
        require(iface, "service", str, ctx)
        require(iface, "method", str, ctx)
        require(iface, "transaction_code", int, ctx)
        for field in ("risky", "reaches_jgr_entry", "takes_binder",
                      "sifted_out", "links_to_death", "mints_session",
                      "constraint_trusts_caller", "app_hosted"):
            require(iface, field, bool, ctx)
        require(iface, "sift_reason", str, ctx)
        require(iface, "retention_via", str, ctx)
        require(iface, "permission", str, ctx)
        retention = require(iface, "retention", str, ctx)
        if retention not in RETENTIONS:
            fail(f"{ctx}: retention {retention!r} not in "
                 f"{sorted(RETENTIONS)}")
        protection = require(iface, "protection", str, ctx)
        if protection not in PROTECTIONS:
            fail(f"{ctx}: protection {protection!r} not in "
                 f"{sorted(PROTECTIONS)}")
        if iface["sifted_out"] and not iface["sift_reason"]:
            fail(f"{ctx}: sifted out without a sift_reason")
        if iface_id in seen:
            fail(f"{ctx}: duplicate interface id {iface_id}")
        seen.add(iface_id)

        is_candidate = iface["risky"] and not iface["sifted_out"]
        if is_candidate:
            candidates += 1
            witness = iface.get("witness")
            if not isinstance(witness, dict):
                fail(f"{iface_id}: risky unsifted interface without a "
                     "witness")
            check_witness(witness, iface_id)
            witnesses += 1
        elif "witness" in iface:
            fail(f"{iface_id}: non-candidate interface carries a witness")
    if candidates == 0:
        fail("no risky, unsifted interfaces in the report")

    print(f"validate_analysis_report: OK: {path}: {len(interfaces)} "
          f"interfaces, {candidates} candidates, all {witnesses} witnesses "
          f"end at the sink")


def main():
    if len(sys.argv) != 2:
        fail("usage: validate_analysis_report.py report.json")
    check_report(load(sys.argv[1]), sys.argv[1])


if __name__ == "__main__":
    main()
