#!/usr/bin/env python3
"""Validate BENCH_protocol.json emitted by `jgre_bench protocol_graph`.

Usage:
  validate_protocol_graph.py BENCH_protocol.json [--min-refound N]

Checks the envelope (schema jgre.bench.protocol/v1, jobs-invariant marker),
the graph block (edge/chain accounting, the chain-depth histogram summing to
the chain count, at least one multi-service chain), the acyclic-mint
invariant (every listed multi-service chain path visits each interface at
most once), the hunt witness contract (every detection carries a taint
witness; confirmed detections also carry a reproducer), and the seeding
comparison (protocol-seeded re-finds at least as many census interfaces as
analysis seeding, no false positives, the not-refound list adds up).
Stdlib only.
"""
import argparse

from bench_report_lib import check_envelope, fail, load_json, require, set_tool

set_tool("validate_protocol_graph")

CERTAINTIES = {"hypothetical", "weak", "strong", "confirmed"}


def check(doc, path, min_refound):
    check_envelope(doc, path, schema="jgre.bench.protocol/v1",
                   schema_version=1, bench="protocol", jobs_invariant=True)
    require(doc, "budget", int, path)

    graph = require(doc, "graph", dict, path)
    for field in ("nodes", "minting_entries", "edges", "explicit_edges",
                  "cross_service_edges", "chains", "multi_service_chains",
                  "truncated_chains"):
        if require(graph, field, int, "graph") < 0:
            fail(f"graph.{field} is negative")
    if graph["minting_entries"] > graph["nodes"]:
        fail("graph.minting_entries exceeds graph.nodes")
    if graph["explicit_edges"] + graph["cross_service_edges"] < \
            graph["cross_service_edges"]:
        fail("graph edge accounting overflows")
    for field in ("explicit_edges", "cross_service_edges"):
        if graph[field] > graph["edges"]:
            fail(f"graph.{field} exceeds graph.edges")
    if graph["multi_service_chains"] > graph["chains"]:
        fail("graph.multi_service_chains exceeds graph.chains")
    if graph["multi_service_chains"] < 1:
        fail("no multi-service retention chain in the graph")

    histogram = require(doc, "chain_depth_histogram", dict, path)
    total = 0
    for depth, count in histogram.items():
        if not depth.isdigit() or int(depth) < 1:
            fail(f"chain_depth_histogram key {depth!r} is not a depth >= 1")
        if not isinstance(count, int) or count < 1:
            fail(f"chain_depth_histogram[{depth}] is {count!r}, want a "
                 "positive integer")
        total += count
    if total != graph["chains"]:
        fail(f"chain_depth_histogram sums to {total}, graph.chains is "
             f"{graph['chains']}")

    inventory = require(doc, "multi_service_inventory", dict, path)
    if require(inventory, "total", int, "multi_service_inventory") != \
            graph["multi_service_chains"]:
        fail("multi_service_inventory.total disagrees with "
             "graph.multi_service_chains")
    listed = require(inventory, "listed", list, "multi_service_inventory")
    if not listed:
        fail("multi_service_inventory.listed is empty")
    if len(listed) > inventory["total"]:
        fail("multi_service_inventory lists more chains than exist")
    multi_service_seen = False
    for i, chain_path in enumerate(listed):
        ctx = f"multi_service_inventory.listed[{i}]"
        if not isinstance(chain_path, str) or " -> " not in chain_path:
            fail(f"{ctx}: not an 'A -> B' chain path: {chain_path!r}")
        hops = chain_path.split(" -> ")
        # Acyclic-mint invariant: a chain never revisits an interface, so a
        # minted value cannot feed its own producer.
        if len(set(hops)) != len(hops):
            fail(f"{ctx}: chain revisits an interface: {chain_path}")
        services = {hop.rsplit(".", 1)[0] for hop in hops}
        if len(services) > 1:
            multi_service_seen = True
    if not multi_service_seen:
        fail("no listed chain actually spans two services")

    hunt = require(doc, "hunt", dict, path)
    if require(hunt, "id", str, "hunt") != "protocol.cross-call-retention":
        fail(f"hunt.id is {hunt['id']!r}")
    detections = require(hunt, "detections", int, "hunt")
    confirmed = require(hunt, "confirmed", int, "hunt")
    witnessed = require(hunt, "witnessed", int, "hunt")
    items = require(hunt, "items", list, "hunt")
    if len(items) != detections:
        fail(f"hunt.items has {len(items)} entries, hunt.detections is "
             f"{detections}")
    if witnessed != detections:
        fail(f"witness contract broken: {detections} detections but only "
             f"{witnessed} carry a taint witness")
    items_confirmed = 0
    for i, item in enumerate(items):
        ctx = f"hunt.items[{i}]"
        if not isinstance(item, dict):
            fail(f"{ctx}: not an object")
        require(item, "interface_id", str, ctx)
        certainty = require(item, "certainty", str, ctx)
        if certainty not in CERTAINTIES:
            fail(f"{ctx}: certainty {certainty!r} not in "
                 f"{sorted(CERTAINTIES)}")
        require(item, "note", str, ctx)
        if not require(item, "has_witness", bool, ctx):
            fail(f"{ctx}: detection without a taint witness")
        if certainty == "confirmed":
            items_confirmed += 1
            if not require(item, "has_reproducer", bool, ctx):
                fail(f"{ctx}: confirmed detection without a reproducer")
    if items_confirmed != confirmed:
        fail(f"hunt.confirmed is {confirmed}, items say {items_confirmed}")

    seeding = require(doc, "seeding", dict, path)
    for field in ("census_total", "unseeded_refound", "analysis_refound",
                  "protocol_refound", "protocol_seed_executions",
                  "analysis_seed_executions"):
        if require(seeding, field, int, "seeding") < 0:
            fail(f"seeding.{field} is negative")
    not_refound = require(seeding, "protocol_not_refound", list, "seeding")
    if seeding["protocol_refound"] + len(not_refound) != \
            seeding["census_total"]:
        fail(f"protocol_refound ({seeding['protocol_refound']}) + "
             f"not_refound ({len(not_refound)}) != census_total "
             f"({seeding['census_total']})")
    if seeding["protocol_refound"] < seeding["analysis_refound"]:
        fail(f"protocol seeding re-found {seeding['protocol_refound']} < "
             f"analysis seeding's {seeding['analysis_refound']}")
    if seeding["protocol_refound"] < min_refound:
        fail(f"protocol-seeded campaign re-found "
             f"{seeding['protocol_refound']}, need >= {min_refound}")
    if seeding["protocol_seed_executions"] < 1:
        fail("protocol seeding executed no chain seeds")
    false_positives = require(seeding, "false_positives", list, "seeding")
    if false_positives:
        fail(f"{len(false_positives)} false positive(s): {false_positives}")

    print(f"validate_protocol_graph: OK: {path}: "
          f"{graph['multi_service_chains']} multi-service chains, "
          f"{detections} witnessed detections, "
          f"{seeding['protocol_refound']}/{seeding['census_total']} census "
          "re-found, 0 false positives")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("file")
    parser.add_argument("--min-refound", type=int, default=54)
    args = parser.parse_args()
    check(load_json(args.file), args.file, args.min_refound)


if __name__ == "__main__":
    main()
