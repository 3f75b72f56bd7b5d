#!/usr/bin/env python3
"""Validate a BENCH_matrix.json arms-race grid from `jgre_bench defense_matrix`.

Usage:
  validate_matrix.py BENCH_matrix.json [--min-attacks N] [--min-defenses N]

Checks the BenchReport envelope, then the grid body:
  - completeness: exactly one cell per (attack, defense, jgr_cap) triple of
    the declared axes, in expansion order (caps outermost);
  - outcome legality: every cell's outcome is one of exhausted | killed |
    denied | survived, and agrees with its flags (exhausted <=> the exhausted
    flag; denied => the strategy stopped on its denial budget; exhaustion
    implies a positive time-to-exhaustion);
  - call accounting: issued = ok + denied + failed, all non-negative;
  - collateral: denied benign calls, denied attacker calls, and benign kills
    are all >= 0, and per-policy denial attribution sums to at least the
    attacker+benign split (the defender's own kills are not policy denials);
  - the arms-race headline: at least one (attack, cap) pair exhausts under
    the bare kill-based defender while a mitigation stack stops it, and at
    least one defender-evading cell carries a followup.* hunt hit.

The grid must be jobs-invariant, so the envelope's "jobs" key must be the
0 marker. Stdlib only.
"""
import argparse

from bench_report_lib import check_envelope, fail, load_json, require, set_tool

set_tool("validate_matrix")

OUTCOMES = ("exhausted", "killed", "denied", "survived")


def check_cell(cell, where):
    for field in ("attack", "defense"):
        if not isinstance(cell.get(field), str) or not cell[field]:
            fail(f"{where}: {field} is {cell.get(field)!r}, want string")
    for field in ("jgr_cap", "benign_apps"):
        if not isinstance(cell.get(field), int) or cell[field] < 0:
            fail(f"{where}: {field} is {cell.get(field)!r}, "
                 f"want non-negative integer")
    outcome = cell.get("outcome")
    if outcome not in OUTCOMES:
        fail(f"{where}: outcome is {outcome!r}, want one of {OUTCOMES}")

    counters = ("time_to_exhaustion_us", "calls_issued", "calls_ok",
                "calls_denied", "calls_failed", "denied_attacker_calls",
                "denied_benign_calls", "benign_kills", "peak_jgr",
                "peak_weak_jgr", "ipc_calls")
    for field in counters:
        if not isinstance(cell.get(field), int) or cell[field] < 0:
            fail(f"{where}: {field} is {cell.get(field)!r}, "
                 f"want non-negative integer")
    for field in ("exhausted", "incident", "attacker_killed",
                  "stopped_by_denial"):
        if not isinstance(cell.get(field), bool):
            fail(f"{where}: {field} is {cell.get(field)!r}, want bool")

    # Outcome <-> flag consistency.
    if (outcome == "exhausted") != cell["exhausted"]:
        fail(f"{where}: outcome {outcome!r} disagrees with exhausted flag "
             f"{cell['exhausted']}")
    if cell["exhausted"] and cell["time_to_exhaustion_us"] == 0:
        fail(f"{where}: exhausted but time_to_exhaustion_us is 0")
    if outcome == "denied" and not cell["stopped_by_denial"]:
        fail(f"{where}: outcome denied but stopped_by_denial is false")
    if outcome == "killed" and not cell["attacker_killed"]:
        fail(f"{where}: outcome killed but attacker_killed is false")

    issued = cell["calls_issued"]
    parts = cell["calls_ok"] + cell["calls_denied"] + cell["calls_failed"]
    if issued != parts:
        fail(f"{where}: calls_issued {issued} != ok+denied+failed {parts}")

    by_policy = require(cell, "denied_by_policy", dict, where)
    for policy, denied in by_policy.items():
        if not isinstance(denied, int) or denied < 0:
            fail(f"{where}: denied_by_policy[{policy}] is {denied!r}, "
                 f"want non-negative integer")
    policy_total = sum(by_policy.values())
    split_total = cell["denied_attacker_calls"] + cell["denied_benign_calls"]
    if policy_total != split_total:
        fail(f"{where}: denied_by_policy sums to {policy_total}, but the "
             f"attacker/benign split sums to {split_total}")

    hunts = require(cell, "hunt_hits", dict, where)
    for hunt, hits in hunts.items():
        if not isinstance(hits, int) or hits < 0:
            fail(f"{where}: hunt_hits[{hunt}] is {hits!r}, "
                 f"want non-negative integer")
    return cell


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("report")
    parser.add_argument("--min-attacks", type=int, default=4)
    parser.add_argument("--min-defenses", type=int, default=4)
    args = parser.parse_args()

    doc = load_json(args.report)
    check_envelope(doc, args.report, schema="jgre.bench.defense_matrix/v1",
                   schema_version=1, bench="defense_matrix",
                   jobs_invariant=True)
    grid = require(doc, "grid", dict, args.report)

    attacks = require(grid, "attacks", list, "grid")
    defenses = require(grid, "defenses", list, "grid")
    caps = require(grid, "jgr_caps", list, "grid")
    cells = require(grid, "cells", list, "grid")
    if len(attacks) < args.min_attacks:
        fail(f"grid: {len(attacks)} attacks (< {args.min_attacks})")
    if len(defenses) < args.min_defenses:
        fail(f"grid: {len(defenses)} defense configs (< {args.min_defenses})")
    if len(set(attacks)) != len(attacks) or len(set(defenses)) != len(defenses):
        fail("grid: duplicate axis labels")

    expected = len(attacks) * len(defenses) * len(caps)
    if grid.get("cells_total") != expected or len(cells) != expected:
        fail(f"grid: cells_total {grid.get('cells_total')} / {len(cells)} "
             f"cells, want {expected} for the full axis product")

    # Completeness in expansion order: caps outermost, then attacks, then
    # defenses — the order MatrixRunner shares boot images in.
    index = 0
    by_key = {}
    for cap in caps:
        for attack in attacks:
            for defense in defenses:
                where = f"cells[{index}]"
                cell = check_cell(cells[index], where)
                if (cell["attack"], cell["defense"],
                        cell["jgr_cap"]) != (attack, defense, cap):
                    fail(f"{where}: is ({cell['attack']!r}, "
                         f"{cell['defense']!r}, {cell['jgr_cap']}), want "
                         f"({attack!r}, {defense!r}, {cap}) in expansion "
                         f"order")
                by_key[(attack, defense, cap)] = cell
                index += 1

    # The headline pair: some attack exhausts the bare defender at a cap
    # where a mitigation stack stops it.
    mitigated_pair = False
    for cap in caps:
        for attack in attacks:
            defender = by_key.get((attack, "defender", cap))
            if defender is None or defender["outcome"] != "exhausted":
                continue
            for defense in defenses:
                if defense in ("none", "defender"):
                    continue
                if by_key[(attack, defense, cap)]["outcome"] != "exhausted":
                    mitigated_pair = True
    if not mitigated_pair:
        fail("grid: no (attack, cap) exhausts the bare defender while a "
             "mitigation stack stops it")

    # Detection cross-check: some cell the defender never saw (no incident)
    # still trips a followup.* hunt.
    evader_hunted = any(
        not cell["incident"] and any(
            hits > 0 and hunt.startswith("followup.")
            for hunt, hits in cell["hunt_hits"].items())
        for cell in cells)
    if not evader_hunted:
        fail("grid: no defender-evading cell carries a followup.* hunt hit")

    exhausted = sum(1 for c in cells if c["outcome"] == "exhausted")
    denied = sum(1 for c in cells if c["outcome"] == "denied")
    print(f"validate_matrix: OK: {len(cells)} cells "
          f"({len(attacks)} attacks x {len(defenses)} defenses x "
          f"{len(caps)} caps), {exhausted} exhausted, {denied} denied, "
          f"headline pair and hunt cross-check present")


if __name__ == "__main__":
    main()
