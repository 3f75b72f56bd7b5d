#!/usr/bin/env python3
"""Validate a BENCH_fleet.json census from `jgre_bench fleet_census`.

Usage:
  validate_fleet_census.py BENCH_fleet.json [--min-devices N] [--max-images N]

Checks the BenchReport envelope, the fleet block (device count against the
boot-image budget), and the census body: overall and per-scenario-class
blocks must be internally consistent (device counts sum, rates match their
numerators, quantiles ordered p50 <= p90 <= p99 within [min, max]). The
census must be jobs-invariant, so the envelope's "jobs" key must be the
0 marker. Stdlib only.
"""
import argparse

from bench_report_lib import check_envelope, fail, load_json, set_tool

set_tool("validate_fleet_census")


def check_rate(block, rate_key, numerator, denominator, where):
    rate = block.get(rate_key)
    if not isinstance(rate, (int, float)):
        fail(f"{where}: {rate_key} is {rate!r}, want number")
    expected = numerator / denominator if denominator else 0.0
    if abs(rate - expected) > 1e-9:
        fail(f"{where}: {rate_key} is {rate}, want {numerator}/{denominator} "
             f"= {expected}")


def check_sketch(block, key, where):
    sketch = block.get(key)
    if not isinstance(sketch, dict):
        fail(f"{where}: {key} is {sketch!r}, want object")
    for field in ("count", "min", "p50", "p90", "p99", "max"):
        if not isinstance(sketch.get(field), int):
            fail(f"{where}: {key}.{field} is {sketch.get(field)!r}, "
                 f"want integer")
    if not (sketch["min"] <= sketch["p50"] <= sketch["p90"]
            <= sketch["p99"] <= sketch["max"]):
        fail(f"{where}: {key} quantiles not ordered: {sketch}")
    if sketch["count"] == 0 and sketch["max"] != 0:
        fail(f"{where}: {key} empty but max != 0: {sketch}")
    return sketch


def check_class(name, block):
    where = f"scenario_classes[{name}]"
    devices = block.get("devices")
    if not isinstance(devices, int) or devices <= 0:
        fail(f"{where}: devices is {devices!r}, want positive integer")
    for field in ("incidents", "exhausted", "attacker_kills"):
        value = block.get(field)
        if not isinstance(value, int) or value < 0 or value > devices:
            fail(f"{where}: {field} is {value!r}, want 0..{devices}")
    for field in ("ipc_calls", "jgr_adds"):
        value = block.get(field)
        if not isinstance(value, int) or value < 0:
            fail(f"{where}: {field} is {value!r}, want non-negative integer")
    check_rate(block, "incident_rate", block["incidents"], devices, where)
    check_rate(block, "exhausted_rate", block["exhausted"], devices, where)
    # The within-horizon numerator is not emitted separately; the rate must
    # still be a fraction of the class and never exceed the exhausted rate
    # (exhausting within T implies exhausting at all).
    within_rate = block.get("soft_reboot_within_horizon_rate")
    if not isinstance(within_rate, (int, float)) or not 0 <= within_rate <= 1:
        fail(f"{where}: soft_reboot_within_horizon_rate is {within_rate!r}, "
             f"want 0..1")
    if within_rate > block["exhausted_rate"] + 1e-9:
        fail(f"{where}: soft_reboot_within_horizon_rate {within_rate} > "
             f"exhausted_rate {block['exhausted_rate']}")
    tte = check_sketch(block, "time_to_exhaustion_us", where)
    if tte["count"] != block["exhausted"]:
        fail(f"{where}: time_to_exhaustion_us.count {tte['count']} != "
             f"exhausted {block['exhausted']}")
    peak = check_sketch(block, "peak_jgr", where)
    if peak["count"] != devices:
        fail(f"{where}: peak_jgr.count {peak['count']} != devices {devices}")
    return devices


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("report")
    parser.add_argument("--min-devices", type=int, default=1)
    parser.add_argument("--max-images", type=int, default=4)
    args = parser.parse_args()

    doc = load_json(args.report)
    check_envelope(doc, args.report, schema="jgre.bench.fleet_census/v1",
                   schema_version=1, bench="fleet_census",
                   jobs_invariant=True)

    fleet = doc.get("fleet")
    if not isinstance(fleet, dict):
        fail("missing fleet block")
    devices = fleet.get("devices")
    if not isinstance(devices, int) or devices < args.min_devices:
        fail(f"fleet.devices is {devices!r}, want >= {args.min_devices}")
    images = fleet.get("boot_images")
    if not isinstance(images, int) or not 1 <= images <= args.max_images:
        fail(f"fleet.boot_images is {images!r}, want 1..{args.max_images}")

    census = doc.get("census")
    if not isinstance(census, dict):
        fail("missing census block")
    if census.get("devices") != devices:
        fail(f"census.devices {census.get('devices')!r} != "
             f"fleet.devices {devices}")
    overall = census.get("overall")
    if not isinstance(overall, dict):
        fail("missing census.overall block")
    if overall.get("devices") != devices:
        fail(f"census.overall.devices {overall.get('devices')!r} != {devices}")
    check_rate(overall, "incident_rate", overall.get("incidents", -1),
               devices, "overall")

    classes = census.get("scenario_classes")
    if not isinstance(classes, dict) or not classes:
        fail("census.scenario_classes must be a non-empty object")
    class_devices = 0
    for name, block in classes.items():
        if not isinstance(block, dict):
            fail(f"scenario_classes[{name}] must be an object")
        class_devices += check_class(name, block)
    if class_devices != devices:
        fail(f"per-class device counts sum to {class_devices}, "
             f"want {devices}")

    print(f"validate_fleet_census: OK: {devices} devices, {images} boot "
          f"image(s), {len(classes)} scenario class(es)")


if __name__ == "__main__":
    main()
