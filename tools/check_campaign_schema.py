#!/usr/bin/env python3
"""Schema validation for `genoc campaign ... --json` artifacts.

Validates the schema-versioned report the fault-injection campaign engine
emits: the top-level envelope, the screened/verified arithmetic (every
variant is accounted exactly once), the per-code screen histogram against
the per-variant code lists, and every variant row. CI runs this over a
`campaign --instance mesh16-xy --faults single --json` artifact on every
matrix job so a field rename or a variant that silently drops out of the
accounting fails the build.

Usage: tools/check_campaign_schema.py report.json [--require-free]
           [--expect-free N]
"""
import argparse
import collections
import json
import pathlib
import sys

SCHEMA_VERSION = 2

# The artifact-cache ledger's counters, exactly (v1 also had "primed").
CACHE_KINDS = ("contexts", "dep_graph", "acyclicity", "escape",
               "constraints")

# Stable diagnostic codes the screening rule subset (spec_sanity,
# fault_sanity, connectivity) can reject a variant on. A report may
# never carry an unknown screen code.
KNOWN_SCREEN_CODES = {
    "sanity-invalid-spec",
    "sanity-fault-invalid",
    "sanity-fault-duplicate",
    "net-disconnected",
    "connectivity-broken",
}

TOP_LEVEL = {
    "command": str,
    "schema_version": int,
    "instance": str,
    "spec": str,
    "plan": str,
    "links": int,
    "variants_total": int,
    "screened": int,
    "verified": int,
    "deadlock_free": int,
    "deadlocked": int,
    "any_deadlock": bool,
    "screen_codes": dict,
    "cache": dict,
    "variants": list,
}

# The timing fields a report rendered with timings carries (all or none).
# total_wall_ms covers the whole command, wall_ms the sweep inside it.
TIMING = {
    "threads": int,
    "wall_ms": (int, float),
    "total_wall_ms": (int, float),
    "metrics": dict,
}

VARIANT_ROW = {
    "faults": str,
    "screened": bool,
    "codes": list,
    "deadlock_free": bool,
    "method": str,
    "edges": int,
    "checks": int,
}


def fail(context: str, message: str) -> None:
    sys.exit(f"check_campaign_schema: {context}: {message}")


def check_fields(obj: dict, spec: dict, context: str) -> None:
    if not isinstance(obj, dict):
        fail(context, f"expected an object, got {type(obj).__name__}")
    for key, kind in spec.items():
        if key not in obj:
            fail(context, f"missing field '{key}'")
        value = obj[key]
        # bool is an int subclass in Python; keep the kinds strict.
        if kind is int and isinstance(value, bool):
            fail(context, f"field '{key}' is a bool, wanted an integer")
        if not isinstance(value, kind):
            fail(context, f"field '{key}' has type {type(value).__name__}")


def check_variant_row(row: dict, context: str) -> None:
    """One VariantOutcome: screened rows carry codes and no verdict,
    verified rows carry a verdict and no codes."""
    check_fields(row, VARIANT_ROW, context)
    if not row["faults"]:
        fail(context, "empty faults token list")
    codes = row["codes"]
    for code in codes:
        if not isinstance(code, str) or not code:
            fail(context, "screen codes must be non-empty strings")
        if code not in KNOWN_SCREEN_CODES:
            fail(context, f"unknown screen code '{code}'")
    if codes != sorted(set(codes)):
        fail(context, "screen codes are not sorted and deduplicated")
    if row["screened"]:
        if not codes:
            fail(context, "a screened variant must name at least one code")
        if row["deadlock_free"]:
            fail(context, "a screened variant carries a verify verdict")
    else:
        if codes:
            fail(context, "a verified variant must not carry screen codes")
        if not row["method"]:
            fail(context, "a verified variant must name its deciding stage")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", type=pathlib.Path)
    parser.add_argument("--require-free", action="store_true",
                        help="additionally fail when any verified variant "
                             "deadlocks (the mesh16-xy single-fault CI gate)")
    parser.add_argument("--expect-free", type=int, metavar="N",
                        help="additionally fail unless exactly N verified "
                             "variants are deadlock-free (the torus8-xy "
                             "escape campaign CI gate)")
    args = parser.parse_args()

    try:
        doc = json.loads(args.report.read_text())
    except (OSError, json.JSONDecodeError) as error:
        fail(str(args.report), f"unreadable or invalid JSON: {error}")

    check_fields(doc, TOP_LEVEL, "top level")
    if doc["schema_version"] != SCHEMA_VERSION:
        fail("top level", f"schema_version {doc['schema_version']}, this "
                          f"validator speaks {SCHEMA_VERSION}")
    if doc["command"] != "campaign":
        fail("top level", f"command '{doc['command']}', wanted 'campaign'")
    if any(key in doc for key in TIMING):
        check_fields(doc, TIMING, "top level timing")
        if doc["total_wall_ms"] < doc["wall_ms"]:
            fail("top level", f"total_wall_ms ({doc['total_wall_ms']}) is "
                              f"less than the sweep's wall_ms "
                              f"({doc['wall_ms']})")
    if len(doc["variants"]) != doc["variants_total"]:
        fail("top level", "variants_total does not match the array length")

    # The accounting invariants: every variant is screened XOR verified,
    # and every verified variant has exactly one verdict.
    if doc["screened"] + doc["verified"] != doc["variants_total"]:
        fail("top level", f"screened ({doc['screened']}) + verified "
                          f"({doc['verified']}) != variants_total "
                          f"({doc['variants_total']})")
    if doc["deadlock_free"] + doc["deadlocked"] != doc["verified"]:
        fail("top level", "deadlock_free + deadlocked != verified")
    if doc["any_deadlock"] != (doc["deadlocked"] > 0):
        fail("top level", "any_deadlock contradicts the deadlocked count")

    screened = verified = free = deadlocked = 0
    code_counts: collections.Counter = collections.Counter()
    for i, row in enumerate(doc["variants"]):
        check_variant_row(row, f"variants[{i}]")
        if row["screened"]:
            screened += 1
            code_counts.update(row["codes"])
        else:
            verified += 1
            if row["deadlock_free"]:
                free += 1
            else:
                deadlocked += 1
    for name, count in (("screened", screened), ("verified", verified),
                        ("deadlock_free", free), ("deadlocked", deadlocked)):
        if doc[name] != count:
            fail("top level", f"{name} says {doc[name]}, the variant rows "
                              f"hold {count}")
    if dict(code_counts) != {k: int(v)
                             for k, v in doc["screen_codes"].items()}:
        fail("top level", "screen_codes histogram does not match the "
                          "per-variant code lists")

    cache = doc["cache"]
    if sorted(cache) != sorted(CACHE_KINDS):
        fail("cache", f"counters {sorted(cache)}, wanted "
                      f"{sorted(CACHE_KINDS)}")
    for kind in CACHE_KINDS:
        counter = cache[kind]
        if not isinstance(counter, dict) or set(counter) != {"hits", "misses"}:
            fail(f"cache.{kind}", "wanted a hits/misses ledger")

    if args.require_free and doc["any_deadlock"]:
        bad = [row["faults"] for row in doc["variants"]
               if not row["screened"] and not row["deadlock_free"]]
        fail("top level", f"--require-free: deadlocks on failed={bad}")
    if args.expect_free is not None and doc["deadlock_free"] != args.expect_free:
        fail("top level", f"--expect-free {args.expect_free}: "
                          f"{doc['deadlock_free']} variants are deadlock-free")

    print(f"check_campaign_schema: OK — schema_version {SCHEMA_VERSION}, "
          f"plan {doc['plan']} over {doc['instance']}: "
          f"{doc['variants_total']} variants = {doc['screened']} screened "
          f"+ {doc['verified']} verified ({doc['deadlocked']} deadlocked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
