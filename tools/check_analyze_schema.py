#!/usr/bin/env python3
"""Schema validation for `genoc analyze ... --json` artifacts.

Validates the schema-versioned report the static model analyzer emits: the
top-level envelope, every per-instance row, the typed per-rule stats and
Diagnostic records. CI runs this over the `analyze --all --json` artifact of
every matrix job so a field rename or shape change fails the build instead
of silently breaking the fault-campaign tooling that pre-screens variants
through the analyzer.

Usage: tools/check_analyze_schema.py report.json [--require-clean]
"""
import argparse
import json
import pathlib
import sys

SCHEMA_VERSION = 1

SEVERITIES = {"info", "warning", "error"}

# The registered rule names, in registry order. A report may select a
# subset via --rules, but may never contain an unknown name.
KNOWN_RULES = ("spec_sanity", "turns", "uniformity", "totality", "escape",
               "fault_sanity", "connectivity")

TOP_LEVEL = {
    "command": str,
    "schema_version": int,
    "mode": str,
    "rules": list,
    "instances_total": int,
    "all_clean": bool,
    "findings_total": int,
    "metrics": dict,
    "instances": list,
}

INSTANCE_ROW = {
    "instance": str,
    "spec": str,
    "topology": str,
    "routing": str,
    "nodes": int,
    "ports": int,
    "clean": bool,
    "findings": int,
    "checks": int,
    "wall_ms": (int, float),
    "rules": list,
    "diagnostics": list,
}

RULE_ROW = {
    "stage": str,
    "ran": bool,
    "passed": bool,
    "skip_reason": str,
    "checks": int,
    "wall_ms": (int, float),
    "cpu_ms": (int, float),
}

DIAGNOSTIC_ROW = {
    "stage": str,
    "severity": str,
    "code": str,
    "message": str,
    "witness": dict,
}


def fail(context: str, message: str) -> None:
    sys.exit(f"check_analyze_schema: {context}: {message}")


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


def check_instance_row(row: dict, selected: list, context: str) -> None:
    """One AnalyzeReport row: header fields, per-rule stats matching the
    envelope's rule selection, typed diagnostics from selected rules only."""
    check_fields(row, INSTANCE_ROW, context)
    if [r["stage"] for r in row["rules"] if isinstance(r, dict)
            and "stage" in r] != selected:
        fail(context, "per-instance rule stats do not match the envelope's "
                      "rule selection (names and order must agree)")
    for j, rule in enumerate(row["rules"]):
        check_fields(rule, RULE_ROW, f"{context}.rules[{j}]")
        if rule["ran"] and rule["skip_reason"]:
            fail(f"{context}.rules[{j}]",
                 "a rule that ran must not carry a skip_reason")
    findings = 0
    for j, diagnostic in enumerate(row["diagnostics"]):
        check_fields(diagnostic, DIAGNOSTIC_ROW,
                     f"{context}.diagnostics[{j}]")
        if diagnostic["severity"] not in SEVERITIES:
            fail(f"{context}.diagnostics[{j}]",
                 f"unknown severity '{diagnostic['severity']}'")
        if diagnostic["stage"] not in selected:
            fail(f"{context}.diagnostics[{j}]",
                 f"diagnostic from unselected rule '{diagnostic['stage']}'")
        if not diagnostic["code"]:
            fail(f"{context}.diagnostics[{j}]", "empty diagnostic code")
        for key, value in diagnostic["witness"].items():
            if not isinstance(value, str):
                fail(f"{context}.diagnostics[{j}]",
                     f"witness '{key}' is not a string")
        findings += diagnostic["severity"] != "info"
    if findings != row["findings"]:
        fail(context, f"findings counter says {row['findings']}, the "
                      f"diagnostics array holds {findings} warning/error "
                      "records")
    if row["clean"] != (findings == 0):
        fail(context, "clean flag contradicts the findings count")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", type=pathlib.Path)
    parser.add_argument("--require-clean", action="store_true",
                        help="additionally fail when any analyzed instance "
                             "has findings (the registry-presets CI gate)")
    args = parser.parse_args()

    try:
        doc = json.loads(args.report.read_text())
    except (OSError, json.JSONDecodeError) as error:
        fail(str(args.report), f"unreadable or invalid JSON: {error}")

    check_fields(doc, TOP_LEVEL, "top level")
    if doc["schema_version"] != SCHEMA_VERSION:
        fail("top level", f"schema_version {doc['schema_version']}, this "
                          f"validator speaks {SCHEMA_VERSION}")
    if doc["command"] != "analyze":
        fail("top level", f"command '{doc['command']}', wanted 'analyze'")
    if doc["mode"] not in ("all", "instance"):
        fail("top level", f"unknown mode '{doc['mode']}'")
    if len(doc["instances"]) != doc["instances_total"]:
        fail("top level", "instances_total does not match the array length")
    selected = doc["rules"]
    for name in selected:
        if name not in KNOWN_RULES:
            fail("top level", f"unknown rule '{name}' in the selection")
    if len(set(selected)) != len(selected):
        fail("top level", "duplicate rule in the selection")
    if not selected:
        fail("top level", "empty rule selection")

    findings_total = 0
    for i, row in enumerate(doc["instances"]):
        check_instance_row(row, selected, f"instances[{i}]")
        findings_total += row["findings"]
    if findings_total != doc["findings_total"]:
        fail("top level", f"findings_total says {doc['findings_total']}, "
                          f"the rows sum to {findings_total}")
    if doc["all_clean"] != (findings_total == 0):
        fail("top level", "all_clean contradicts the per-row findings")
    if "analyze.runs" not in doc["metrics"].get("counters", {}):
        fail("metrics", "counters are missing 'analyze.runs'")

    if args.require_clean and not doc["all_clean"]:
        dirty = [row["instance"] for row in doc["instances"]
                 if not row["clean"]]
        fail("top level", f"--require-clean: findings on {dirty}")

    print(f"check_analyze_schema: OK — schema_version {SCHEMA_VERSION}, "
          f"{doc['instances_total']} instances, {len(selected)} rules, "
          f"{findings_total} findings"
          + (", all clean" if doc["all_clean"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
