#!/usr/bin/env python3
"""Validate an EnTK trace file against tools/chrome_trace.schema.json.

Usage: validate_trace.py <trace.json> [schema.json]

Uses the `jsonschema` package when available; otherwise falls back to a
structural check enforcing the same constraints (so CI does not need extra
packages). Exits non-zero on the first violation.
"""
import json
import os
import sys


def structural_check(doc):
    assert isinstance(doc, dict), "top level must be an object"
    assert doc.get("displayTimeUnit") == "ms", "displayTimeUnit must be 'ms'"
    events = doc.get("traceEvents")
    assert isinstance(events, list), "traceEvents must be an array"
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        assert isinstance(e, dict), f"{where} must be an object"
        for key in ("ph", "pid", "tid", "name"):
            assert key in e, f"{where} missing '{key}'"
        assert e["ph"] in ("M", "X"), f"{where} ph must be M or X"
        assert isinstance(e["pid"], int) and e["pid"] >= 0, f"{where} bad pid"
        assert isinstance(e["tid"], int) and e["tid"] >= 0, f"{where} bad tid"
        assert isinstance(e["name"], str) and e["name"], f"{where} bad name"
        if e["ph"] == "X":
            for key in ("ts", "dur"):
                assert key in e, f"{where} complete event missing '{key}'"
                assert isinstance(e[key], (int, float)) and e[key] >= 0, \
                    f"{where} bad {key}"
        else:
            assert isinstance(e.get("args"), dict), f"{where} metadata needs args"
    rows = doc.get("entkEvents")
    assert isinstance(rows, list), "entkEvents must be an array"
    types = (int, (int, float), str, str, str)
    for i, row in enumerate(rows):
        where = f"entkEvents[{i}]"
        assert isinstance(row, list) and len(row) == 5, \
            f"{where} must be [wall_us, virtual_s, component, event, uid]"
        for field, expected in zip(row, types):
            assert isinstance(field, expected) and not isinstance(field, bool), \
                f"{where} bad field {field!r}"


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trace_path = sys.argv[1]
    schema_path = sys.argv[2] if len(sys.argv) > 2 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "chrome_trace.schema.json")
    with open(trace_path) as f:
        doc = json.load(f)
    try:
        import jsonschema
        with open(schema_path) as f:
            schema = json.load(f)
        jsonschema.validate(doc, schema)
        mode = "jsonschema"
    except ImportError:
        structural_check(doc)
        mode = "structural fallback"
    n_x = sum(1 for e in doc["traceEvents"] if e["ph"] == "X")
    n_m = len(doc["traceEvents"]) - n_x
    print(f"validate_trace: OK ({mode}): {n_x} spans, {n_m} metadata records, "
          f"{len(doc['entkEvents'])} raw events")
    return 0


if __name__ == "__main__":
    sys.exit(main())
