#!/usr/bin/env python3
"""Validate and compare machine-readable benchmark results (BENCH_*.json).

The bench binaries emit one schema-stable JSON document each (schema
"crcw-bench", see scripts/bench_schema.json and src/obs/bench_report.hpp).
This tool is the CI regression gate over those documents:

  bench_compare.py BASELINE_DIR CURRENT_DIR          # full gate
  bench_compare.py --validate-only CURRENT_DIR       # schema check alone
  bench_compare.py --counters-only BASELINE_DIR CURRENT_DIR
  bench_compare.py --parent P1 .. PN --change C1 .. CN  # paired gate

Gate semantics, per row matched on (bench, series, threads, n, m):

  * timing — FAIL when current median_ns exceeds the baseline median by
    more than --threshold (default 0.15 = 15%), widened per row to three
    baseline coefficients of variation (3·stddev_ns/median_ns) when the
    baseline's own reps disperse more than the floor — a row is never
    flagged for varying less than its committed baseline demonstrably
    varies. Medians, not means: one noisy rep must not trip the gate.
  * counters — attempts/atomics/wins are compared with a relative
    tolerance (--counter-tol, default 0.25). Contended counts are
    scheduling-dependent, so mismatches WARN by default and only fail
    under --counters-strict. `rounds` and `wins` of single-winner
    policies are deterministic in theory, but cross-machine baselines
    may legitimately differ in sweep shape, so strictness is opt-in.

Paired gate: one pass per side cannot tell a change from noise on a
shared machine (one in-process median per row, and a row's time depends
on what ran before it), so --parent/--change take N pass directories per
side, run alternately (parent pass i next to change pass i). A row is
flagged only when all three hold:

  * the change is slower in at least 9 of every 10 pairs;
  * the median of the change's pass medians exceeds the parent's by more
    than --threshold;
  * that excess is larger than the gap between the parent's own
    quartiles across its passes.

Counters are compared on the first pair, as in the single-pass gate.

Exit codes: 0 = gate passed, 1 = validation failure or regression,
2 = usage / IO error. No third-party dependencies (runs on a bare
python3): the schema file is interpreted by the small validator below
rather than by the `jsonschema` package.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SCHEMA_PATH = Path(__file__).resolve().parent / "bench_schema.json"

# refills / reset_tags / tombstones / reclaimed / group_loads /
# fingerprint_false_positives are additive within schema_version 1:
# baselines emitted before they existed simply lack them, so each counter
# is compared only when both sides carry it. probe_p50/probe_p99 are
# deliberately NOT gated: they are upper bounds of power-of-two histogram
# buckets, so a one-bucket shift doubles the value — far too coarse for a
# relative-tolerance comparison.
COUNTER_FIELDS = (
    "attempts",
    "atomics",
    "failures",
    "wins",
    "rounds",
    "refills",
    "reset_tags",
    "tombstones",
    "reclaimed",
    "group_loads",
    "fingerprint_false_positives",
)


# --------------------------------------------------------------------------
# Minimal JSON-Schema-subset validator (type/const/required/properties/
# items/minimum) — enough for bench_schema.json, no dependencies.


def _type_ok(value, expected):
    types = expected if isinstance(expected, list) else [expected]
    for t in types:
        if t == "object" and isinstance(value, dict):
            return True
        if t == "array" and isinstance(value, list):
            return True
        if t == "string" and isinstance(value, str):
            return True
        if t == "integer" and isinstance(value, int) and not isinstance(value, bool):
            return True
        if (
            t == "number"
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        ):
            return True
        if t == "boolean" and isinstance(value, bool):
            return True
        if t == "null" and value is None:
            return True
    return False


def validate(value, schema, path="$"):
    """Returns a list of human-readable schema violations."""
    errors = []
    if "const" in schema:
        if value != schema["const"]:
            errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
        return errors
    if "type" in schema and not _type_ok(value, schema["type"]):
        errors.append(f"{path}: expected type {schema['type']}, got {value!r}")
        return errors
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required member {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                errors.extend(validate(value[key], sub, f"{path}.{key}"))
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors.extend(validate(item, schema["items"], f"{path}[{i}]"))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: {value} below minimum {schema['minimum']}")
    return errors


# --------------------------------------------------------------------------
# Loading and comparison


def load_dir(directory: Path):
    """Returns {bench_name: doc} for every BENCH_*.json in `directory`."""
    docs = {}
    for f in sorted(directory.glob("BENCH_*.json")):
        try:
            doc = json.loads(f.read_text())
        except json.JSONDecodeError as e:
            raise SystemExit(f"error: {f}: not valid JSON: {e}")
        docs[doc.get("bench", f.stem)] = (f, doc)
    return docs


def validate_docs(docs, schema):
    failures = 0
    for bench, (path, doc) in docs.items():
        errors = validate(doc, schema)
        if errors:
            failures += 1
            print(f"SCHEMA FAIL {path}")
            for e in errors[:20]:
                print(f"    {e}")
        else:
            print(f"schema ok   {path} ({len(doc['rows'])} rows)")
    return failures


def report_presence(base_docs, cur_docs):
    """Doc-level presence notice. A BENCH file on only one side is not a row
    mismatch but a whole benchmark appearing or retiring; say so explicitly,
    otherwise a brand-new bench silently skips the gate (no overlapping rows)
    and a stale baseline lingers forever. Notices, not failures: adding or
    retiring a benchmark is a legitimate change — the notice tells the author
    which baseline refresh to run."""
    for bench in sorted(set(cur_docs) - set(base_docs)):
        path, doc = cur_docs[bench]
        print(f"NEW      {path.name}: benchmark only in current "
              f"({len(doc['rows'])} rows, not gated) — commit a baseline via "
              f"scripts/run_bench_smoke.sh build bench_results/baseline")
    for bench in sorted(set(base_docs) - set(cur_docs)):
        path, doc = base_docs[bench]
        print(f"REMOVED  {path.name}: benchmark only in baseline "
              f"({len(doc['rows'])} rows) — delete the committed BENCH file "
              f"if the bench was intentionally retired")


def row_index(docs):
    index = {}
    for bench, (_path, doc) in docs.items():
        for row in doc["rows"]:
            key = (bench, row["series"], row["threads"], row["n"], row["m"])
            index[key] = row
    return index


def fmt_key(key):
    bench, series, threads, n, m = key
    return f"{bench}:{series} t={threads} n={n} m={m}"


def row_threshold(base_row, threshold):
    """Per-row regression threshold: the --threshold floor, widened to three
    baseline coefficients of variation when the baseline's own reps disperse
    more than the floor allows. A row cannot be flagged for varying less than
    its committed baseline already varies rep-to-rep (the CC figures converge
    in a nondeterministic number of iterations, so their wall time legitimately
    moves run to run; the baseline's stddev records exactly how much)."""
    base_med = base_row["median_ns"]
    stddev = base_row.get("stddev_ns")
    if not stddev or base_med <= 0:
        return threshold
    return max(threshold, 3.0 * stddev / base_med)


def compare_timing(base_index, cur_index, threshold):
    regressions = 0
    compared = 0
    for key, base_row in sorted(base_index.items()):
        cur_row = cur_index.get(key)
        if cur_row is None:
            print(f"MISSING  {fmt_key(key)} (in baseline, not in current)")
            continue
        base_med, cur_med = base_row["median_ns"], cur_row["median_ns"]
        if base_med <= 0:
            continue
        compared += 1
        ratio = cur_med / base_med
        delta = (ratio - 1.0) * 100.0
        row_thresh = row_threshold(base_row, threshold)
        if ratio > 1.0 + row_thresh:
            regressions += 1
            print(
                f"REGRESS  {fmt_key(key)}: {base_med:.0f}ns -> {cur_med:.0f}ns "
                f"({delta:+.1f}% > {row_thresh * 100:.0f}% threshold)"
            )
        else:
            print(f"ok       {fmt_key(key)}: {delta:+.1f}%")
    return compared, regressions


def compare_paired(parent_indexes, change_indexes, threshold):
    """The paired timing gate over N alternating pass pairs (module doc)."""
    pairs = len(parent_indexes)
    regressions = 0
    compared = 0
    for key in sorted(parent_indexes[0]):
        rows = [idx.get(key) for idx in parent_indexes + change_indexes]
        if any(row is None for row in rows):
            print(f"MISSING  {fmt_key(key)} (not in every pass)")
            continue
        parent = [row["median_ns"] for row in rows[:pairs]]
        change = [row["median_ns"] for row in rows[pairs:]]
        parent_med = statistics.median(parent)
        if parent_med <= 0:
            continue
        compared += 1
        change_med = statistics.median(change)
        q1, _q2, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        slower = sum(c > p for p, c in zip(parent, change))
        excess = change_med - parent_med
        delta = excess / parent_med * 100.0
        detail = (f"{parent_med:.0f}ns -> {change_med:.0f}ns ({delta:+.1f}%), "
                  f"slower in {slower}/{pairs} pairs, parent IQR {q3 - q1:.0f}ns")
        if (slower * 10 >= pairs * 9 and excess > threshold * parent_med
                and excess > q3 - q1):
            regressions += 1
            print(f"REGRESS  {fmt_key(key)}: {detail}")
        else:
            print(f"ok       {fmt_key(key)}: {detail}")
    return compared, regressions


def compare_counters(base_index, cur_index, tol, strict):
    mismatches = 0
    compared = 0
    for key, base_row in sorted(base_index.items()):
        cur_row = cur_index.get(key)
        if cur_row is None:
            continue
        base_c, cur_c = base_row["counters"], cur_row["counters"]
        if base_c is None or cur_c is None:
            if (base_c is None) != (cur_c is None):
                print(f"COUNTERS {fmt_key(key)}: presence changed "
                      f"(baseline {'has' if base_c else 'lacks'} counters, "
                      f"current {'has' if cur_c else 'lacks'})")
                mismatches += 1
            continue
        compared += 1
        for field in COUNTER_FIELDS:
            if field not in base_c or field not in cur_c:
                continue
            b, c = base_c[field], cur_c[field]
            if b == c:
                continue
            rel = abs(c - b) / max(b, 1)
            if rel > tol:
                mismatches += 1
                print(
                    f"COUNTERS {fmt_key(key)}.{field}: {b} -> {c} "
                    f"({rel * 100:.1f}% > {tol * 100:.0f}% tolerance)"
                )
    label = "failures" if strict else "warnings"
    print(f"counters: {compared} rows compared, {mismatches} {label}")
    return mismatches if strict else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Regression gate over BENCH_*.json benchmark results."
    )
    parser.add_argument("dirs", nargs="*", type=Path,
                        help="BASELINE_DIR CURRENT_DIR (CURRENT_DIR alone "
                             "with --validate-only)")
    parser.add_argument("--parent", nargs="+", type=Path, default=[],
                        help="paired gate: the parent's pass directories")
    parser.add_argument("--change", nargs="+", type=Path, default=[],
                        help="paired gate: the change's pass directories, "
                             "in the same order")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative median slowdown that fails the gate "
                             "(default 0.15)")
    parser.add_argument("--counter-tol", type=float, default=0.25,
                        help="relative counter drift reported (default 0.25)")
    parser.add_argument("--counters-strict", action="store_true",
                        help="counter drift beyond tolerance fails the gate")
    parser.add_argument("--validate-only", action="store_true",
                        help="schema-check CURRENT_DIR, skip comparison")
    parser.add_argument("--counters-only", action="store_true",
                        help="compare counters, skip the timing gate")
    args = parser.parse_args(argv)

    schema = json.loads(SCHEMA_PATH.read_text())

    if args.validate_only:
        if len(args.dirs) != 1:
            parser.error("--validate-only takes exactly one directory")
        docs = load_dir(args.dirs[0])
        if not docs:
            print(f"error: no BENCH_*.json in {args.dirs[0]}", file=sys.stderr)
            return 2
        return 1 if validate_docs(docs, schema) else 0

    if args.parent or args.change:
        return paired_main(parser, args, schema)

    if len(args.dirs) != 2:
        parser.error("expected BASELINE_DIR CURRENT_DIR")
    base_docs = load_dir(args.dirs[0])
    cur_docs = load_dir(args.dirs[1])
    if not base_docs:
        print(f"error: no BENCH_*.json in {args.dirs[0]}", file=sys.stderr)
        return 2
    if not cur_docs:
        print(f"error: no BENCH_*.json in {args.dirs[1]}", file=sys.stderr)
        return 2

    failures = validate_docs(base_docs, schema) + validate_docs(cur_docs, schema)
    report_presence(base_docs, cur_docs)
    base_index, cur_index = row_index(base_docs), row_index(cur_docs)

    if not args.counters_only:
        compared, regressions = compare_timing(base_index, cur_index, args.threshold)
        if compared == 0:
            print("error: no overlapping rows between baseline and current",
                  file=sys.stderr)
            return 2
        failures += regressions
        print(f"timing: {compared} rows compared, {regressions} regressions "
              f"(threshold {args.threshold * 100:.0f}%)")

    failures += compare_counters(base_index, cur_index, args.counter_tol,
                                 args.counters_strict)

    print("gate PASSED" if failures == 0 else f"gate FAILED ({failures} failures)")
    return 1 if failures else 0


def paired_main(parser, args, schema):
    if args.dirs or args.validate_only or args.counters_only:
        parser.error("--parent/--change take no positional directories")
    if len(args.parent) != len(args.change) or len(args.parent) < 2:
        parser.error("--parent and --change need the same number (>= 2) "
                     "of pass directories")
    failures = 0
    indexes = []
    for directory in args.parent + args.change:
        docs = load_dir(directory)
        if not docs:
            print(f"error: no BENCH_*.json in {directory}", file=sys.stderr)
            return 2
        failures += validate_docs(docs, schema)
        indexes.append(row_index(docs))
    pairs = len(args.parent)
    compared, regressions = compare_paired(indexes[:pairs], indexes[pairs:],
                                           args.threshold)
    if compared == 0:
        print("error: no row present in every pass", file=sys.stderr)
        return 2
    failures += regressions
    print(f"timing: {compared} rows compared over {pairs} pairs, "
          f"{regressions} regressions (threshold {args.threshold * 100:.0f}%)")
    failures += compare_counters(indexes[0], indexes[pairs], args.counter_tol,
                                 args.counters_strict)
    print("gate PASSED" if failures == 0 else f"gate FAILED ({failures} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
