#!/usr/bin/env python3
"""Summarize and gate Archytas SLO verdicts and postmortem bundles.

The in-process SLO engine (src/service/slo.hh) evaluates declarative
objectives -- frame-latency p99 bound, fallback/divergence/rejection
rates over sliding windows -- inside the service scheduling phase and
publishes the outcome as `slo.*` telemetry:

  gauges    slo.frame_p99_ms, slo.fallback_rate, slo.divergence_rate,
            slo.rejection_rate  (worst windowed value observed)
  counters  slo.evaluations, slo.violations
  instants  slo.verdict (in trace.json; args: pass, bound, observed,
            violations -- one per enabled objective)

This tool reads the metrics.json snapshot (and optionally the
trace.json next to it for per-objective bounds), prints a verdict
table, and validates flight-recorder postmortem bundles
(`postmortem_<session>.json`, schema archytas-postmortem-v1) named via
--postmortem.

Exit codes:
  0  report printed, or (--check) every objective passed
     (slo.violations == 0) and every named postmortem bundle is well
     formed
  1  (--check) an objective was violated, or a bundle is malformed
  2  no usable data: a named input cannot be read or is not a JSON
     object (in every mode; the error is printed), or (--check) the
     snapshot carries no slo.* metrics -- distinct so callers can tell
     "failing" from "not evaluated"

Usage:
  archytas_slo_report.py <metrics.json> [--trace <trace.json>]
      [--postmortem <bundle.json> ...] [--check]
"""

import argparse
import glob
import json
import os
import sys

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NO_DATA = 2

POSTMORTEM_SCHEMA = "archytas-postmortem-v1"
#: flight_recorder.hh FlightKind names.
RECORD_KINDS = ("span_begin", "span_end", "count", "instant", "decision",
                "timeline", "fault")


def as_number(value, default=0):
    return value if isinstance(value, (int, float)) else default


class UnreadableInput(Exception):
    """A named input that cannot be opened or parsed as a JSON object."""


def load_json(path, what):
    try:
        with open(path, encoding="utf-8") as f:
            document = json.load(f)
    except (OSError, ValueError) as err:
        raise UnreadableInput("%s %s: %s" % (what, path, err)) from err
    if not isinstance(document, dict):
        raise UnreadableInput("%s %s: not a JSON object" % (what, path))
    return document


def slo_metrics(metrics):
    """Extracts (gauges, counters) restricted to the slo.* namespace."""
    gauges = {}
    for gauge in metrics.get("gauges", []):
        name = gauge.get("name", "")
        if name.startswith("slo.") and gauge.get("written"):
            gauges[name] = as_number(gauge.get("value"), 0.0)
    counters = {}
    for counter in metrics.get("counters", []):
        name = counter.get("name", "")
        if name.startswith("slo."):
            counters[name] = as_number(counter.get("value"), 0)
    return gauges, counters


def verdict_bounds(trace):
    """Per-objective (bound, pass, violations) from slo.verdict
    instants, in emission order (the engine emits one per objective)."""
    verdicts = []
    for event in trace.get("traceEvents", []):
        if not isinstance(event, dict):
            continue
        if event.get("ph") == "i" and event.get("name") == "slo.verdict":
            args = event.get("args")
            if isinstance(args, dict):
                verdicts.append(args)
    return verdicts


def validate_postmortem(path, bundle):
    """Schema checks on one postmortem bundle; returns error strings."""
    errors = []
    where = os.path.basename(path)
    if bundle.get("schema") != POSTMORTEM_SCHEMA:
        errors.append("%s: unexpected schema %r"
                      % (where, bundle.get("schema")))
    for key in ("session", "label", "trigger", "frame", "dropped",
                "records"):
        if key not in bundle:
            errors.append("%s: missing key '%s'" % (where, key))
    records = bundle.get("records")
    if not isinstance(records, list):
        errors.append("%s: 'records' missing or not a list" % where)
        return errors
    prev_seq = -1
    for i, record in enumerate(records):
        tag = "%s record %d" % (where, i)
        if not isinstance(record, dict):
            errors.append("%s: not an object" % tag)
            continue
        for key in ("seq", "kind", "frame", "name", "value"):
            if key not in record:
                errors.append("%s: missing key '%s'" % (tag, key))
        if record.get("kind") not in RECORD_KINDS:
            errors.append("%s: unknown kind %r" % (tag, record.get("kind")))
        seq = as_number(record.get("seq"), -1)
        if seq <= prev_seq:
            errors.append("%s: sequence not strictly increasing "
                          "(%s after %s)" % (tag, seq, prev_seq))
        prev_seq = seq
    return errors


def postmortem_summary(path, bundle):
    records = bundle.get("records", [])
    if not isinstance(records, list):
        records = []
    kinds = {}
    for record in records:
        if isinstance(record, dict):
            kind = record.get("kind", "?")
            kinds[kind] = kinds.get(kind, 0) + 1
    kind_list = ", ".join("%s=%d" % kv for kv in sorted(kinds.items()))
    return ["  %-28s session %-3s trigger %-16s %4d records "
            "(%s dropped) [%s]"
            % (os.path.basename(path), bundle.get("session", "?"),
               bundle.get("trigger", "?"), len(records),
               bundle.get("dropped", "?"), kind_list or "empty")]


def expand_postmortems(patterns):
    """Expands --postmortem arguments (files, dirs, globs) to paths."""
    paths = []
    for pattern in patterns:
        if os.path.isdir(pattern):
            paths += sorted(
                glob.glob(os.path.join(pattern, "postmortem_*.json")))
        else:
            matches = sorted(glob.glob(pattern))
            paths += matches if matches else [pattern]
    return paths


def main(argv):
    parser = argparse.ArgumentParser(
        description="Summarize / gate Archytas SLO verdicts")
    parser.add_argument("metrics", help="metrics.json from "
                        "--telemetry-out")
    parser.add_argument("--trace", help="trace.json from the same "
                        "export (adds per-objective bounds from the "
                        "slo.verdict instants)")
    parser.add_argument("--postmortem", action="append", default=[],
                        help="postmortem bundle, directory, or glob to "
                        "validate / summarize (repeatable)")
    parser.add_argument("--check", action="store_true",
                        help="gate: exit 1 on violations or malformed "
                        "bundles, 2 when no SLO data exists")
    args = parser.parse_args(argv)

    try:
        metrics = load_json(args.metrics, "metrics")
        trace = load_json(args.trace, "trace") if args.trace else None
        bundles = [(path, load_json(path, "postmortem"))
                   for path in expand_postmortems(args.postmortem)]
    except UnreadableInput as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_NO_DATA

    gauges, counters = slo_metrics(metrics)
    verdicts = verdict_bounds(trace) if trace is not None else []
    errors = []
    for path, bundle in bundles:
        errors += validate_postmortem(path, bundle)

    violations = counters.get("slo.violations", 0)
    evaluations = counters.get("slo.evaluations", 0)
    have_data = bool(gauges) or bool(counters)

    # ---- report ----
    if have_data:
        print("SLO summary: %d window evaluations, %d violations -> %s"
              % (evaluations, violations,
                 "PASS" if violations == 0 else "FAIL"))
        for name in sorted(gauges):
            print("  %-24s worst %g" % (name, gauges[name]))
        if verdicts:
            print("verdicts (bound vs worst observed):")
            for verdict in verdicts:
                print("  bound %-12g observed %-12g violations %-6d %s"
                      % (as_number(verdict.get("bound"), 0.0),
                         as_number(verdict.get("observed"), 0.0),
                         int(as_number(verdict.get("violations"), 0)),
                         "PASS" if as_number(verdict.get("pass"), 0)
                         else "FAIL"))
    else:
        print("no slo.* metrics in %s (SLO engine not enabled?)"
              % args.metrics)

    if bundles:
        print("postmortem bundles (%d):" % len(bundles))
        for path, bundle in bundles:
            for line in postmortem_summary(path, bundle):
                print(line)

    for error in errors:
        print("%s: %s" % ("CHECK FAIL" if args.check else "warning", error),
              file=sys.stderr)

    if not args.check:
        return EXIT_OK
    if errors:
        return EXIT_FAIL
    if not have_data:
        return EXIT_NO_DATA
    return EXIT_OK if violations == 0 else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
