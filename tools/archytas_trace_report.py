#!/usr/bin/env python3
"""Summarize and validate an Archytas telemetry export.

Input is the Chrome trace-event JSON written by --telemetry-out (see
docs/OBSERVABILITY.md), plus optionally the metrics.json snapshot from
the same directory. The report shows where the time went (top spans by
total duration, per-phase p50/p95/p99), what the run-time controller
decided (decision table from the runtime.decide / runtime.hold instant
events), and how many causal flow arcs (`ph:"s"/"t"/"f"`) link frames
across the async boundary.

`--check` turns the tool into a validator for CI: it verifies the trace
schema event by event, that every category named via
--require-categories contributed at least one event, that every flow
arc is matched start-to-finish when --require-flows is given, and --
when --metrics is given -- that the metrics snapshot parses and carries
at least one counter, gauge, and histogram.

Exit codes:
  0  report printed, or (--check) valid export
  1  (--check) schema violation (malformed events, missing categories,
     ...)
  2  nothing usable: a named input cannot be read or is not a JSON
     object (in every mode; the error is printed), or (--check) a
     degenerate export: no events at all, or no complete span carries a
     positive duration (instant-only / zero-duration sets) -- reported
     distinctly so callers can tell "broken" from "empty"

Usage:
  archytas_trace_report.py <trace.json> [--metrics <metrics.json>]
      [--top N] [--check] [--require-categories cat1,cat2,...]
      [--require-flows]
"""

import argparse
import json
import sys
from collections import defaultdict

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_DEGENERATE = 2
EXIT_UNREADABLE = 2

#: Phases the exporter emits: complete spans, instants, flow
#: start/step/finish, and metadata (process names).
KNOWN_PHASES = ("X", "i", "s", "t", "f", "M")


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list (p in [0, 100])."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(p / 100.0 * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def as_number(value, default=0):
    """Coerces a JSON value to a number; null / junk become default."""
    return value if isinstance(value, (int, float)) else default


def event_args(event):
    """The event's args dict; non-dict args degrade to empty."""
    args = event.get("args")
    return args if isinstance(args, dict) else {}


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


def validate_events(events, require_categories):
    """Schema checks on the traceEvents list; returns error strings."""
    errors = []
    seen_categories = set()
    for i, event in enumerate(events):
        where = "event %d" % i
        if not isinstance(event, dict):
            errors.append("%s: not an object" % where)
            continue
        ph = event.get("ph")
        if ph not in KNOWN_PHASES:
            errors.append("%s: unexpected phase %r" % (where, ph))
            continue
        if ph == "M":
            # Metadata (process_name etc.): no cat / ts by design.
            for key in ("name", "pid"):
                if key not in event:
                    errors.append("%s: metadata missing key '%s'"
                                  % (where, key))
            continue
        for key in ("name", "cat", "ph", "ts", "pid", "tid"):
            if key not in event:
                errors.append("%s: missing key '%s'" % (where, key))
        if ph == "X":
            if not isinstance(event.get("dur"), (int, float)):
                errors.append("%s: complete event without numeric dur"
                              % where)
            elif event["dur"] < 0:
                errors.append("%s: negative duration" % where)
        if ph in ("s", "t", "f") and not event.get("id"):
            errors.append("%s: flow event without an id" % where)
        if not isinstance(event.get("ts"), (int, float)):
            errors.append("%s: non-numeric timestamp" % where)
        args = event.get("args", {})
        if not isinstance(args, dict):
            errors.append("%s: args is not an object" % where)
            args = {}
        for arg_name, arg_value in args.items():
            if not isinstance(arg_value, (int, float, type(None))):
                errors.append("%s: arg %r is not numeric"
                              % (where, arg_name))
        if "cat" in event:
            seen_categories.add(event["cat"])
    for category in require_categories:
        if category not in seen_categories:
            errors.append("required category '%s' contributed no events "
                          "(saw: %s)"
                          % (category,
                             ", ".join(sorted(seen_categories)) or "none"))
    return errors


def flow_arcs(events):
    """Maps flow id -> set of phases seen ('s'/'t'/'f')."""
    arcs = defaultdict(set)
    for event in events:
        if isinstance(event, dict) and event.get("ph") in ("s", "t", "f"):
            arcs[event.get("id")].add(event["ph"])
    return arcs


def validate_flows(events):
    """Every flow arc must have both its start and its finish."""
    arcs = flow_arcs(events)
    errors = []
    if not arcs:
        errors.append("--require-flows: no flow events recorded")
        return errors
    unstarted = sorted(i for i, phs in arcs.items() if "s" not in phs)
    unfinished = sorted(i for i, phs in arcs.items() if "f" not in phs)
    for flow_id in unstarted[:10]:
        errors.append("flow %s has no start event" % flow_id)
    for flow_id in unfinished[:10]:
        errors.append("flow %s has no finish event" % flow_id)
    if len(unstarted) > 10 or len(unfinished) > 10:
        errors.append("... %d unmatched flows in total"
                      % len(set(unstarted) | set(unfinished)))
    return errors


def degenerate_reason(events):
    """Why the export is empty-ish, or None when it has real spans."""
    if not events:
        return "no events recorded"
    spans = [e for e in events
             if isinstance(e, dict) and e.get("ph") == "X"]
    if not spans:
        return ("no complete spans recorded (%d events, all "
                "instant/flow/metadata)" % len(events))
    if all(as_number(e.get("dur"), 0) <= 0 for e in spans):
        return ("all %d complete spans have zero duration (clock "
                "resolution or a stubbed exporter?)" % len(spans))
    return None


def validate_metrics(metrics):
    errors = []
    if metrics.get("schema") != "archytas-metrics-v1":
        errors.append("metrics: unexpected schema %r"
                      % metrics.get("schema"))
    for kind in ("counters", "gauges", "histograms"):
        entries = metrics.get(kind)
        if not isinstance(entries, list):
            errors.append("metrics: '%s' missing or not a list" % kind)
            continue
        if not entries:
            errors.append("metrics: no %s recorded" % kind)
        for entry in entries:
            if "name" not in entry:
                errors.append("metrics: unnamed entry in %s" % kind)
    return errors


def span_table(events, top):
    """Aggregates complete events by name; returns report lines."""
    durations = defaultdict(list)
    for event in events:
        if event.get("ph") == "X":
            durations[event["name"]].append(
                as_number(event.get("dur"), 0) / 1000.0)
    if not durations:
        return ["top spans by total time: none recorded "
                "(instant-only or empty trace)"]
    rows = []
    for name, values in durations.items():
        values.sort()
        total = sum(values)
        rows.append((total, name, len(values), values))
    rows.sort(reverse=True)

    lines = ["top spans by total time:",
             "  %-28s %8s %10s %10s %10s %10s"
             % ("span", "count", "total ms", "p50 ms", "p95 ms",
                "p99 ms")]
    for total, name, count, values in rows[:top]:
        lines.append("  %-28s %8d %10.3f %10.4f %10.4f %10.4f"
                     % (name, count, total, percentile(values, 50),
                        percentile(values, 95), percentile(values, 99)))
    return lines


def flow_table(events):
    """One-line flow-arc summary (matched/unmatched counts)."""
    arcs = flow_arcs(events)
    if not arcs:
        return ["flow arcs: none recorded"]
    matched = sum(1 for phs in arcs.values()
                  if "s" in phs and "f" in phs)
    return ["flow arcs: %d total, %d matched start-to-finish, "
            "%d unmatched" % (len(arcs), matched, len(arcs) - matched)]


def decision_table(events, top):
    """Controller decisions from runtime.decide/runtime.hold instants."""
    decisions = [e for e in events
                 if e.get("ph") == "i" and
                 e.get("name") in ("runtime.decide", "runtime.hold")]
    if not decisions:
        return ["controller decisions: none recorded"]
    reconfigs = [e for e in decisions
                 if e["name"] == "runtime.hold" or
                 event_args(e).get("reconfigured")]
    lines = ["controller decisions: %d windows, %d shown "
             "(reconfigurations and degraded holds):"
             % (len(decisions), min(len(reconfigs), top)),
             "  %-12s %10s %10s %6s  %s"
             % ("t (ms)", "features", "proposal", "Iter", "kind")]
    for event in reconfigs[:top]:
        args = event_args(event)
        if event["name"] == "runtime.hold":
            kind, features, proposal = "degraded hold", "-", "-"
        else:
            kind = "reconfigure"
            features = "%d" % as_number(args.get("features"), 0)
            proposal = "%d" % as_number(args.get("proposal"), 0)
        lines.append("  %-12.3f %10s %10s %6d  %s"
                     % (as_number(event.get("ts"), 0) / 1000.0, features,
                        proposal, int(as_number(args.get("iter"), 0)),
                        kind))
    return lines


def metrics_summary(metrics):
    lines = ["metrics snapshot: %d counters, %d gauges, %d histograms"
             % (len(metrics.get("counters", [])),
                len(metrics.get("gauges", [])),
                len(metrics.get("histograms", [])))]
    for counter in metrics.get("counters", []):
        lines.append("  counter   %-34s %d"
                     % (counter.get("name", "?"),
                        as_number(counter.get("value"), 0)))
    for gauge in metrics.get("gauges", []):
        if gauge.get("written"):
            lines.append("  gauge     %-34s %g"
                         % (gauge.get("name", "?"),
                            as_number(gauge.get("value"), 0.0)))
    for hist in metrics.get("histograms", []):
        count = as_number(hist.get("count"), 0)
        mean = as_number(hist.get("sum"), 0.0) / count if count else 0.0
        lines.append("  histogram %-34s n=%d mean=%g min=%g max=%g nan=%d"
                     % (hist.get("name", "?"), count, mean,
                        as_number(hist.get("min"), 0.0),
                        as_number(hist.get("max"), 0.0),
                        as_number(hist.get("nan"), 0)))
    return lines


def main(argv):
    parser = argparse.ArgumentParser(
        description="Summarize / validate an Archytas telemetry export")
    parser.add_argument("trace", help="Chrome trace-event JSON "
                        "(trace.json from --telemetry-out)")
    parser.add_argument("--metrics", help="metrics.json from the same "
                        "export directory")
    parser.add_argument("--top", type=int, default=15,
                        help="rows per table (default 15)")
    parser.add_argument("--check", action="store_true",
                        help="validate instead of merely reporting; "
                        "exit 1 on a schema violation, 2 on an "
                        "empty/degenerate export")
    parser.add_argument("--require-categories", default="",
                        help="comma-separated categories that must have "
                        "contributed events (with --check)")
    parser.add_argument("--require-flows", action="store_true",
                        help="with --check: fail unless at least one "
                        "flow arc exists and every arc is matched "
                        "start-to-finish")
    args = parser.parse_args(argv)

    try:
        trace = load_json(args.trace, "trace")
        metrics = (load_json(args.metrics, "metrics") if args.metrics
                   else None)
    except UnreadableInput as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_UNREADABLE

    errors = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        errors.append("trace: 'traceEvents' missing or not a list")
        events = []

    required = [c for c in args.require_categories.split(",") if c]
    errors += validate_events(events, required)
    if args.require_flows:
        errors += validate_flows(events)
    if metrics is not None:
        errors += validate_metrics(metrics)

    degenerate = degenerate_reason(events)

    if args.check:
        for error in errors:
            print("CHECK FAIL: %s" % error, file=sys.stderr)
        if errors:
            return EXIT_INVALID
        if degenerate is not None:
            # Distinct from a schema violation: the export is well
            # formed but carries nothing worth gating on.
            print("CHECK DEGENERATE: %s" % degenerate, file=sys.stderr)
            return EXIT_DEGENERATE
        print("telemetry export OK: %d events%s"
              % (len(events),
                 "" if metrics is None else
                 ", %d counters / %d gauges / %d histograms"
                 % (len(metrics.get("counters", [])),
                    len(metrics.get("gauges", [])),
                    len(metrics.get("histograms", [])))))
        return EXIT_OK

    if degenerate is not None:
        print("note: %s" % degenerate)
    for line in span_table(events, args.top):
        print(line)
    print()
    for line in flow_table(events):
        print(line)
    print()
    for line in decision_table(events, args.top):
        print(line)
    if metrics is not None:
        print()
        for line in metrics_summary(metrics):
            print(line)
    if errors:
        print()
        for error in errors:
            print("warning: %s" % error, file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
