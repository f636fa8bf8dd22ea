"""Metrics, output checks and provenance rules of the Archytas benchmark.

The benchmark binary (perfbench.cc) prints raw measurements; everything
here is pure computation on them, so the self-tests (test_analysis.py)
can exercise it without building anything. perfbench/README.md defines each
metric, its unit, its clock and its better direction.
"""

import math
import re
import statistics

# Metrics the benchmark contract reports, in BENCHMARK.json order. Every
# workload reports every one of them; README.md ("Contract metrics") says
# why the other end-to-end metrics are printed but not listed here.
END_TO_END = [
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("frames_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("sim_energy_mj_per_window", "mJ", "lower", 0.1),
]
PER_LAYER = [
    # name, unit, better
    ("dataset.sequence_ms", "ms", "lower"),
    ("slam.process_frame_ms.p50", "ms", "lower"),
    ("slam.process_frame_ms.p90", "ms", "lower"),
    ("slam.nonsolve_ms.p50", "ms", "lower"),
    ("slam.build_ms.p50", "ms", "lower"),
    ("slam.evaluate_cost_ms.p50", "ms", "lower"),
    ("slam.form_reduced_ms.p50", "ms", "lower"),
    ("linalg.cholesky_ms.p50", "ms", "lower"),
    ("slam.lm_iterations_per_window", "count", "lower"),
    ("slam.features_per_window", "count", "higher"),
    ("hw.window_ms.p50", "ms", "lower"),
    ("hw.cycles.jacobian", "cycles", "lower"),
    ("hw.cycles.dschur", "cycles", "lower"),
    ("hw.cycles.mschur", "cycles", "lower"),
    ("hw.cycles.cholesky", "cycles", "lower"),
    ("hw.cycles.bsub", "cycles", "lower"),
    ("host.cpu_util", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]

WORKLOADS = ("fleet", "solo", "design")

# fleet: the rung whose latencies are the headline, and the latency
# limit of the capacity rule (one camera period).
REFERENCE_RUNG = 8.0
FRAME_LIMIT_MS = 100.0

# Output checks: mean position RMSE must stay under these (m). They are
# a few times the values measured when the benchmark was added, so they
# catch a broken estimator, not a small accuracy change.
RMSE_BOUND_M = {"fleet": 1.0, "solo": 0.5, "design": 1.0}

# Manifest fields that may differ between runs that are pooled into one
# median, and additionally between the two sides of an A/B comparison.
POOL_MAY_DIFFER = frozenset({"seed", "timestamp"})
COMPARE_MAY_DIFFER = POOL_MAY_DIFFER | {"git_sha", "source_digest"}

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class ManifestMismatch(Exception):
    """Raised when results with different provenance would be mixed."""


def valid_metric_name(name):
    """True for names made of [A-Za-z0-9_.-], starting with a letter or
    digit, at most 64 characters."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


# ---------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------

def percentile(xs, p):
    """Linear-interpolation percentile, the rule of common/stats.cc, so
    values match the service's own latencyPercentileMs bit for bit."""
    xs = sorted(x for x in xs if not math.isnan(x))
    if not xs:
        return 0.0
    if p <= 0.0:
        return xs[0]
    if p >= 100.0:
        return xs[-1]
    rank = p / 100.0 * float(len(xs) - 1)
    lo = int(rank)
    frac = rank - float(lo)
    if lo + 1 >= len(xs):
        return xs[-1]
    return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac


def samples_beyond(n, p):
    """Samples ranked strictly above the p-th percentile of n samples."""
    if n == 0:
        return 0
    return n - 1 - int(p / 100.0 * float(n - 1))


def tail_percentile(xs, candidates=(99.9, 99.0, 95.0, 90.0, 50.0),
                    min_beyond=10):
    """The highest candidate percentile with at least min_beyond samples
    beyond it, as (percentile, value, sample count); (None, None, n) when
    even the lowest candidate is unsupported."""
    n = len(xs)
    for p in sorted(candidates, reverse=True):
        if samples_beyond(n, p) >= min_beyond:
            return p, percentile(xs, p), n
    return None, None, n


def median(xs):
    return percentile(xs, 50.0)


def mean(xs):
    return math.fsum(xs) / len(xs) if xs else 0.0


# ---------------------------------------------------------------------
# Capacity ladder
# ---------------------------------------------------------------------

def rung_passes(rung, limit_ms=FRAME_LIMIT_MS):
    """A rung passes when its p99 frame latency is within the limit, no
    session was rejected, and the admission backlog does not grow."""
    return (rung["p99_ms"] <= limit_ms and rung["rejected"] == 0
            and rung["backlog_growth_ms"] <= limit_ms)


def capacity(rungs, limit_ms=FRAME_LIMIT_MS):
    """Offered sessions per slot of the highest passing rung; 0 when no
    rung passes."""
    passing = [r["sessions_per_slot"] for r in rungs
               if rung_passes(r, limit_ms)]
    return max(passing, default=0.0)


def backlog_growth_ms(arrival_s, admit_s):
    """Mean admission wait of the later-arriving half of the sessions
    minus that of the earlier half (ms): positive when the backlog
    grows over the run."""
    waits = [w for _, w in sorted(
        (a, (m - a) * 1e3) for a, m in zip(arrival_s, admit_s))]
    half = len(waits) // 2
    if half == 0:
        return 0.0
    return mean(waits[len(waits) - half:]) - mean(waits[:half])


# ---------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------

def manifest_differences(a, b, may_differ):
    """Manifest keys whose values differ, ignoring those in may_differ."""
    keys = (set(a) | set(b)) - set(may_differ)
    return sorted(k for k in keys if a.get(k) != b.get(k))


def check_poolable(records):
    """Refuses (ManifestMismatch) to pool records whose manifests differ
    in anything but the seed and the time they were taken."""
    for r in records[1:]:
        diff = manifest_differences(records[0]["manifest"], r["manifest"],
                                    POOL_MAY_DIFFER)
        if diff:
            raise ManifestMismatch(
                "cannot pool results whose manifests differ in: "
                + ", ".join(diff))


def check_comparable(base, cand):
    """Refuses (ManifestMismatch) to compare two pools unless each is
    poolable, their manifests differ only in code identity, and both ran
    the same seeds."""
    check_poolable(base)
    check_poolable(cand)
    diff = manifest_differences(base[0]["manifest"], cand[0]["manifest"],
                                COMPARE_MAY_DIFFER)
    if diff:
        raise ManifestMismatch(
            "cannot compare results whose manifests differ in: "
            + ", ".join(diff))
    seeds = sorted(r["manifest"]["seed"] for r in base)
    if seeds != sorted(r["manifest"]["seed"] for r in cand):
        raise ManifestMismatch("cannot compare pools of different seeds")


def spread(values):
    """(median, q1, q3) with statistics.quantiles(n=4) quartiles."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


# ---------------------------------------------------------------------
# Per-workload metrics and checks
# ---------------------------------------------------------------------

class Result:
    """Metrics, checks and operation counts of one workload run."""

    def __init__(self):
        self.metrics = {}   # name -> (value, unit, clock)
        self.notes = {}     # name -> free-text provenance of the value
        self.checks = []    # (name, ok, detail)
        self.attempted = 0
        self.failed = 0

    def metric(self, name, value, unit, clock, note=""):
        self.metrics[name] = (float(value), unit, clock)
        if note:
            self.notes[name] = note

    def tail(self, name, samples, p, unit, clock):
        """Reports the p-th percentile under name and checks that at
        least ten samples lie beyond it."""
        best, _, n = tail_percentile(samples)
        self.metric(name, percentile(samples, p), unit, clock,
                    "n=%d, highest supported percentile p%s" % (n, best))
        self.check("%s has >=10 samples beyond it" % name,
                   best is not None and best >= p,
                   "n=%d supports p%s" % (n, best))

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self):
        return all(ok for _, ok, _ in self.checks)


def _window_metrics(res, windows):
    res.metric("sim_energy_mj_per_window", mean(windows["energy_mj"]),
               "mJ", "sim")
    res.metric("hw.window_ms.p50", median(windows["window_ms"]), "ms", "sim")
    for block in ("jacobian", "dschur", "mschur", "cholesky", "bsub"):
        res.metric("hw.cycles." + block,
                   mean(windows["cycles_" + block]), "cycles", "sim")
    res.metric("slam.lm_iterations_per_window",
               mean(windows["lm_iterations"]), "count", "count")
    res.metric("slam.features_per_window", mean(windows["features"]),
               "count", "count")


def _layer_metrics(res, layers):
    """Host times of one or more traced stacks (LayerTracer output)."""
    def pooled(key):
        return [x for layer in layers for x in layer[key]]
    frame = pooled("process_frame_ms")
    res.metric("slam.process_frame_ms.p50", median(frame), "ms", "host")
    res.metric("slam.process_frame_ms.p90", percentile(frame, 90), "ms",
               "host")
    res.metric("slam.nonsolve_ms.p50", median(pooled("nonsolve_ms")), "ms",
               "host")
    res.metric("slam.build_ms.p50", median(pooled("build_ms")), "ms", "host")
    res.metric("slam.evaluate_cost_ms.p50",
               median(pooled("evaluate_cost_ms")), "ms", "host")
    res.metric("slam.form_reduced_ms.p50",
               median(pooled("form_reduced_ms")), "ms", "host")
    res.metric("linalg.cholesky_ms.p50", median(pooled("cholesky_ms")),
               "ms", "host")
    return median(pooled("solve_ms"))


def _common(res, raw, expected_threads):
    res.metric("peak_rss_mb", raw["peak_rss_kib"] / 1024.0, "MB", "host")
    res.metric("host.cpu_util",
               raw["cpu_s"] / (raw["wall_s"] * raw["threads"]), "ratio",
               "host")
    res.check("ARCHYTAS_THREADS pinned", raw["threads"] == expected_threads,
              "pool has %s threads, expected %s"
              % (raw["threads"], expected_threads))
    res.check("telemetry off in measured runs", not raw["telemetry_enabled"])


def _check_rmse(res, workload, rmse):
    res.check("rmse_m under bound", rmse < RMSE_BOUND_M[workload],
              "%.6g m vs bound %g m" % (rmse, RMSE_BOUND_M[workload]))


def causality_violations(traces):
    """Frames that break causality or per-session FIFO order: request >=
    available, complete >= request + link + compute, and each session's
    frames complete in frame order."""
    bad = []
    last = {}
    for i in range(len(traces["frame"])):
        s = traces["session"][i]
        f = traces["frame"][i]
        avail = traces["available_s"][i]
        req = traces["request_s"][i]
        done = traces["complete_s"][i]
        if req < avail:
            bad.append((s, f, "request before availability"))
        if done < req + traces["link_s"][i] + traces["compute_s"][i]:
            bad.append((s, f, "completes before link + compute"))
        if s in last:
            prev_f, prev_done = last[s]
            if f <= prev_f or done < prev_done or req < prev_done:
                bad.append((s, f, "out of FIFO order"))
        last[s] = (f, done)
    return bad


def fleet_result(raw, expected_threads):
    res = Result()
    _common(res, raw, expected_threads)
    ladder = raw["ladder"]
    executions = raw["executions"]

    res.metric("setup_s", median([e["setup_s"] for e in executions]), "s",
               "host", "median over %d service set-ups" % len(executions))
    res.metric("frames_per_s",
               sum(e["optimized_frames"] for e in executions)
               / sum(e["run_s"] for e in executions), "1/s", "host",
               "optimized frames / LocalizationService::run host time, "
               "%d runs" % len(executions))
    res.metric("service.run_s", median([e["run_s"] for e in executions]),
               "s", "host")
    res.check("repeated rungs reproduce their timeline",
              all(e["same_timeline"] for e in executions))

    rungs = []
    for rung in ladder:
        t = rung["traces"]
        s = rung["sessions"]
        lat = [(c - a) * 1e3 for a, c in zip(t["available_s"],
                                            t["complete_s"])]
        per_slot = rung["sessions_per_slot"]
        rungs.append({
            "sessions_per_slot": per_slot,
            "p99_ms": percentile(lat, 99),
            "rejected": int(sum(s["rejected"])),
            "backlog_growth_ms": backlog_growth_ms(s["arrival_s"],
                                                   s["admit_s"]),
        })
        res.metric("service.rung.%g.p99_ms" % per_slot, percentile(lat, 99),
                   "ms", "sim")
        bad = causality_violations(t)
        res.check("rung %g: timeline causal and FIFO" % per_slot, not bad,
                  "; ".join("session %g frame %g: %s" % b for b in bad[:3]))
        res.check("rung %g: percentiles match the service's" % per_slot,
                  percentile(lat, 50) == rung["service_p50_ms"]
                  and percentile(lat, 99) == rung["service_p99_ms"])
        res.check("rung %g: every session's states finite" % per_slot,
                  all(s["finite"]))
        res.check("rung %g: trajectories independent of the timeline"
                  % per_slot,
                  s["rmse_m"] == ladder[0]["sessions"]["rmse_m"])

    ref = next(r for r in ladder
               if r["sessions_per_slot"] == REFERENCE_RUNG)
    t = ref["traces"]
    s = ref["sessions"]
    lat = [(c - a) * 1e3 for a, c in zip(t["available_s"], t["complete_s"])]
    res.tail("sim_frame_latency_p50_ms", lat, 50, "ms", "sim")
    res.tail("sim_frame_latency_p99_ms", lat, 99, "ms", "sim")
    res.metric("sim_capacity_sessions_per_slot", capacity(rungs),
               "sessions/slot", "sim",
               "rungs %s; limit p99 <= %g ms"
               % ([r["sessions_per_slot"] for r in rungs], FRAME_LIMIT_MS))
    rmse = mean(s["rmse_m"])
    res.metric("rmse_m", rmse, "m", "sim", "mean over %d sessions"
               % len(s["rmse_m"]))
    _check_rmse(res, "fleet", rmse)

    frames = sum(s["frames"])
    rejected_frames = sum(f for f, r in zip(s["frames"], s["rejected"]) if r)
    res.metric("failed_frac",
               (sum(s["degraded_frames"]) + sum(s["fallback_windows"])
                + rejected_frames) / frames, "ratio", "sim")

    # Reference-rung service layer (sim clock).
    hw = [i for i, h in enumerate(t["hw_solved"]) if h]
    waits = [t["slot_wait_s"][i] * 1e3 for i in hw]
    res.tail("service.slot_wait_ms.p50", waits, 50, "ms", "sim")
    res.tail("service.slot_wait_ms.p99", waits, 99, "ms", "sim")
    res.metric("service.slot_wait_frac",
               sum(1 for w in waits if w > 0) / len(waits), "ratio", "sim")
    admission = [(m - a) * 1e3 for a, m in zip(s["arrival_s"], s["admit_s"])]
    res.metric("service.admission_wait_ms.p99", percentile(admission, 99),
               "ms", "sim", "n=%d sessions" % len(admission))
    busy = math.fsum(t["link_s"][i] + t["compute_s"][i] for i in hw)
    res.metric("service.slot_util", busy / (ref["makespan_s"] * ref["slots"]),
               "ratio", "sim")
    res.metric("service.link_ms.p50", median([x * 1e3 for x in t["link_s"]]),
               "ms", "sim")
    windows = sum(s["windows"])
    res.metric("hw.retry_frac", sum(s["retried_windows"]) / windows,
               "ratio", "sim")
    res.metric("hw.fallback_frac", sum(s["fallback_windows"]) / windows,
               "ratio", "sim")
    _window_metrics(res, raw["windows"])

    for rung in ladder:
        rs = rung["sessions"]
        res.attempted += int(sum(rs["frames"]))
        res.failed += int(sum(f for f, r, ok in zip(
            rs["frames"], rs["rejected"], rs["finite"]) if r or not ok))

    if "traced_sessions" in raw:
        traced = raw["traced_sessions"]
        seq_ms = raw["sequence_ms"]
        res.metric("dataset.sequence_ms", median(seq_ms), "ms", "host",
                   "median over %d sequences" % len(seq_ms))
        res.metric("service.step_frame_ms.p50",
                   median([x for ts in traced for x in ts["step_frame_ms"]]),
                   "ms", "host", "fleet sessions stepped one per pool task")
        solve = _layer_metrics(res, [ts["layers"] for ts in traced])
        res.metric("hw.solve_window_ms.p50", solve, "ms", "host")
        untraced = sum(ts["untraced_s"] for ts in traced)
        traced_s = sum(ts["layers"]["traced_s"] for ts in traced)
        res.metric("trace.overhead_pct", 100.0 * (traced_s - untraced)
                   / untraced, "%", "host")
        for ts in traced:
            i = int(ts["session"])
            res.check("traced session %d reproduces the fleet's rmse_m" % i,
                      ts["traced_rmse_m"] == ts["untraced_rmse_m"]
                      == ladder[0]["sessions"]["rmse_m"][i],
                      "%r / %r / %r" % (ts["traced_rmse_m"],
                                        ts["untraced_rmse_m"],
                                        ladder[0]["sessions"]["rmse_m"][i]))
            res.check("traced session %d states finite" % i,
                      ts["traced_finite"])
    return res


def solo_result(raw, expected_threads):
    res = Result()
    _common(res, raw, expected_threads)
    passes = raw["passes"]
    res.metric("setup_s", median([p["setup_s"] for p in passes]), "s",
               "host", "median over %d session set-ups" % len(passes))
    res.metric("frames_per_s",
               sum(p["optimized_frames"] for p in passes)
               / sum(p["step_s"] for p in passes), "1/s", "host",
               "optimized frames / RobotSession::stepFrame host time, "
               "%d passes" % len(passes))
    step_ms = [x for p in passes for x in p["step_frame_ms"]]
    res.tail("frame_host_ms_p50", step_ms, 50, "ms", "host")
    res.tail("frame_host_ms_p90", step_ms, 90, "ms", "host")
    res.metric("service.step_frame_ms.p50", median(step_ms), "ms", "host")
    res.tail("sim_frame_latency_p50_ms", raw["sim_latency_ms"], 50, "ms",
             "sim")
    res.metric("service.link_ms.p50", median(raw["sim_link_ms"]), "ms", "sim")
    rmse = passes[0]["rmse_m"]
    res.metric("rmse_m", rmse, "m", "sim")
    _check_rmse(res, "solo", rmse)
    res.check("every pass reproduces rmse_m, also through the service",
              all(p["rmse_m"] == rmse for p in passes)
              and raw["service_rmse_m"] == rmse,
              "passes %r, service %r" % ([p["rmse_m"] for p in passes],
                                         raw["service_rmse_m"]))
    res.check("every session's states finite",
              all(p["finite"] for p in passes))
    frames = passes[0]["frames"]
    res.metric("failed_frac",
               (passes[0]["degraded_frames"] + passes[0]["fallback_windows"])
               / frames, "ratio", "sim")
    _window_metrics(res, raw["windows"])
    res.attempted = int(sum(p["frames"] for p in passes))
    res.failed = int(sum(p["frames"] for p in passes if not p["finite"]))

    if "layers" in raw:
        res.metric("dataset.sequence_ms", median(raw["sequence_ms"]), "ms",
                   "host")
        solve = _layer_metrics(res, [raw["layers"]])
        res.metric("hw.solve_window_ms.p50", solve, "ms", "host")
        untraced = median([p["step_s"] for p in passes])
        res.metric("trace.overhead_pct",
                   100.0 * (raw["layers"]["traced_s"] - untraced) / untraced,
                   "%", "host")
        res.check("traced stack reproduces rmse_m",
                  raw["traced_rmse_m"] == rmse,
                  "%r vs %r" % (raw["traced_rmse_m"], rmse))
        res.check("traced stack states finite", raw["traced_finite"])
    return res


def _same_design_outcome(a, b):
    keys = ("design", "energy_saving", "rmse_m", "dynamic_mj", "static_mj",
            "iter_mean", "reconfigurations")
    return all(a[k] == b[k] for k in keys)


def design_result(raw, expected_threads):
    res = Result()
    _common(res, raw, expected_threads)
    flows = raw["flows"]
    first = flows[0]
    res.check("min-power design is feasible at the bound",
              first["design"]["feasible"])
    if not first["design"]["feasible"]:
        return res
    res.metric("setup_s", median(raw["setup_s"]), "s", "host",
               "median over %d set-ups" % len(raw["setup_s"]))
    res.metric("design_flow_s", median([f["flow_s"] for f in flows]), "s",
               "host", "median over %d flows" % len(flows))
    res.metric("frames_per_s",
               sum(f["frames"] for f in flows)
               / sum(f["flow_s"] for f in flows), "1/s", "host",
               "estimator frames through the design flow / its host time")
    res.metric("sim_energy_mj_per_window",
               first["dynamic_mj"] / len(first["windows"]["window_ms"]),
               "mJ", "sim", "dynamic run on the held-out trace")
    res.metric("sim_energy_saving_pct", 100.0 * first["energy_saving"], "%",
               "sim")
    res.metric("design_power_w", first["design"]["power_w"], "W", "model")
    res.tail("sim_frame_latency_p50_ms", first["windows"]["window_ms"], 50,
             "ms", "sim")
    res.metric("rmse_m", first["rmse_m"], "m", "sim",
               "dynamic run on the held-out trace")
    _check_rmse(res, "design", first["rmse_m"])
    res.metric("failed_frac",
               first["degraded_frames"] / first["held_out_frames"], "ratio",
               "sim")
    res.check("min-power design equals the exhaustive search",
              first["design"] == first["exhaustive"],
              "%r vs %r" % (first["design"], first["exhaustive"]))
    res.check("energy accountant matches the per-window sum",
              first["dynamic_mj"] == first["dynamic_mj_check"])
    res.check("every flow reproduces the first",
              all(_same_design_outcome(first, f) for f in flows))
    res.check("held-out states finite", all(f["finite"] for f in flows))
    _window_metrics(res, first["windows"])
    res.metric("runtime.iter_mean", first["iter_mean"], "count", "count")
    res.metric("runtime.reconfigurations", first["reconfigurations"],
               "count", "count")
    res.metric("synth.evaluations", first["evaluations"], "count", "count")
    res.attempted = int(sum(f["frames"] for f in flows))
    res.failed = int(sum(f["held_out_frames"] for f in flows
                         if not f["finite"]))

    if "traced_flow" in raw:
        tf = raw["traced_flow"]
        steps = tf["steps"]
        res.metric("dataset.sequence_ms", median(raw["sequence_ms"]), "ms",
                   "host")
        res.metric("runtime.profile_s", steps["profile_s"], "s", "host")
        res.metric("runtime.prepare_ms", steps["prepare_s"] * 1e3, "ms",
                   "host")
        res.metric("synth.min_power_ms", steps["min_power_s"] * 1e3, "ms",
                   "host")
        res.metric("synth.pareto_ms", steps["pareto_s"] * 1e3, "ms", "host")
        res.metric("mdfg.window_graph_ms", steps["window_graph_s"] * 1e3,
                   "ms", "host")
        _layer_metrics(res, [tf["layers"]])
        untraced = median([f["flow_s"] for f in flows])
        traced_s = tf["flow_s"] - tf["layers"]["replay_s"]
        res.metric("trace.overhead_pct",
                   100.0 * (traced_s - untraced) / untraced, "%", "host")
        res.check("traced flow reproduces the untraced one",
                  _same_design_outcome(first, tf))
    return res


RESULT_OF = {"fleet": fleet_result, "solo": solo_result,
             "design": design_result}


def contract_metrics(res, trace):
    """The metrics of the final result line: every end-to-end metric, or
    with trace every per-layer one."""
    listed = PER_LAYER if trace else END_TO_END
    out = {}
    for entry in listed:
        name, unit = entry[0], entry[1]
        if name in res.metrics:
            out[name] = {"value": res.metrics[name][0], "unit": unit}
    return out
