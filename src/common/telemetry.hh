/**
 * @file
 * End-to-end observability layer (docs/OBSERVABILITY.md): a process-wide
 * metrics registry plus a scoped-span tracer.
 *
 * Metrics come in three kinds:
 *
 *  - Counter: a monotonically increasing 64-bit integer (events, faults,
 *    iterations). Counters accumulate into per-thread shards and are
 *    merged by integer summation at snapshot time, so totals are exact
 *    and bit-identical at any thread count (the PR-3 determinism
 *    contract extends to telemetry).
 *  - Gauge: a last-written double (current Iter level, last final cost).
 *    Gauges are not sharded; they are intended for the orchestration
 *    thread.
 *  - Histogram: samples bucketed into a fixed log-scale layout
 *    (4 buckets per decade, 1e-9 .. 1e12, plus underflow/overflow), with
 *    exact count/min/max and an exact sum: each shard accumulates its
 *    samples in a fixed-point superaccumulator, and the snapshot rounds
 *    the merged total to a double once. Bucket counts and sums merge by
 *    integer summation. NaN samples are counted separately and never
 *    poison the moments.
 *
 * The tracer records named phases (frame ingest -> Jacobian ->
 * dSchur/mSchur -> Cholesky -> update; controller decide/reconfigure;
 * simulated-hardware windows) as RAII spans plus instant events carrying
 * numeric arguments (e.g. a controller decision's chosen Iter). Traces
 * export as Chrome trace-event JSON (chrome://tracing, Perfetto) and
 * metric snapshots as JSON/CSV; tools/archytas_trace_report.py
 * summarizes and validates both.
 *
 * Cost discipline: recording is gated on a relaxed atomic flag that is
 * off by default (enable with --telemetry-out via ScopedExport /
 * bench harness, the ARCHYTAS_TELEMETRY_OUT environment variable, or
 * setEnabled). Building with -DARCHYTAS_TELEMETRY=OFF compiles every
 * instrumentation macro to a no-op so hot paths carry zero overhead.
 *
 * Thread-safety: recording through the macros is safe from any thread
 * (per-thread shards, no locks on the hot path). Snapshots and exports
 * must run quiescently -- after parallel work has joined -- which every
 * in-tree call site satisfies (the pool's runTasks blocks until all
 * tasks finish).
 *
 * Naming conventions (docs/OBSERVABILITY.md): metrics are
 * `<subsystem>.<metric>` with subsystem one of estimator, solver, hw,
 * host, runtime, health. Wall-time-valued metrics carry a `_ms` suffix
 * and are exempt from the bit-identity contract (they measure the
 * clock); every other metric must be bit-identical at any thread count.
 *
 * Causal trace propagation (fleet observability, docs/OBSERVABILITY.md
 * section 6): a deterministic TraceContext -- session id, frame id, and
 * a flow id derived from both -- is installed per scope with
 * ARCHYTAS_TRACE_SCOPE. While a context is active, every span and
 * instant recorded on the thread is tagged with it (exported on a
 * per-session track), ARCHYTAS_FLOW_BEGIN/STEP/END emit Chrome
 * trace-event flow arcs (`ph:"s"/"t"/"f"`) linking the frame's journey
 * across threads, from its numeric step through its host-link
 * transaction to the serial scheduling phase, and -- when the
 * context carries a FlightRecorder -- span begin/end markers, counter
 * deltas, and instants are mirrored into the session's postmortem ring
 * (flight_recorder.hh).
 */

#ifndef ARCHYTAS_COMMON_TELEMETRY_HH
#define ARCHYTAS_COMMON_TELEMETRY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#ifdef ARCHYTAS_DISABLE_TELEMETRY
#define ARCHYTAS_TELEMETRY_ENABLED 0
#else
#define ARCHYTAS_TELEMETRY_ENABLED 1
#endif

namespace archytas::telemetry {

/** True when recording is active (cheap relaxed-atomic read). */
bool enabled();

/** Turns recording on or off process-wide. */
void setEnabled(bool on);

// --------------------------------------------------------------------
// Metric handles
// --------------------------------------------------------------------

/** Fixed histogram layout: 4 log10 buckets per decade, 1e-9 .. 1e12. */
constexpr std::size_t kBucketsPerDecade = 4;
constexpr int kHistogramMinDecade = -9;
constexpr int kHistogramMaxDecade = 12;
constexpr std::size_t kHistogramBuckets =
    2 + kBucketsPerDecade *
            static_cast<std::size_t>(kHistogramMaxDecade -
                                     kHistogramMinDecade);

/** Monotonic event counter; exact at any thread count. */
class Counter
{
  public:
    explicit Counter(std::uint32_t id) : id_(id) {}
    /** Adds delta; dropped (free) while telemetry is disabled. */
    void add(std::uint64_t delta = 1);
    std::uint32_t id() const { return id_; }

  private:
    std::uint32_t id_;
};

/** Last-written scalar; intended for the orchestration thread. */
class Gauge
{
  public:
    explicit Gauge(std::uint32_t id) : id_(id) {}
    void set(double value);
    std::uint32_t id() const { return id_; }

  private:
    std::uint32_t id_;
};

/** Log-bucketed sample distribution; exact count/min/max/buckets. */
class Histogram
{
  public:
    explicit Histogram(std::uint32_t id) : id_(id) {}
    /** Records one sample; NaN is counted apart, never bucketed. */
    void record(double value);
    std::uint32_t id() const { return id_; }

    /** Bucket index for a value: 0 = underflow (v <= 0 or tiny), last =
     *  overflow; exact log10-scale in between. */
    static std::size_t bucketIndex(double value);
    /** Inclusive lower bound of a bucket (0 for the underflow bucket). */
    static double bucketLowerBound(std::size_t index);

  private:
    std::uint32_t id_;
};

/**
 * Registry lookups: one metric per name, created on first use. The
 * returned references stay valid for the process lifetime (reset()
 * clears values, never registrations), so call sites may cache them in
 * function-local statics -- the ARCHYTAS_COUNT_ADD family does exactly
 * that.
 */
Counter &counter(std::string_view name);
Gauge &gauge(std::string_view name);
Histogram &histogram(std::string_view name);

// --------------------------------------------------------------------
// Snapshots
// --------------------------------------------------------------------

struct CounterValue
{
    std::string name;
    std::uint64_t value = 0;
};

struct GaugeValue
{
    std::string name;
    double value = 0.0;
    bool written = false;   //!< False until the first set().
};

struct HistogramValue
{
    std::string name;
    std::uint64_t count = 0;      //!< Finite samples recorded.
    std::uint64_t nan_count = 0;  //!< NaN samples (counted apart).
    double sum = 0.0;             //!< Exact total, rounded once.
    double min = 0.0;             //!< Valid when count > 0.
    double max = 0.0;
    std::array<std::uint64_t, kHistogramBuckets> buckets{};

    double mean() const
    {
        return count ? sum / static_cast<double>(count) : 0.0;
    }
};

/** All metric values, each kind sorted by name. */
struct MetricsSnapshot
{
    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;
};

/**
 * Merges every shard (live and retired) into one snapshot. Counter,
 * bucket and histogram-sum merges are integer sums, so the result is
 * independent of the shard/merge order. Call quiescently (see file
 * comment).
 */
MetricsSnapshot snapshotMetrics();

/**
 * Percentile estimate (p in [0, 100]) from a histogram's log-scale
 * buckets: nearest-rank bucket selection, linear interpolation inside
 * the winning bucket, clamped to the recorded [min, max]. Resolution is
 * bounded by the bucket width (4 per decade), which is enough for
 * latency tail reporting (p50/p95/p99). Returns 0 on an empty
 * histogram.
 */
double approxPercentile(const HistogramValue &h, double p);

// --------------------------------------------------------------------
// Tracing
// --------------------------------------------------------------------

/** One numeric argument attached to a trace event. */
struct TraceArg
{
    const char *name = nullptr;  //!< Must be a string literal.
    double value = 0.0;
};

constexpr std::size_t kMaxTraceArgs = 6;

/** Flow-event phase (Chrome trace-event `ph:"s"/"t"/"f"`). */
enum class FlowPhase : std::uint8_t
{
    None = 0,
    Start,   //!< ph "s": the arc leaves the enclosing slice.
    Step,    //!< ph "t": an intermediate hop.
    End,     //!< ph "f" (bp "e"): the arc lands on the enclosing slice.
};

/** One recorded span, instant, or flow event. */
struct TraceEvent
{
    const char *name = nullptr;      //!< String literal.
    const char *category = nullptr;  //!< String literal (subsystem).
    bool instant = false;            //!< Instant event vs complete span.
    FlowPhase flow = FlowPhase::None;
    std::int64_t start_ns = 0;       //!< Since the process trace epoch.
    std::int64_t duration_ns = 0;    //!< 0 for instant events.
    std::uint32_t tid = 0;           //!< Stable per-thread index.
    std::uint32_t arg_count = 0;
    std::array<TraceArg, kMaxTraceArgs> args{};
    // Causal tagging (valid when has_context).
    bool has_context = false;
    std::uint32_t session = 0;
    std::uint32_t frame = 0;
    std::uint64_t flow_id = 0;
};

// --------------------------------------------------------------------
// Causal trace propagation
// --------------------------------------------------------------------

class FlightRecorder;

/**
 * The causal identity of the work currently executing on a thread:
 * which session and which frame. Deterministically derived (no global
 * counter), so the same workload produces the same ids at any thread
 * count. The optional recorder mirrors span/counter/instant activity
 * into the session's flight ring.
 */
struct TraceContext
{
    std::uint32_t session = 0;
    std::uint32_t frame = 0;
    FlightRecorder *recorder = nullptr;

    /** Flow id binding every hop of this frame's journey: unique per
     *  (session, frame), monotone in frame within a session. */
    std::uint64_t
    flowId() const
    {
        return ((static_cast<std::uint64_t>(session) + 1) << 32) |
               static_cast<std::uint64_t>(frame);
    }
};

/**
 * Installs a TraceContext on the current thread for its lifetime
 * (stack discipline: the previous context is restored on destruction).
 * Use through ARCHYTAS_TRACE_SCOPE so disabled builds compile it away.
 */
class ScopedTraceContext
{
  public:
    ScopedTraceContext(std::uint32_t session, std::uint32_t frame,
                       FlightRecorder *recorder = nullptr);
    ~ScopedTraceContext();

    ScopedTraceContext(const ScopedTraceContext &) = delete;
    ScopedTraceContext &operator=(const ScopedTraceContext &) = delete;

  private:
    TraceContext prev_;
    bool had_prev_;
};

/** The thread's active context, or nullptr outside any trace scope. */
const TraceContext *currentTraceContext();

/**
 * Records a flow event at the current time on the current thread,
 * carrying the active context's flow id. No-op without an active
 * context (there is nothing to link). Begin/end hops must use the same
 * name and category, or viewers will not join the arc.
 */
void flow(const char *category, const char *name, FlowPhase phase);

/** Mirrors a counter delta into the active context's flight recorder
 *  (no-op without one). Called by ARCHYTAS_COUNT_ADD. */
void flightNote(const char *name, double delta);

// --------------------------------------------------------------------
// Postmortem destination
// --------------------------------------------------------------------

/**
 * Directory where flight-recorder postmortem bundles are dumped when a
 * trigger fires (watchdog trip, hw fallback, admission reject). Set
 * explicitly, or implicitly by --telemetry-out / ARCHYTAS_TELEMETRY_OUT
 * activation. Empty disables automatic dumps.
 */
void setPostmortemDir(const std::string &dir);
std::string postmortemDir();

/**
 * RAII span: records one complete trace event covering its lifetime.
 * Name and category must be string literals (no copy is taken). Use
 * through ARCHYTAS_SPAN so disabled builds compile it away.
 */
class SpanGuard
{
  public:
    SpanGuard(const char *category, const char *name);
    ~SpanGuard();

    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

  private:
    const char *category_;
    const char *name_;
    std::int64_t start_ns_;
    bool active_;
};

/** Records an instant event with up to kMaxTraceArgs numeric args. */
void instant(const char *category, const char *name,
             std::initializer_list<TraceArg> args = {});

/**
 * All recorded events sorted by (start time, thread index). Call
 * quiescently.
 */
std::vector<TraceEvent> snapshotTrace();

// --------------------------------------------------------------------
// Export / lifecycle
// --------------------------------------------------------------------

/** Writes the trace as Chrome trace-event JSON. */
bool writeChromeTrace(const std::string &path);
/** Writes the metric snapshot as JSON. */
bool writeMetricsJson(const std::string &path);
/** Writes the metric snapshot as a flat CSV. */
bool writeMetricsCsv(const std::string &path);
/** Writes trace.json, metrics.json, metrics.csv under dir (created). */
bool exportAll(const std::string &dir);

/**
 * Clears every metric value and trace event (registrations survive, so
 * cached handles stay valid). Test hook; call quiescently.
 */
void reset();

/**
 * CLI adapter for example/bench binaries: strips `--telemetry-out
 * <dir>` from argv (so downstream argument parsing never sees it),
 * enables recording, and exports to the directory on destruction. When
 * the flag is absent, the ARCHYTAS_TELEMETRY_OUT environment variable
 * is honored the same way.
 */
class ScopedExport
{
  public:
    ScopedExport(int &argc, char **argv);
    ~ScopedExport();

    ScopedExport(const ScopedExport &) = delete;
    ScopedExport &operator=(const ScopedExport &) = delete;

    bool active() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;
};

} // namespace archytas::telemetry

// --------------------------------------------------------------------
// Instrumentation macros: free when disabled at run time, gone when
// disabled at build time (-DARCHYTAS_TELEMETRY=OFF).
// --------------------------------------------------------------------

#if ARCHYTAS_TELEMETRY_ENABLED

#define ARCHYTAS_TELEMETRY_CONCAT2(a, b) a##b
#define ARCHYTAS_TELEMETRY_CONCAT(a, b) ARCHYTAS_TELEMETRY_CONCAT2(a, b)

/** Scoped span: `ARCHYTAS_SPAN("estimator", "estimator.frame");`. */
#define ARCHYTAS_SPAN(category, name)                                        \
    const ::archytas::telemetry::SpanGuard ARCHYTAS_TELEMETRY_CONCAT(        \
        archytas_span_, __LINE__)                                            \
    {                                                                        \
        category, name                                                       \
    }

/** Instant event with optional `{ {"arg", value}, ... }` args. */
#define ARCHYTAS_INSTANT(category, name, ...)                                \
    do {                                                                     \
        if (::archytas::telemetry::enabled()) {                              \
            ::archytas::telemetry::instant(category, name,                   \
                                           {__VA_ARGS__});                   \
        }                                                                    \
    } while (0)

/** Counter add with a cached handle; `name` must be a string literal.
 *  Also mirrors the delta into the active trace context's flight
 *  recorder, so postmortem rings see every counter bump. */
#define ARCHYTAS_COUNT_ADD(name, delta)                                      \
    do {                                                                     \
        if (::archytas::telemetry::enabled()) {                              \
            static ::archytas::telemetry::Counter &archytas_counter_ =       \
                ::archytas::telemetry::counter(name);                        \
            archytas_counter_.add(delta);                                    \
            ::archytas::telemetry::flightNote(                               \
                name, static_cast<double>(delta));                           \
        }                                                                    \
    } while (0)

/** Gauge set with a cached handle. */
#define ARCHYTAS_GAUGE_SET(name, value)                                      \
    do {                                                                     \
        if (::archytas::telemetry::enabled()) {                              \
            static ::archytas::telemetry::Gauge &archytas_gauge_ =           \
                ::archytas::telemetry::gauge(name);                          \
            archytas_gauge_.set(value);                                      \
        }                                                                    \
    } while (0)

/** Histogram record with a cached handle. */
#define ARCHYTAS_HIST_RECORD(name, value)                                    \
    do {                                                                     \
        if (::archytas::telemetry::enabled()) {                              \
            static ::archytas::telemetry::Histogram &archytas_hist_ =        \
                ::archytas::telemetry::histogram(name);                      \
            archytas_hist_.record(value);                                    \
        }                                                                    \
    } while (0)

/** Installs a causal TraceContext for the enclosing scope:
 *  `ARCHYTAS_TRACE_SCOPE(session_id, frame_id, &recorder);`. */
#define ARCHYTAS_TRACE_SCOPE(session, frame, recorder)                       \
    const ::archytas::telemetry::ScopedTraceContext                          \
        ARCHYTAS_TELEMETRY_CONCAT(archytas_trace_scope_, __LINE__)           \
    {                                                                        \
        session, frame, recorder                                             \
    }

/** Flow arc hops; category/name must match across BEGIN/STEP/END. */
#define ARCHYTAS_FLOW_BEGIN(category, name)                                  \
    ::archytas::telemetry::flow(category, name,                              \
                                ::archytas::telemetry::FlowPhase::Start)
#define ARCHYTAS_FLOW_STEP(category, name)                                   \
    ::archytas::telemetry::flow(category, name,                              \
                                ::archytas::telemetry::FlowPhase::Step)
#define ARCHYTAS_FLOW_END(category, name)                                    \
    ::archytas::telemetry::flow(category, name,                              \
                                ::archytas::telemetry::FlowPhase::End)

#else // !ARCHYTAS_TELEMETRY_ENABLED

// The sizeof-based expansions keep operands syntactically alive without
// evaluating them (same discipline as common/contracts.hh).
#define ARCHYTAS_SPAN(category, name) static_cast<void>(0)
#define ARCHYTAS_INSTANT(category, name, ...) static_cast<void>(0)
#define ARCHYTAS_COUNT_ADD(name, delta) static_cast<void>(sizeof(delta))
#define ARCHYTAS_GAUGE_SET(name, value) static_cast<void>(sizeof(value))
#define ARCHYTAS_HIST_RECORD(name, value) static_cast<void>(sizeof(value))
#define ARCHYTAS_TRACE_SCOPE(session, frame, recorder)                       \
    static_cast<void>(sizeof(session) + sizeof(frame) + sizeof(recorder))
#define ARCHYTAS_FLOW_BEGIN(category, name) static_cast<void>(0)
#define ARCHYTAS_FLOW_STEP(category, name) static_cast<void>(0)
#define ARCHYTAS_FLOW_END(category, name) static_cast<void>(0)

#endif // ARCHYTAS_TELEMETRY_ENABLED

#endif // ARCHYTAS_COMMON_TELEMETRY_HH
