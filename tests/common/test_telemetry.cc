/**
 * @file
 * Telemetry layer tests (docs/OBSERVABILITY.md): registry semantics,
 * bucket layout, concurrent recording through the thread pool (the TSan
 * job runs these), span nesting/ordering, and export round-trips of the
 * Chrome-trace / metrics files.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>

#include "common/flight_recorder.hh"
#include "common/parallel.hh"
#include "common/telemetry.hh"

namespace archytas::telemetry {
namespace {

/** Enables recording for one test; leaves the registry clean after. */
class TelemetryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        reset();
        setEnabled(true);
    }

    void
    TearDown() override
    {
        setEnabled(false);
        reset();
        parallel::setThreadCount(0);
    }
};

const CounterValue *
findCounter(const MetricsSnapshot &snap, const std::string &name)
{
    for (const auto &c : snap.counters)
        if (c.name == name)
            return &c;
    return nullptr;
}

const HistogramValue *
findHistogram(const MetricsSnapshot &snap, const std::string &name)
{
    for (const auto &h : snap.histograms)
        if (h.name == name)
            return &h;
    return nullptr;
}

TEST_F(TelemetryTest, CounterAccumulatesAndResets)
{
    Counter &c = counter("test.counter");
    c.add();
    c.add(41);
    const auto snap = snapshotMetrics();
    const auto *v = findCounter(snap, "test.counter");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->value, 42u);

    // reset() clears values but keeps the registration and handle.
    reset();
    c.add(7);
    const auto snap2 = snapshotMetrics();
    const auto *after = findCounter(snap2, "test.counter");
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(after->value, 7u);
}

TEST_F(TelemetryTest, LookupReturnsSameHandlePerName)
{
    EXPECT_EQ(&counter("test.same"), &counter("test.same"));
    EXPECT_EQ(&gauge("test.same_gauge"), &gauge("test.same_gauge"));
    EXPECT_EQ(&histogram("test.same_hist"), &histogram("test.same_hist"));
}

TEST_F(TelemetryTest, DisabledRecordingIsDropped)
{
    setEnabled(false);
    counter("test.disabled").add(5);
    gauge("test.disabled_gauge").set(1.0);
    histogram("test.disabled_hist").record(1.0);
    ARCHYTAS_SPAN("test", "test.disabled_span");
    setEnabled(true);

    const auto snap = snapshotMetrics();
    const auto *c = findCounter(snap, "test.disabled");
    ASSERT_NE(c, nullptr);   // Registered, but nothing recorded.
    EXPECT_EQ(c->value, 0u);
    for (const auto &g : snap.gauges) {
        if (g.name == "test.disabled_gauge") {
            EXPECT_FALSE(g.written);
        }
    }
    EXPECT_TRUE(snapshotTrace().empty());
}

TEST_F(TelemetryTest, GaugeKeepsLastWrite)
{
    gauge("test.gauge").set(1.0);
    gauge("test.gauge").set(-3.5);
    const auto snap = snapshotMetrics();
    bool found = false;
    for (const auto &g : snap.gauges) {
        if (g.name != "test.gauge")
            continue;
        found = true;
        EXPECT_TRUE(g.written);
        EXPECT_EQ(g.value, -3.5);
    }
    EXPECT_TRUE(found);
}

TEST_F(TelemetryTest, HistogramBucketLayout)
{
    // Non-positive and sub-range values land in the underflow bucket.
    EXPECT_EQ(Histogram::bucketIndex(0.0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(-1.0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(1e-10), 0u);
    // The bottom and top of the regular range.
    EXPECT_EQ(Histogram::bucketIndex(1e-9), 1u);
    EXPECT_EQ(Histogram::bucketIndex(9.99e12), kHistogramBuckets - 1);
    EXPECT_EQ(Histogram::bucketIndex(1e15), kHistogramBuckets - 1);
    // Every regular bucket's lower bound maps back into that bucket.
    for (std::size_t b = 1; b + 1 < kHistogramBuckets; ++b) {
        const double lo = Histogram::bucketLowerBound(b);
        const std::size_t mapped = Histogram::bucketIndex(lo * 1.0001);
        EXPECT_EQ(mapped, b) << "bucket " << b << " lower bound " << lo;
    }
    EXPECT_EQ(Histogram::bucketLowerBound(0), 0.0);
}

TEST_F(TelemetryTest, HistogramCountsNanApart)
{
    Histogram &h = histogram("test.hist");
    h.record(1.0);
    h.record(std::numeric_limits<double>::quiet_NaN());
    h.record(100.0);
    const auto snap = snapshotMetrics();
    const auto *v = findHistogram(snap, "test.hist");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->count, 2u);
    EXPECT_EQ(v->nan_count, 1u);
    EXPECT_EQ(v->min, 1.0);
    EXPECT_EQ(v->max, 100.0);
    EXPECT_EQ(v->sum, 101.0);
    EXPECT_DOUBLE_EQ(v->mean(), 50.5);
}

TEST_F(TelemetryTest, SingleSamplePercentilesClampToTheSample)
{
    Histogram &h = histogram("test.single_sample");
    h.record(42.0);
    const auto snap = snapshotMetrics();
    const auto *v = findHistogram(snap, "test.single_sample");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->count, 1u);
    EXPECT_EQ(v->min, 42.0);
    EXPECT_EQ(v->max, 42.0);
    EXPECT_DOUBLE_EQ(v->mean(), 42.0);
    // Every percentile of a single sample is that sample: the estimate
    // clamps to [min, max], which pin it exactly.
    EXPECT_EQ(approxPercentile(*v, 0), 42.0);
    EXPECT_EQ(approxPercentile(*v, 50), 42.0);
    EXPECT_EQ(approxPercentile(*v, 99), 42.0);
    EXPECT_EQ(approxPercentile(*v, 100), 42.0);
}

TEST_F(TelemetryTest, NanCountedApartAcrossShardMerges)
{
    // NaN samples recorded from different pool workers land in
    // different shards; the merge must tally them apart without
    // poisoning min/max/sum of the finite samples.
    parallel::setThreadCount(8);
    constexpr std::size_t kItems = 4096;
    // Direct handle calls rather than the macro, so the merge contract
    // is tested even in ARCHYTAS_TELEMETRY=OFF builds.
    Histogram &h = histogram("test.nan_shards");
    parallel::parallelFor(0, kItems, [&h](std::size_t i) {
        const double v =
            (i % 4 == 0) ? std::numeric_limits<double>::quiet_NaN()
                         : static_cast<double>(i % 7 + 1);
        h.record(v);
    });
    const auto snap = snapshotMetrics();
    const auto *v = findHistogram(snap, "test.nan_shards");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->nan_count, kItems / 4);
    EXPECT_EQ(v->count, kItems - kItems / 4);
    EXPECT_TRUE(std::isfinite(v->sum));
    EXPECT_GE(v->min, 1.0);
    EXPECT_LE(v->max, 7.0);
}

TEST_F(TelemetryTest, ShardMergeIsOrderIndependent)
{
    // The same multiset of samples recorded under different pool sizes
    // (different shard assignments, different merge order) must
    // snapshot identically: counts exactly, and sum bit-identically --
    // the samples are small integers, so every partial sum is exact in
    // a double regardless of association order.
    const auto run = [](std::size_t threads) {
        reset();
        parallel::setThreadCount(threads);
        Histogram &h = histogram("test.merge_order");
        Counter &c = counter("test.merge_order_count");
        parallel::parallelFor(0, 3000, [&](std::size_t i) {
            h.record(static_cast<double>(i % 11));
            c.add(2);
        });
        return snapshotMetrics();
    };
    const auto wide = run(8);
    const auto narrow = run(2);
    const auto *hw = findHistogram(wide, "test.merge_order");
    const auto *hn = findHistogram(narrow, "test.merge_order");
    ASSERT_NE(hw, nullptr);
    ASSERT_NE(hn, nullptr);
    EXPECT_EQ(hw->count, hn->count);
    EXPECT_EQ(hw->nan_count, hn->nan_count);
    EXPECT_EQ(hw->min, hn->min);
    EXPECT_EQ(hw->max, hn->max);
    EXPECT_EQ(hw->sum, hn->sum);
    EXPECT_EQ(hw->buckets, hn->buckets);
    const auto *cw = findCounter(wide, "test.merge_order_count");
    const auto *cn = findCounter(narrow, "test.merge_order_count");
    ASSERT_NE(cw, nullptr);
    ASSERT_NE(cn, nullptr);
    EXPECT_EQ(cw->value, cn->value);
}

TEST_F(TelemetryTest, HistogramSumIsExactAcrossShards)
{
    // 1e16 + 1 is not a double (its ulp is 2), so a running double sum
    // per shard loses the 1 and the merged sum reads 0. The exact
    // accumulator keeps it whichever shard each task lands in.
    for (const std::size_t threads : {1, 2}) {
        reset();
        parallel::setThreadCount(threads);
        Histogram &h = histogram("test.exact_sum");
        parallel::runTasks(2, [&h](std::size_t task) {
            if (task == 0) {
                h.record(1e16);
                h.record(1.0);
            } else {
                h.record(-1e16);
            }
        });
        const auto snap = snapshotMetrics();
        const auto *v = findHistogram(snap, "test.exact_sum");
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(v->count, 3u) << threads << " threads";
        EXPECT_EQ(v->sum, 1.0) << threads << " threads";
    }
}

TEST_F(TelemetryTest, HistogramSumRoundsOnceAndKeepsNonFiniteResults)
{
    const auto sumOf = [](const std::string &name,
                          std::initializer_list<double> samples) {
        Histogram &h = histogram(name);
        for (const double v : samples)
            h.record(v);
        const auto snap = snapshotMetrics();
        return findHistogram(snap, name)->sum;
    };
    // Round to nearest, ties to even, from the exact total.
    EXPECT_EQ(sumOf("test.sum.tie", {1.0, 0x1p-53}), 1.0);
    EXPECT_EQ(sumOf("test.sum.sticky", {1.0, 0x1p-53, 0x1p-80}),
              1.0 + 0x1p-52);
    EXPECT_EQ(sumOf("test.sum.odd_tie", {1.0 + 0x1p-52, 0x1p-53}),
              1.0 + 0x1p-51);
    EXPECT_EQ(sumOf("test.sum.neg", {-3.5, 1.25, -0x1p-1074}),
              -2.25);
    const double tiny = std::numeric_limits<double>::denorm_min();
    EXPECT_EQ(sumOf("test.sum.subnormal", {tiny, tiny, 3 * tiny}),
              5 * tiny);
    const double big = std::numeric_limits<double>::max();
    EXPECT_EQ(sumOf("test.sum.cancel_big", {big, big, -big}), big);
    EXPECT_EQ(sumOf("test.sum.overflow", {big, big}),
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(sumOf("test.sum.zero", {-0.0, 2.5, -2.5}), 0.0);
    // Non-finite samples give what a running double sum gives.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(sumOf("test.sum.pinf", {1.0, inf}), inf);
    EXPECT_EQ(sumOf("test.sum.ninf", {-inf, 1.0}), -inf);
    EXPECT_TRUE(std::isnan(sumOf("test.sum.both_inf", {inf, -inf})));
}

TEST_F(TelemetryTest, ConcurrentCountingUnderThreadPoolIsExact)
{
    parallel::setThreadCount(8);
    constexpr std::size_t kItems = 20000;
    // Per-thread shards: every add must land, none double-counted, and
    // the snapshot (taken after the pool joined) must see them all.
    parallel::parallelFor(0, kItems, [](std::size_t i) {
        ARCHYTAS_COUNT_ADD("test.concurrent", 1);
        ARCHYTAS_HIST_RECORD("test.concurrent_hist",
                             static_cast<double>(i % 7) + 0.5);
    });
    const auto snap = snapshotMetrics();
    const auto *c = findCounter(snap, "test.concurrent");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value, kItems);
    const auto *h = findHistogram(snap, "test.concurrent_hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, kItems);
    EXPECT_EQ(h->min, 0.5);
    EXPECT_EQ(h->max, 6.5);
}

TEST_F(TelemetryTest, ShardsSurviveThreadPoolResize)
{
    parallel::setThreadCount(4);
    parallel::parallelFor(0, 1000, [](std::size_t) {
        ARCHYTAS_COUNT_ADD("test.resize", 1);
    });
    // Shrinking the pool joins its workers; their shards must fold into
    // the retired totals, not vanish.
    parallel::setThreadCount(1);
    parallel::parallelFor(0, 500, [](std::size_t) {
        ARCHYTAS_COUNT_ADD("test.resize", 1);
    });
    const auto snap = snapshotMetrics();
    const auto *c = findCounter(snap, "test.resize");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value, 1500u);
}

TEST_F(TelemetryTest, SpansNestAndSortByStartTime)
{
    {
        ARCHYTAS_SPAN("test", "outer");
        {
            ARCHYTAS_SPAN("test", "inner");
        }
        ARCHYTAS_INSTANT("test", "marker", {"value", 3.0});
    }
    const auto events = snapshotTrace();
    ASSERT_EQ(events.size(), 3u);
    // Sorted by start time: outer opened first, then inner, then the
    // instant after inner closed.
    EXPECT_STREQ(events[0].name, "outer");
    EXPECT_STREQ(events[1].name, "inner");
    EXPECT_STREQ(events[2].name, "marker");
    EXPECT_FALSE(events[0].instant);
    EXPECT_TRUE(events[2].instant);
    // The inner span lies fully within the outer one.
    EXPECT_GE(events[1].start_ns, events[0].start_ns);
    EXPECT_LE(events[1].start_ns + events[1].duration_ns,
              events[0].start_ns + events[0].duration_ns);
    // The instant carries its argument.
    ASSERT_EQ(events[2].arg_count, 1u);
    EXPECT_STREQ(events[2].args[0].name, "value");
    EXPECT_EQ(events[2].args[0].value, 3.0);
}

// The trace-context suite depends on the instrumentation macros, which
// ARCHYTAS_TELEMETRY=OFF compiles to no-ops.
#if ARCHYTAS_TELEMETRY_ENABLED

TEST_F(TelemetryTest, TraceContextTagsSpansInstantsAndRestores)
{
    {
        ARCHYTAS_TRACE_SCOPE(3u, 7u, nullptr);
        ASSERT_NE(currentTraceContext(), nullptr);
        EXPECT_EQ(currentTraceContext()->session, 3u);
        EXPECT_EQ(currentTraceContext()->frame, 7u);
        {
            // Nested scope shadows, then restores, the outer context.
            ARCHYTAS_TRACE_SCOPE(9u, 1u, nullptr);
            EXPECT_EQ(currentTraceContext()->session, 9u);
        }
        EXPECT_EQ(currentTraceContext()->session, 3u);
        {
            ARCHYTAS_SPAN("test", "test.ctx_span");
        }
        ARCHYTAS_INSTANT("test", "test.ctx_marker", {"value", 1.0});
    }
    EXPECT_EQ(currentTraceContext(), nullptr);

    const auto events = snapshotTrace();
    ASSERT_EQ(events.size(), 2u);
    const std::uint64_t want_flow = (std::uint64_t{3 + 1} << 32) | 7u;
    for (const TraceEvent &e : events) {
        EXPECT_TRUE(e.has_context) << e.name;
        EXPECT_EQ(e.session, 3u);
        EXPECT_EQ(e.frame, 7u);
        EXPECT_EQ(e.flow_id, want_flow);
    }
}

TEST_F(TelemetryTest, FlowEventsCarryPhasesAndSharedId)
{
    // Outside any scope, flow hops have nothing to link: no event.
    ARCHYTAS_FLOW_BEGIN("test", "test.flow");
    EXPECT_TRUE(snapshotTrace().empty());

    {
        ARCHYTAS_TRACE_SCOPE(1u, 2u, nullptr);
        ARCHYTAS_FLOW_BEGIN("test", "test.flow");
        ARCHYTAS_FLOW_STEP("test", "test.flow");
        ARCHYTAS_FLOW_END("test", "test.flow");
    }
    const auto events = snapshotTrace();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].flow, FlowPhase::Start);
    EXPECT_EQ(events[1].flow, FlowPhase::Step);
    EXPECT_EQ(events[2].flow, FlowPhase::End);
    const std::uint64_t want_flow = (std::uint64_t{1 + 1} << 32) | 2u;
    for (const TraceEvent &e : events) {
        EXPECT_TRUE(e.has_context);
        EXPECT_EQ(e.flow_id, want_flow);
        EXPECT_STREQ(e.name, "test.flow");
    }
}

TEST_F(TelemetryTest, FlightRecorderMirrorsScopedActivity)
{
    FlightRecorder rec(16);
    {
        ARCHYTAS_TRACE_SCOPE(0u, 5u, &rec);
        {
            ARCHYTAS_SPAN("test", "test.mirror_span");
            ARCHYTAS_COUNT_ADD("test.mirror_count", 3);
        }
        ARCHYTAS_INSTANT("test", "test.mirror_marker", {"value", 2.5});
    }
    // Counter deltas recorded outside any scope go nowhere.
    ARCHYTAS_COUNT_ADD("test.mirror_count", 100);

    ASSERT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.entry(0).kind, FlightKind::SpanBegin);
    EXPECT_STREQ(rec.entry(0).name, "test.mirror_span");
    EXPECT_EQ(rec.entry(1).kind, FlightKind::Count);
    EXPECT_STREQ(rec.entry(1).name, "test.mirror_count");
    EXPECT_EQ(rec.entry(1).value, 3.0);
    EXPECT_EQ(rec.entry(2).kind, FlightKind::SpanEnd);
    EXPECT_EQ(rec.entry(3).kind, FlightKind::Instant);
    EXPECT_EQ(rec.entry(3).value, 2.5);
    for (std::size_t i = 0; i < rec.size(); ++i)
        EXPECT_EQ(rec.entry(i).frame, 5u);
}

#endif // ARCHYTAS_TELEMETRY_ENABLED

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST_F(TelemetryTest, ExportRoundTrip)
{
    {
        ARCHYTAS_SPAN("test", "test.export_span");
    }
    ARCHYTAS_INSTANT("test", "test.export_marker", {"iter", 4.0});
    counter("test.export_counter").add(11);
    gauge("test.export_gauge").set(2.25);
    histogram("test.export_hist").record(0.5);

    const std::string dir =
        ::testing::TempDir() + "archytas_telemetry_export";
    ASSERT_TRUE(exportAll(dir));

    const std::string trace = slurp(dir + "/trace.json");
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"test.export_span\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(trace.find("\"iter\": 4"), std::string::npos);

    const std::string metrics = slurp(dir + "/metrics.json");
    EXPECT_NE(metrics.find("\"archytas-metrics-v1\""), std::string::npos);
    EXPECT_NE(metrics.find("\"test.export_counter\", \"value\": 11"),
              std::string::npos);
    EXPECT_NE(metrics.find("\"test.export_gauge\""), std::string::npos);
    EXPECT_NE(metrics.find("\"test.export_hist\""), std::string::npos);

    const std::string csv = slurp(dir + "/metrics.csv");
    EXPECT_NE(csv.find("kind,name,count,value,min,max,mean"),
              std::string::npos);
    EXPECT_NE(csv.find("counter,test.export_counter,11"),
              std::string::npos);
    EXPECT_NE(csv.find("gauge,test.export_gauge,1,2.25"),
              std::string::npos);
}

TEST_F(TelemetryTest, SnapshotIsSortedByName)
{
    counter("test.z").add(1);
    counter("test.a").add(1);
    counter("test.m").add(1);
    const auto snap = snapshotMetrics();
    for (std::size_t i = 1; i < snap.counters.size(); ++i)
        EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
}

TEST_F(TelemetryTest, ApproxPercentileFromLogBuckets)
{
    // Empty histogram: defined zero.
    EXPECT_EQ(approxPercentile(HistogramValue{}, 50), 0.0);

    // A single repeated value: every percentile clamps to it exactly.
    Histogram &point = histogram("test.pct_point");
    for (int i = 0; i < 10; ++i)
        point.record(3.5);
    const auto one = snapshotMetrics();
    for (const HistogramValue &h : one.histograms)
        if (h.name == "test.pct_point") {
            EXPECT_EQ(approxPercentile(h, 0), 3.5);
            EXPECT_EQ(approxPercentile(h, 50), 3.5);
            EXPECT_EQ(approxPercentile(h, 100), 3.5);
        }

    // A spread: estimates are monotone in p, land within the recorded
    // range, and hit the right decade (bucket resolution is 4/decade).
    Histogram &spread = histogram("test.pct_spread");
    for (int v = 1; v <= 100; ++v)
        spread.record(static_cast<double>(v));
    const auto snap = snapshotMetrics();
    for (const HistogramValue &h : snap.histograms) {
        if (h.name != "test.pct_spread")
            continue;
        const double p50 = approxPercentile(h, 50);
        const double p95 = approxPercentile(h, 95);
        const double p99 = approxPercentile(h, 99);
        EXPECT_LE(p50, p95);
        EXPECT_LE(p95, p99);
        EXPECT_GE(p50, h.min);
        EXPECT_LE(p99, h.max);
        // Log-bucket resolution: one bucket spans a factor of
        // 10^(1/4) ~ 1.78, so the estimate is within a bucket width.
        EXPECT_GT(p50, 50.0 / 1.79);
        EXPECT_LT(p50, 50.0 * 1.79);
        EXPECT_GT(p99, 99.0 / 1.79);
    }
}

TEST_F(TelemetryTest, ScopedExportStripsFlagFromArgv)
{
    const std::string dir =
        ::testing::TempDir() + "archytas_scoped_export";
    std::string a0 = "prog", a1 = "--telemetry-out", a2 = dir,
                a3 = "--other";
    char *argv[] = {a0.data(), a1.data(), a2.data(), a3.data(), nullptr};
    int argc = 4;
    {
        ScopedExport exporter(argc, argv);
        EXPECT_TRUE(exporter.active());
        EXPECT_EQ(exporter.dir(), dir);
        // Downstream parsing must only see the remaining arguments.
        ASSERT_EQ(argc, 2);
        EXPECT_STREQ(argv[0], "prog");
        EXPECT_STREQ(argv[1], "--other");
        ARCHYTAS_COUNT_ADD("test.scoped", 1);
    }
    // Destruction exported the files.
    std::ifstream trace(dir + "/trace.json");
    EXPECT_TRUE(trace.good());
    std::ifstream metrics(dir + "/metrics.json");
    EXPECT_TRUE(metrics.good());
}

} // namespace
} // namespace archytas::telemetry
