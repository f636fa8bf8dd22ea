/**
 * @file
 * The session-granularity determinism contract (docs/SERVICE.md): a
 * robot session hosted in the multi-robot service -- its frames stepped
 * from pool workers, interleaved with seven other sessions -- must
 * produce a trajectory bit-identical to the same session run alone,
 * serially, at ARCHYTAS_THREADS=1. That holds at every pool size
 * because sessions own all their mutable state (estimator, solver
 * scratch, fault plan, RNG stream) and nested parallel regions run
 * inline on the stepping worker.
 */

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/flight_recorder.hh"
#include "common/parallel.hh"
#include "common/telemetry.hh"
#include "service/service.hh"

namespace archytas::service {
namespace {

/** Restores the ARCHYTAS_THREADS default when a test exits. */
struct PoolSizeGuard
{
    ~PoolSizeGuard() { parallel::setThreadCount(0); }
};

std::uint64_t
bits(double v)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Bit-level pose comparison: no tolerance, signbit-sensitive. */
void
expectBitIdentical(const std::vector<slam::FrameResult> &a,
                   const std::vector<slam::FrameResult> &b,
                   std::size_t session)
{
    ASSERT_EQ(a.size(), b.size()) << "session " << session;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const slam::Pose &pa = a[i].estimated;
        const slam::Pose &pb = b[i].estimated;
        EXPECT_EQ(bits(pa.p.x), bits(pb.p.x))
            << "session " << session << " frame " << i;
        EXPECT_EQ(bits(pa.p.y), bits(pb.p.y))
            << "session " << session << " frame " << i;
        EXPECT_EQ(bits(pa.p.z), bits(pb.p.z))
            << "session " << session << " frame " << i;
        EXPECT_EQ(bits(pa.q.w), bits(pb.q.w))
            << "session " << session << " frame " << i;
        EXPECT_EQ(bits(pa.q.x), bits(pb.q.x))
            << "session " << session << " frame " << i;
        EXPECT_EQ(bits(pa.q.y), bits(pb.q.y))
            << "session " << session << " frame " << i;
        EXPECT_EQ(bits(pa.q.z), bits(pb.q.z))
            << "session " << session << " frame " << i;
        EXPECT_EQ(bits(a[i].position_error), bits(b[i].position_error))
            << "session " << session << " frame " << i;
    }
}

/**
 * Eight short mixed sessions: alternating KITTI-like / EuRoC-like
 * traces, staggered arrivals, and two sessions with link faults so the
 * contract is proven on the retry/fallback paths too.
 */
std::vector<SessionConfig>
sessionMix()
{
    std::vector<SessionConfig> mix;
    for (std::size_t i = 0; i < 8; ++i) {
        SessionConfig cfg;
        cfg.euroc_like = (i % 2) == 1;
        cfg.sequence.duration = 1.2;
        cfg.sequence.landmarks = 300;
        cfg.sequence.max_features_per_frame = 40;
        cfg.sequence.density_modulation = 0.3;
        cfg.sequence.seed = 100 + i;
        cfg.estimator.window_size = 8;
        cfg.arrival_s = 0.15 * static_cast<double>(i);
        if (i == 2)
            cfg.faults = FaultPlan(
                41, {FaultEvent{2, FaultKind::DmaTimeout, 2, 0.0},
                     FaultEvent{5, FaultKind::DmaStall, 1, 6.0}});
        if (i == 5)
            cfg.faults = FaultPlan(
                42, {FaultEvent{3, FaultKind::DmaTimeout, 10, 0.0}});
        mix.push_back(cfg);
    }
    return mix;
}

constexpr std::uint64_t kServiceSeed = 2021;

/** The reference: each session alone, stepped serially, single thread. */
std::vector<std::vector<slam::FrameResult>>
serialReference(const std::vector<SessionConfig> &mix)
{
    parallel::setThreadCount(1);
    std::vector<std::vector<slam::FrameResult>> out;
    for (std::size_t id = 0; id < mix.size(); ++id) {
        RobotSession session(id, mix[id], kServiceSeed);
        while (!session.finished())
            (void)session.stepFrame();
        out.push_back(session.results());
    }
    return out;
}

TEST(ServiceDeterminism, InterleavedSessionsMatchSerialAtEveryPoolSize)
{
    PoolSizeGuard guard;
    const std::vector<SessionConfig> mix = sessionMix();
    const auto reference = serialReference(mix);

    for (std::size_t threads = 1; threads <= 8; ++threads) {
        parallel::setThreadCount(threads);
        ServiceOptions options;
        options.accelerator_slots = 2;
        options.max_active_sessions = 4;   // forces admission queueing
        options.seed = kServiceSeed;
        LocalizationService svc(options);
        for (const SessionConfig &cfg : mix)
            svc.addSession(cfg);
        const ServiceReport report = svc.run();
        ASSERT_EQ(report.sessions.size(), mix.size());
        for (std::size_t id = 0; id < mix.size(); ++id) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            expectBitIdentical(reference[id],
                               svc.session(id).results(), id);
        }
    }
}

TEST(ServiceDeterminism, TimelineIsIdenticalAcrossPoolSizes)
{
    PoolSizeGuard guard;
    const std::vector<SessionConfig> mix = sessionMix();

    const auto runAt = [&](std::size_t threads) {
        parallel::setThreadCount(threads);
        ServiceOptions options;
        options.seed = kServiceSeed;
        LocalizationService svc(options);
        for (const SessionConfig &cfg : mix)
            svc.addSession(cfg);
        return svc.run();
    };
    const ServiceReport one = runAt(1);
    const ServiceReport eight = runAt(8);

    // The simulated timeline -- admission, slot grants, latencies -- is
    // scheduled serially from values fixed by the numeric phase, so the
    // pool size cannot move a single trace entry.
    ASSERT_EQ(one.traces.size(), eight.traces.size());
    for (std::size_t i = 0; i < one.traces.size(); ++i) {
        EXPECT_EQ(one.traces[i].session, eight.traces[i].session);
        EXPECT_EQ(bits(one.traces[i].request_s),
                  bits(eight.traces[i].request_s));
        EXPECT_EQ(bits(one.traces[i].complete_s),
                  bits(eight.traces[i].complete_s));
        EXPECT_EQ(bits(one.traces[i].admission_wait_s),
                  bits(eight.traces[i].admission_wait_s));
        EXPECT_EQ(one.traces[i].hw_solved, eight.traces[i].hw_solved);
    }
    EXPECT_EQ(bits(one.makespan_s), bits(eight.makespan_s));
    for (std::size_t id = 0; id < one.sessions.size(); ++id) {
        EXPECT_EQ(bits(one.sessions[id].admit_s),
                  bits(eight.sessions[id].admit_s));
        EXPECT_EQ(bits(one.sessions[id].completion_s),
                  bits(eight.sessions[id].completion_s));
        EXPECT_EQ(bits(one.sessions[id].rmse_m),
                  bits(eight.sessions[id].rmse_m));
    }
}

TEST(ServiceDeterminism, SloVerdictsAndFlightRingsMatchAcrossPoolSizes)
{
#if !ARCHYTAS_TELEMETRY_ENABLED
    GTEST_SKIP() << "flight mirroring compiled out "
                    "(ARCHYTAS_TELEMETRY=OFF)";
#endif
    // The observability extension of the contract (docs/OBSERVABILITY.md):
    // SLO verdicts are computed from simulated-timeline numbers in the
    // serial scheduling phase, and flight records carry no wall-clock
    // values, so both must reproduce bit-identically at any pool size.
    PoolSizeGuard guard;
    const std::vector<SessionConfig> mix = sessionMix();

    telemetry::reset();
    telemetry::setEnabled(true);

    const auto runAt = [&](std::size_t threads) {
        parallel::setThreadCount(threads);
        ServiceOptions options;
        options.accelerator_slots = 2;
        options.max_active_sessions = 4;
        options.seed = kServiceSeed;
        SloSpec::tryParse(
            "p99_ms=60000,fallback=0.9,divergence=0.5,reject=0.5,"
            "window=16",
            options.slo);
        auto svc = std::make_unique<LocalizationService>(options);
        for (const SessionConfig &cfg : mix)
            svc->addSession(cfg);
        ServiceReport report = svc->run();
        return std::make_pair(std::move(svc), std::move(report));
    };
    auto [one_svc, one] = runAt(1);
    auto [eight_svc, eight] = runAt(8);

    // SLO verdicts: field-by-field, bounds and worsts bitwise.
    ASSERT_FALSE(one.slo.empty());
    ASSERT_EQ(one.slo.size(), eight.slo.size());
    for (std::size_t i = 0; i < one.slo.size(); ++i) {
        EXPECT_EQ(one.slo[i].objective, eight.slo[i].objective);
        EXPECT_EQ(bits(one.slo[i].bound), bits(eight.slo[i].bound));
        EXPECT_EQ(bits(one.slo[i].worst), bits(eight.slo[i].worst))
            << one.slo[i].objective;
        EXPECT_EQ(one.slo[i].evaluations, eight.slo[i].evaluations);
        EXPECT_EQ(one.slo[i].violations, eight.slo[i].violations);
    }

    // Flight rings: every retained record identical in order, kind,
    // name, frame, and value, for every session.
    for (std::size_t id = 0; id < mix.size(); ++id) {
        const telemetry::FlightRecorder &a = one_svc->session(id).flight();
        const telemetry::FlightRecorder &b =
            eight_svc->session(id).flight();
        ASSERT_EQ(a.size(), b.size()) << "session " << id;
        EXPECT_EQ(a.dropped(), b.dropped()) << "session " << id;
        EXPECT_EQ(a.sequence(), b.sequence()) << "session " << id;
        EXPECT_GT(a.sequence(), 0u) << "session " << id;
        for (std::size_t i = 0; i < a.size(); ++i) {
            SCOPED_TRACE("session " + std::to_string(id) + " record " +
                         std::to_string(i));
            EXPECT_EQ(a.entry(i).seq, b.entry(i).seq);
            EXPECT_EQ(a.entry(i).kind, b.entry(i).kind);
            EXPECT_STREQ(a.entry(i).name, b.entry(i).name);
            EXPECT_EQ(a.entry(i).frame, b.entry(i).frame);
            EXPECT_EQ(bits(a.entry(i).value), bits(b.entry(i).value));
        }
    }

    telemetry::setEnabled(false);
    telemetry::reset();
}

/** Host wall-clock metrics (`_ms`) measure the clock, not the run. */
bool
isWallClockMetric(const std::string &name)
{
    return name.size() >= 3 && name.compare(name.size() - 3, 3, "_ms") == 0;
}

TEST(ServiceDeterminism, MetricsMatchAcrossPoolSizes)
{
    // The telemetry half of the contract (common/telemetry.hh): every
    // metric but the host `_ms` ones is bit-identical at any pool size.
    // Counters and histogram buckets merge as integers, and histogram
    // sums are exact, so which worker stepped which session cannot move
    // them -- not even session.position_error's sum.
    PoolSizeGuard guard;
    const std::vector<SessionConfig> mix = sessionMix();

    const auto runAt = [&](std::size_t threads) {
        telemetry::reset();
        telemetry::setEnabled(true);
        parallel::setThreadCount(threads);
        ServiceOptions options;
        options.accelerator_slots = 2;
        options.max_active_sessions = 4;
        options.seed = kServiceSeed;
        LocalizationService svc(options);
        for (const SessionConfig &cfg : mix)
            svc.addSession(cfg);
        (void)svc.run();
        telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
        telemetry::setEnabled(false);
        telemetry::reset();
        return snap;
    };
    const telemetry::MetricsSnapshot one = runAt(1);
    const telemetry::MetricsSnapshot eight = runAt(8);

    ASSERT_EQ(one.counters.size(), eight.counters.size());
    for (std::size_t i = 0; i < one.counters.size(); ++i) {
        ASSERT_EQ(one.counters[i].name, eight.counters[i].name);
        if (isWallClockMetric(one.counters[i].name))
            continue;
        EXPECT_EQ(one.counters[i].value, eight.counters[i].value)
            << one.counters[i].name;
    }
    // A gauge keeps its last write, so a value that every session's own
    // solve sets is recorded as a histogram instead: no gauge is exempt.
    ASSERT_EQ(one.gauges.size(), eight.gauges.size());
    for (std::size_t i = 0; i < one.gauges.size(); ++i) {
        const std::string &name = one.gauges[i].name;
        ASSERT_EQ(name, eight.gauges[i].name);
        if (isWallClockMetric(name))
            continue;
        EXPECT_EQ(one.gauges[i].written, eight.gauges[i].written) << name;
        EXPECT_EQ(bits(one.gauges[i].value), bits(eight.gauges[i].value))
            << name;
    }
    ASSERT_EQ(one.histograms.size(), eight.histograms.size());
    bool saw_position_error = false;
    for (std::size_t i = 0; i < one.histograms.size(); ++i) {
        const telemetry::HistogramValue &a = one.histograms[i];
        const telemetry::HistogramValue &b = eight.histograms[i];
        ASSERT_EQ(a.name, b.name);
        if (isWallClockMetric(a.name))
            continue;
        saw_position_error =
            saw_position_error || a.name == "session.position_error";
        EXPECT_EQ(a.count, b.count) << a.name;
        EXPECT_EQ(a.nan_count, b.nan_count) << a.name;
        EXPECT_EQ(bits(a.sum), bits(b.sum)) << a.name;
        EXPECT_EQ(bits(a.min), bits(b.min)) << a.name;
        EXPECT_EQ(bits(a.max), bits(b.max)) << a.name;
        EXPECT_EQ(a.buckets, b.buckets) << a.name;
    }
#if ARCHYTAS_TELEMETRY_ENABLED
    EXPECT_TRUE(saw_position_error);
#endif
}

} // namespace
} // namespace archytas::service
