/**
 * @file
 * The service scheduling layer (service/service.hh): deterministic
 * admission control, earliest-free accelerator-slot grants with fixed
 * tie-breaks, and the end-to-end service run -- reports, causal traces
 * whose link times are the sessions' solver transactions, and their
 * run-to-run reproducibility.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.hh"
#include "service/accel_pool.hh"
#include "service/service.hh"

namespace archytas::service {
namespace {

dataset::SequenceConfig
tinySequence(std::uint64_t seed)
{
    dataset::SequenceConfig cfg;
    cfg.duration = 1.4;
    cfg.landmarks = 300;
    cfg.max_features_per_frame = 40;
    cfg.density_modulation = 0.3;
    cfg.seed = seed;
    return cfg;
}

SessionConfig
tinySession(std::uint64_t seed, double arrival_s, bool euroc = false)
{
    SessionConfig cfg;
    cfg.sequence = tinySequence(seed);
    cfg.euroc_like = euroc;
    cfg.estimator.window_size = 8;
    cfg.arrival_s = arrival_s;
    return cfg;
}

/**
 * Timeline properties of every service run: each trace is internally
 * consistent, and per session the optimized frames appear in frame
 * order, complete in FIFO order, and each is requested no earlier than
 * the previous one completed.
 */
void
expectCausalTimeline(const ServiceReport &report)
{
    struct Previous
    {
        bool seen = false;
        std::size_t frame = 0;
        double complete_s = 0.0;
    };
    std::vector<Previous> previous(report.sessions.size());
    for (const FrameTrace &t : report.traces) {
        SCOPED_TRACE(::testing::Message() << "session " << t.session
                                          << " frame " << t.frame);
        EXPECT_GE(t.request_s, t.available_s);
        EXPECT_GT(t.link_s, 0.0);
        EXPECT_GT(t.compute_s, 0.0);
        EXPECT_GE(t.complete_s, t.request_s + t.link_s + t.compute_s);
        EXPECT_GE(t.latency_s(), 0.0);
        ASSERT_LT(t.session, previous.size());
        Previous &prev = previous[t.session];
        if (prev.seen) {
            EXPECT_GT(t.frame, prev.frame);
            EXPECT_GE(t.complete_s, prev.complete_s);
            EXPECT_GE(t.request_s, prev.complete_s);
        }
        prev = {true, t.frame, t.complete_s};
    }
}

TEST(AdmissionController, AdmitsInArrivalOrderUpToCapacity)
{
    AdmissionController admission(2);
    admission.enqueue(0, 0.0);
    admission.enqueue(1, 0.0);
    admission.enqueue(2, 0.5);
    EXPECT_EQ(admission.queued(), 3u);

    const auto a = admission.admitNext();
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->session, 0u);
    EXPECT_EQ(a->admit_s, 0.0);
    EXPECT_EQ(a->wait_s(), 0.0);

    const auto b = admission.admitNext();
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->session, 1u);
    EXPECT_EQ(admission.active(), 2u);

    // Capacity exhausted: the third session waits for a release.
    EXPECT_FALSE(admission.admitNext().has_value());
    admission.release(2.0);
    const auto c = admission.admitNext();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->session, 2u);
    EXPECT_EQ(c->admit_s, 2.0);
    EXPECT_EQ(c->wait_s(), 1.5);
    EXPECT_EQ(admission.queued(), 0u);
}

TEST(AdmissionController, OrdersByArrivalThenId)
{
    AdmissionController admission(4);
    admission.enqueue(3, 1.0);
    admission.enqueue(1, 0.5);
    admission.enqueue(2, 0.5);
    ASSERT_EQ(admission.admitNext()->session, 1u);
    ASSERT_EQ(admission.admitNext()->session, 2u);
    ASSERT_EQ(admission.admitNext()->session, 3u);
}

TEST(AcceleratorPool, GrantsEarliestFreeSlotWithFixedTieBreak)
{
    AcceleratorPool pool(2);
    const SlotGrant a = pool.acquire(0.0, 1.0);
    EXPECT_EQ(a.slot, 0u);   // tie between empty slots: lowest index
    EXPECT_EQ(a.start_s, 0.0);
    EXPECT_EQ(a.wait_s, 0.0);

    const SlotGrant b = pool.acquire(0.0, 2.0);
    EXPECT_EQ(b.slot, 1u);
    EXPECT_EQ(b.start_s, 0.0);

    // Both busy: slot 0 frees first (t=1.0), so the request queues.
    const SlotGrant c = pool.acquire(0.5, 1.0);
    EXPECT_EQ(c.slot, 0u);
    EXPECT_EQ(c.start_s, 1.0);
    EXPECT_EQ(c.wait_s, 0.5);

    // A request after every slot is free starts immediately.
    const SlotGrant d = pool.acquire(5.0, 1.0);
    EXPECT_EQ(d.start_s, 5.0);
    EXPECT_EQ(d.wait_s, 0.0);
}

TEST(LocalizationService, RunsSessionsToCompletion)
{
    ServiceOptions options;
    options.accelerator_slots = 1;
    options.max_active_sessions = 2;
    LocalizationService svc(options);
    EXPECT_EQ(svc.addSession(tinySession(11, 0.0)), 0u);
    EXPECT_EQ(svc.addSession(tinySession(12, 0.2, true)), 1u);
    EXPECT_EQ(svc.addSession(tinySession(13, 0.4)), 2u);
    ASSERT_EQ(svc.sessionCount(), 3u);

    const ServiceReport report = svc.run();
    ASSERT_EQ(report.sessions.size(), 3u);
    for (const SessionReport &sr : report.sessions) {
        EXPECT_EQ(sr.frames, svc.session(sr.id).frameCount());
        EXPECT_GE(sr.admit_s, sr.arrival_s);
        EXPECT_GT(sr.completion_s, sr.admit_s);
        EXPECT_TRUE(std::isfinite(sr.rmse_m));
        EXPECT_GT(sr.hw.windows, 0u);
    }
    EXPECT_EQ(report.sessions[0].label, "session-00");
    EXPECT_FALSE(report.traces.empty());
    EXPECT_GT(report.makespan_s, 0.0);
    EXPECT_GT(report.sessionsPerSecond(), 0.0);

    // The third session waited: capacity is 2 and arrivals overlap.
    EXPECT_GT(report.sessions[2].admit_s, report.sessions[2].arrival_s);

    expectCausalTimeline(report);

    // Percentiles are monotone in p.
    const double p50 = report.latencyPercentileMs(50);
    const double p95 = report.latencyPercentileMs(95);
    const double p99 = report.latencyPercentileMs(99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_GT(p50, 0.0);
}

TEST(LocalizationService, FrameLinkTimesAreTheSolversTransactions)
{
    // A recovered DMA timeout, a stall and an exhausted retry budget in
    // a session arriving at 0 s and in one arriving at 5000 s: every
    // trace's link time is the solver's transaction time, exactly,
    // wherever on the timeline the frame lands.
    const FaultPlan plan(5, {{2, FaultKind::DmaTimeout, 2, 0.0},
                             {4, FaultKind::DmaStall, 1, 3.0},
                             {6, FaultKind::DmaTimeout, 10, 0.0}});
    ServiceOptions options;
    options.accelerator_slots = 1;
    options.max_active_sessions = 2;
    LocalizationService svc(options);
    for (SessionConfig cfg :
         {tinySession(31, 0.0), tinySession(32, 5000.0, true)}) {
        cfg.faults = plan;
        svc.addSession(cfg);
    }
    const ServiceReport report = svc.run();
    expectCausalTimeline(report);

    for (const SessionReport &sr : report.sessions) {
        SCOPED_TRACE(sr.label);
        ASSERT_EQ(sr.hw.retried_windows, 1u);
        ASSERT_EQ(sr.hw.fallback_windows, 1u);
        std::size_t traces = 0;
        std::size_t fallbacks = 0;
        double link_s = 0.0;
        for (const FrameTrace &t : report.traces) {
            if (t.session != sr.id)
                continue;
            ++traces;
            if (!t.hw_solved)
                ++fallbacks;
            link_s += t.link_s;
        }
        EXPECT_EQ(traces, sr.hw.windows);
        EXPECT_EQ(fallbacks, sr.hw.fallback_windows);
        EXPECT_EQ(link_s, sr.hw.link_seconds);
    }
}

TEST(LocalizationService, ReportIsReproducibleRunToRun)
{
    const auto runOnce = [] {
        ServiceOptions options;
        options.accelerator_slots = 2;
        options.max_active_sessions = 2;
        LocalizationService svc(options);
        svc.addSession(tinySession(21, 0.0));
        svc.addSession(tinySession(22, 0.1, true));
        svc.addSession(tinySession(23, 0.3));
        return svc.run();
    };
    const ServiceReport a = runOnce();
    const ServiceReport b = runOnce();

    ASSERT_EQ(a.traces.size(), b.traces.size());
    for (std::size_t i = 0; i < a.traces.size(); ++i) {
        EXPECT_EQ(a.traces[i].session, b.traces[i].session);
        EXPECT_EQ(a.traces[i].frame, b.traces[i].frame);
        EXPECT_EQ(a.traces[i].request_s, b.traces[i].request_s);
        EXPECT_EQ(a.traces[i].complete_s, b.traces[i].complete_s);
        EXPECT_EQ(a.traces[i].hw_solved, b.traces[i].hw_solved);
    }
    ASSERT_EQ(a.sessions.size(), b.sessions.size());
    for (std::size_t i = 0; i < a.sessions.size(); ++i) {
        EXPECT_EQ(a.sessions[i].rmse_m, b.sessions[i].rmse_m);
        EXPECT_EQ(a.sessions[i].completion_s,
                  b.sessions[i].completion_s);
    }
    EXPECT_EQ(a.makespan_s, b.makespan_s);
}

} // namespace
} // namespace archytas::service
