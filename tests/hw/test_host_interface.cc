#include <gtest/gtest.h>

#include "hw/accelerator.hh"
#include "hw/host_interface.hh"

namespace archytas::hw {
namespace {

slam::WindowWorkload
typicalWorkload()
{
    slam::WindowWorkload w;
    w.keyframes = 10;
    w.features = 100;
    w.observations = 400;
    w.avg_obs_per_feature = 4.0;
    w.marginalized_features = 12;
    return w;
}

TEST(HostInterface, AccountsAllWords)
{
    const HostInterface host;
    const auto t = host.windowTransaction(typicalWorkload(), true);
    EXPECT_EQ(t.input_words, 100u * 4 + 400u * 3);
    EXPECT_EQ(t.config_words, 3u);
    EXPECT_EQ(t.output_words, 10u * 15 + 100u);
    EXPECT_GT(t.total_seconds, 0.0);
}

TEST(HostInterface, UnchangedConfigSendsNothingExtra)
{
    const HostInterface host;
    const auto with = host.windowTransaction(typicalWorkload(), true);
    const auto without = host.windowTransaction(typicalWorkload(), false);
    EXPECT_EQ(without.config_words, 0u);
    EXPECT_LT(without.total_seconds, with.total_seconds + 1e-12);
}

TEST(HostInterface, ReconfigurationIsNegligibleVsCompute)
{
    // The paper's "effectively no overhead" claim (Sec. 6.2): three
    // words on the link vs. the window's compute latency.
    const HostInterface host;
    const Accelerator accel({28, 19, 97});
    const double compute_s =
        cyclesToSeconds(accel.windowTiming(typicalWorkload(), 6)
                            .total_cycles);
    EXPECT_LT(host.reconfigurationSeconds(), compute_s / 1000.0);
}

TEST(HostInterface, TransferSmallNextToCompute)
{
    // The per-window DMA must not dominate the accelerator latency for
    // the template's workload class.
    const HostInterface host;
    const Accelerator accel({28, 19, 97});
    const auto t = host.windowTransaction(typicalWorkload(), true);
    const double compute_s =
        cyclesToSeconds(accel.windowTiming(typicalWorkload(), 6)
                            .total_cycles);
    EXPECT_LT(t.total_seconds, compute_s);
}

TEST(HostInterface, BadLinkDies)
{
    HostLink link;
    link.bandwidth_bytes_per_s = 0.0;
    EXPECT_DEATH(HostInterface{link}, "bad host link");
}

TEST(HostInterface, BadRetryParametersDie)
{
    HostLink link;
    link.deadline_s = 0.0;
    EXPECT_DEATH(HostInterface{link}, "retry parameters");
    link = HostLink{};
    link.backoff_factor = 0.5;
    EXPECT_DEATH(HostInterface{link}, "retry parameters");
}

TEST(HostInterface, ZeroFeatureWindowStillMovesKeyframeStates)
{
    // A zero-feature window sends no feature/observation words, but the
    // keyframe state increments still come back.
    const HostInterface host;
    slam::WindowWorkload w;
    w.keyframes = 10;
    const auto t = host.windowTransaction(w, false);
    EXPECT_EQ(t.input_words, 0u);
    EXPECT_EQ(t.config_words, 0u);
    EXPECT_EQ(t.output_words, 10u * slam::kKeyframeDof);
    EXPECT_GT(t.total_seconds, 0.0);
    EXPECT_EQ(t.status, TransactionStatus::Ok);
    EXPECT_EQ(t.attempts, 1u);
}

TEST(HostInterface, EmptyWorkloadCostsOnlyTheFixedOverhead)
{
    // Degenerate zero-output transaction: nothing moves on the link,
    // but the two per-transaction overheads (trigger + completion) are
    // still paid.
    const HostInterface host;
    const auto t = host.windowTransaction(slam::WindowWorkload{}, false);
    EXPECT_EQ(t.input_words + t.config_words + t.output_words, 0u);
    EXPECT_DOUBLE_EQ(t.total_seconds,
                     2.0 * host.link().transaction_overhead_s);
}

TEST(HostInterface, ConfigUnchangedPathIsExactlyThreeWordsCheaper)
{
    const HostInterface host;
    const auto with = host.windowTransaction(typicalWorkload(), true);
    const auto without = host.windowTransaction(typicalWorkload(), false);
    const double word_s =
        static_cast<double>(host.link().word_bytes) /
        host.link().bandwidth_bytes_per_s;
    EXPECT_NEAR(with.total_seconds - without.total_seconds, 3.0 * word_s,
                1e-15);
}

TEST(HostInterface, EmptyPlanMatchesNominalTransaction)
{
    const HostInterface host;
    const auto nominal = host.windowTransaction(typicalWorkload(), true);
    const auto faulted =
        host.windowTransaction(typicalWorkload(), true, 7, FaultPlan{});
    EXPECT_EQ(faulted.status, TransactionStatus::Ok);
    EXPECT_EQ(faulted.attempts, 1u);
    EXPECT_DOUBLE_EQ(faulted.total_seconds, nominal.total_seconds);
}

TEST(HostInterface, DmaTimeoutRetriesWithBackoffThenRecovers)
{
    const HostInterface host;
    const FaultPlan plan(1, {{5, FaultKind::DmaTimeout, 2, 0.0}});
    const auto nominal = host.windowTransaction(typicalWorkload(), false);
    const auto t =
        host.windowTransaction(typicalWorkload(), false, 5, plan);
    EXPECT_EQ(t.status, TransactionStatus::RecoveredAfterRetry);
    EXPECT_EQ(t.attempts, 3u);   // Two failures, then success.
    const HostLink &l = host.link();
    // Two abandoned deadlines + two backoffs + the clean attempt.
    EXPECT_NEAR(t.total_seconds,
                2.0 * l.deadline_s + l.backoff_initial_s +
                    l.backoff_initial_s * l.backoff_factor +
                    nominal.total_seconds,
                1e-12);
    // Other windows are untouched.
    const auto other =
        host.windowTransaction(typicalWorkload(), false, 6, plan);
    EXPECT_EQ(other.status, TransactionStatus::Ok);
}

TEST(HostInterface, ExhaustedRetryBudgetReportsDeadlineExceeded)
{
    const HostInterface host;
    const std::size_t budget = host.link().max_retries + 1;
    const FaultPlan plan(1, {{2, FaultKind::DmaTimeout, budget, 0.0}});
    const auto t =
        host.windowTransaction(typicalWorkload(), false, 2, plan);
    EXPECT_EQ(t.status, TransactionStatus::DeadlineExceeded);
    EXPECT_FALSE(t.ok());
    EXPECT_EQ(t.attempts, budget);
}

TEST(HostInterface, MildStallSlowsButSucceeds)
{
    const HostInterface host;
    const FaultPlan plan(1, {{3, FaultKind::DmaStall, 1, 4.0}});
    const auto nominal = host.windowTransaction(typicalWorkload(), false);
    const auto t =
        host.windowTransaction(typicalWorkload(), false, 3, plan);
    ASSERT_LE(nominal.total_seconds * 4.0, host.link().deadline_s);
    EXPECT_EQ(t.status, TransactionStatus::Ok);
    EXPECT_NEAR(t.total_seconds, nominal.total_seconds * 4.0, 1e-12);
}

TEST(HostInterface, SevereStallExhaustsTheBudget)
{
    // A stall that blows the per-attempt deadline on every attempt must
    // end in DeadlineExceeded, not an unbounded wait.
    const HostInterface host;
    const double factor =
        2.0 * host.link().deadline_s /
        host.windowTransaction(typicalWorkload(), false).total_seconds;
    const FaultPlan plan(1, {{4, FaultKind::DmaStall, 1, factor}});
    const auto t =
        host.windowTransaction(typicalWorkload(), false, 4, plan);
    EXPECT_EQ(t.status, TransactionStatus::DeadlineExceeded);
    EXPECT_EQ(t.attempts, host.link().max_retries + 1);
    // Wall time is bounded by the deadlines plus the backoff series.
    double bound = static_cast<double>(t.attempts) *
                   host.link().deadline_s;
    double backoff = host.link().backoff_initial_s;
    for (std::size_t i = 0; i < host.link().max_retries; ++i) {
        bound += backoff;
        backoff *= host.link().backoff_factor;
    }
    EXPECT_NEAR(t.total_seconds, bound, 1e-12);
}

TEST(HostInterface, HealthyTransferPastTheDeadlineIsAbandoned)
{
    // The deadline bounds every attempt, not only faulted ones: on a
    // link too slow for the window, the healthy transfer must be
    // abandoned and retried exactly like a unit stall of the same
    // transfer.
    HostLink link;
    link.bandwidth_bytes_per_s = 1e5;
    const HostInterface host(link);
    slam::WindowWorkload w;
    w.keyframes = 10;
    w.features = 80;
    w.observations = 400;
    ASSERT_GT(host.windowTransaction(w, false).total_seconds,
              link.deadline_s);

    const auto healthy = host.windowTransaction(w, false, 0, FaultPlan{});
    const FaultPlan unit_stall(1, {{0, FaultKind::DmaStall, 1, 1.0}});
    const auto stalled = host.windowTransaction(w, false, 0, unit_stall);
    EXPECT_EQ(stalled.status, TransactionStatus::DeadlineExceeded);
    EXPECT_EQ(healthy.status, stalled.status);
    EXPECT_EQ(healthy.attempts, stalled.attempts);
    EXPECT_EQ(healthy.total_seconds, stalled.total_seconds);
    EXPECT_EQ(healthy.attempts, link.max_retries + 1);
}

} // namespace
} // namespace archytas::hw
