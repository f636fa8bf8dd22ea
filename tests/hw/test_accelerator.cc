#include <gtest/gtest.h>

#include "hw/accelerator.hh"

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
    w.nls_iterations = 6;
    return w;
}

TEST(Accelerator, TimingCompositionEq13)
{
    const Accelerator accel({8, 8, 16});
    const auto w = typicalWorkload();
    const auto t = accel.windowTiming(w, 4);
    EXPECT_EQ(t.iterations, 4u);
    EXPECT_DOUBLE_EQ(t.total_cycles,
                     4.0 * t.nls_cycles_per_iter + t.marg_cycles);
}

TEST(Accelerator, DefaultIterationsFromWorkload)
{
    const Accelerator accel({8, 8, 16});
    const auto w = typicalWorkload();
    const auto t = accel.windowTiming(w);
    EXPECT_EQ(t.iterations, 6u);
}

TEST(Accelerator, PipelineTakesMaxOfJacobianAndDSchur)
{
    // With one MAC the D-type Schur beat dominates; with many MACs the
    // Jacobian beat does. Latency must follow the max (Eq. 14).
    const auto w = typicalWorkload();
    const Accelerator few({1, 8, 16});
    const Accelerator many({64, 8, 16});
    const double few_beat =
        few.dschurUnit().perFeatureCycles(w.avg_obs_per_feature);
    const double jac_beat =
        few.jacobianUnit().perFeatureCycles(w.avg_obs_per_feature);
    EXPECT_GT(few_beat, jac_beat);
    EXPECT_LT(many.dschurUnit().perFeatureCycles(w.avg_obs_per_feature),
              jac_beat);
    // Once the D-type Schur is no longer the bottleneck, more MACs stop
    // helping the NLS phase: its per-iteration latency saturates.
    const Accelerator more({128, 8, 16});
    EXPECT_DOUBLE_EQ(
        many.windowTiming(w, 1).nls_cycles_per_iter,
        more.windowTiming(w, 1).nls_cycles_per_iter);
}

TEST(Accelerator, EveryKnobImprovesItsPhase)
{
    const auto w = typicalWorkload();
    const Accelerator base({2, 2, 2});
    const Accelerator nd_up({16, 2, 2});
    const Accelerator nm_up({2, 16, 2});
    const Accelerator s_up({2, 2, 32});
    EXPECT_LT(nd_up.windowTiming(w, 6).total_cycles,
              base.windowTiming(w, 6).total_cycles);
    EXPECT_LT(nm_up.windowTiming(w, 6).marg_cycles,
              base.windowTiming(w, 6).marg_cycles);
    EXPECT_LT(s_up.windowTiming(w, 6).total_cycles,
              base.windowTiming(w, 6).total_cycles);
}

TEST(Accelerator, BusyCyclesDoNotExceedTotalPerBlock)
{
    const Accelerator accel({8, 8, 16});
    const auto w = typicalWorkload();
    const auto t = accel.windowTiming(w, 6);
    for (double busy : {t.jacobian_busy, t.dschur_busy, t.mschur_busy,
                        t.cholesky_busy, t.bsub_busy}) {
        EXPECT_GE(busy, 0.0);
        EXPECT_LE(busy, t.total_cycles * 1.001);
    }
}

TEST(Accelerator, MsConversionUsesTemplateClock)
{
    const Accelerator accel({8, 8, 16});
    const auto t = accel.windowTiming(typicalWorkload(), 6);
    EXPECT_NEAR(t.totalMs(), t.total_cycles * 1e3 / 143e6, 1e-12);
}

} // namespace
} // namespace archytas::hw
