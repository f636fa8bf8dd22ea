#include <gtest/gtest.h>

#include "hw/cholesky_unit.hh"

namespace archytas::hw {
namespace {

TEST(CholeskyUnit, MoreUpdateUnitsNeverSlower)
{
    for (std::size_t m : {30u, 90u, 150u}) {
        double prev = 1e300;
        for (std::size_t s : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
            const CholeskyUnit unit(s);
            const double cycles = unit.analyticalCycles(m);
            EXPECT_LE(cycles, prev + 1e-9)
                << "m=" << m << " s=" << s;
            prev = cycles;
        }
    }
}

TEST(CholeskyUnit, DiminishingReturns)
{
    // Doubling s from 1 to 2 helps far more than from 32 to 64
    // (Fig. 13c's saturating curve).
    const std::size_t m = 150;
    const double t1 = CholeskyUnit(1).analyticalCycles(m);
    const double t2 = CholeskyUnit(2).analyticalCycles(m);
    const double t32 = CholeskyUnit(32).analyticalCycles(m);
    const double t64 = CholeskyUnit(64).analyticalCycles(m);
    EXPECT_GT(t1 - t2, 10.0 * (t32 - t64));
}

TEST(CholeskyUnit, SingleUnitMatchesSerializedSum)
{
    // With one Update unit every round is one iteration: the closed form
    // degenerates to sum(max(E, E + mk(mk-1)/2)).
    const std::size_t m = 40;
    const HwConstants env;
    const CholeskyUnit unit(1, env);
    double expect = 0.0;
    for (std::size_t k = 0; k <= m; ++k) {
        const double mk = static_cast<double>(m) -
                          static_cast<double>(k) - 1.0;
        if (mk < 0.0)
            continue;
        expect += std::max(env.evaluate_cycles,
                           env.evaluate_cycles + mk * (mk - 1.0) / 2.0);
    }
    EXPECT_DOUBLE_EQ(unit.analyticalCycles(m), expect);
}

TEST(CholeskyUnit, SimulationTracksAnalyticalModel)
{
    // The event-driven timeline and the paper's closed form agree to
    // within a modest factor (the closed form is the paper's own
    // approximation; both must show the same scaling).
    for (std::size_t m : {30u, 90u, 150u}) {
        for (std::size_t s : {1u, 4u, 16u, 64u}) {
            const CholeskyUnit unit(s);
            const double sim = unit.simulatedCycles(m);
            const double model = unit.analyticalCycles(m);
            EXPECT_GT(sim, 0.3 * model) << "m=" << m << " s=" << s;
            EXPECT_LT(sim, 3.0 * model) << "m=" << m << " s=" << s;
        }
    }
}

TEST(CholeskyUnit, SimulationMoreUnitsNeverSlower)
{
    for (std::size_t m : {50u, 120u}) {
        double prev = 1e300;
        for (std::size_t s : {1u, 2u, 4u, 8u, 16u}) {
            const double t = CholeskyUnit(s).simulatedCycles(m);
            EXPECT_LE(t, prev + 1e-9);
            prev = t;
        }
    }
}

TEST(HlsCholesky, MuchSlowerThanOptimizedUnit)
{
    // Sec. 7.5 reports 16.4x; the mechanism (no pipelining, no parallel
    // updates, 0.7x clock) must land the model in the same regime for a
    // representative reduced system and a well-provisioned unit.
    const std::size_t m = 150;
    const HwConstants env;
    const HlsCholeskyModel hls;
    const CholeskyUnit opt(97);
    const double hls_sec = hls.seconds(m);
    const double opt_sec = cyclesToSeconds(opt.analyticalCycles(m), env);
    const double slowdown = hls_sec / opt_sec;
    EXPECT_GT(slowdown, 5.0);
    EXPECT_LT(slowdown, 100.0);
}

TEST(HlsCholesky, ClockFactorApplied)
{
    const HlsCholeskyModel hls;
    const HwConstants env;
    EXPECT_NEAR(hls.seconds(40),
                hls.cycles(40) / (0.7 * env.clock_hz), 1e-12);
}

/** Parameterized sweep mirroring Fig. 13c's s axis. */
class CholeskySSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(CholeskySSweep, AnalyticalAndSimulatedBothPositive)
{
    const std::size_t s = static_cast<std::size_t>(GetParam());
    const CholeskyUnit unit(s);
    EXPECT_GT(unit.analyticalCycles(150), 0.0);
    EXPECT_GT(unit.simulatedCycles(150), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Fig13c, CholeskySSweep,
                         ::testing::Values(1, 5, 10, 20, 40, 80));

} // namespace
} // namespace archytas::hw
