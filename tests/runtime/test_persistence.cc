#include <gtest/gtest.h>

#include <cstdio>

#include "runtime/energy.hh"
#include "runtime/persistence.hh"

namespace archytas::runtime {
namespace {

RuntimePreparation
samplePrep()
{
    RuntimePreparation prep;
    prep.table = IterTable({40, 90, SIZE_MAX}, {6, 4, 2});
    prep.gated_configs = {hw::HwConfig{4, 2, 8},  hw::HwConfig{8, 3, 16},
                          hw::HwConfig{12, 4, 24},
                          hw::HwConfig{16, 5, 40},
                          hw::HwConfig{20, 6, 60},
                          hw::HwConfig{28, 8, 97}};
    return prep;
}

TEST(Persistence, RoundTrip)
{
    const RuntimePreparation prep = samplePrep();
    const std::string text = serializeRuntime(prep);
    const RuntimePreparation back = deserializeRuntime(text);

    EXPECT_EQ(back.table.buckets(), 3u);
    EXPECT_EQ(back.table.lookup(10), 6u);
    EXPECT_EQ(back.table.lookup(50), 4u);
    EXPECT_EQ(back.table.lookup(500), 2u);
    for (std::size_t i = 0; i < kMaxIterations; ++i)
        EXPECT_EQ(back.gated_configs[i], prep.gated_configs[i]);
}

TEST(Persistence, InfBoundSurvives)
{
    const std::string text = serializeRuntime(samplePrep());
    EXPECT_NE(text.find("inf"), std::string::npos);
}

TEST(Persistence, CommentsAndBlanksIgnored)
{
    std::string text = serializeRuntime(samplePrep());
    text.insert(text.find('\n') + 1, "# a comment\n\n   \n");
    const RuntimePreparation back = deserializeRuntime(text);
    EXPECT_EQ(back.table.buckets(), 3u);
}

TEST(Persistence, BadMagicRejected)
{
    EXPECT_THROW(deserializeRuntime("not-a-runtime-file\n"),
                 std::runtime_error);
}

TEST(Persistence, TruncatedFileRejected)
{
    std::string text = serializeRuntime(samplePrep());
    text.resize(text.size() / 2);
    EXPECT_THROW(deserializeRuntime(text), std::runtime_error);
}

TEST(Persistence, MalformedConfigRejected)
{
    std::string text = serializeRuntime(samplePrep());
    const auto pos = text.rfind("28 8 97");
    text.replace(pos, 7, "0 0 0");
    EXPECT_THROW(deserializeRuntime(text), std::runtime_error);
}

TEST(Persistence, FileRoundTrip)
{
    const std::string path = "/tmp/archytas_runtime_test.txt";
    saveRuntime(samplePrep(), path);
    const RuntimePreparation back = loadRuntime(path);
    EXPECT_EQ(back.table.lookup(500), 2u);
    std::remove(path.c_str());
}

TEST(Persistence, MissingFileRejected)
{
    EXPECT_THROW(loadRuntime("/nonexistent/path/prep.txt"),
                 std::runtime_error);
}

TEST(EnergyAccountant, StaticVsDynamic)
{
    const hw::HwConfig built{28, 19, 97};
    EnergyAccountant acc(built, synth::PowerModel::calibrated());

    slam::WindowWorkload w;
    w.keyframes = 10;
    w.features = 100;
    w.avg_obs_per_feature = 4.0;
    w.marginalized_features = 10;

    ControllerDecision d;
    d.iterations = 2;
    d.gated = {10, 5, 30};
    for (int i = 0; i < 5; ++i) {
        acc.chargeStatic(w);
        acc.chargeDynamic(w, d);
    }
    EXPECT_EQ(acc.windows(), 5u);
    EXPECT_GT(acc.staticMj(), 0.0);
    EXPECT_GT(acc.dynamicMj(), 0.0);
    // Fewer iterations at gated power must save energy even though the
    // gated configuration is slower per iteration.
    EXPECT_GT(acc.saving(), 0.0);
}

TEST(EnergyAccountant, ChargesReturnWhatTheyAdd)
{
    // Callers print the per-window charge, so each charge returns the
    // latency x power product it added to its running total.
    const hw::HwConfig built{28, 19, 97};
    const synth::PowerModel power = synth::PowerModel::calibrated();
    EnergyAccountant acc(built, power);
    ControllerDecision d;
    d.iterations = 3;
    d.gated = {10, 5, 30};
    double static_sum = 0.0, dynamic_sum = 0.0;
    for (const std::size_t features : {40, 100, 250}) {
        slam::WindowWorkload w;
        w.keyframes = 10;
        w.features = features;
        w.avg_obs_per_feature = 4.0;
        w.marginalized_features = 10;
        const double s = acc.chargeStatic(w);
        const double g = acc.chargeDynamic(w, d);
        EXPECT_EQ(s, hw::Accelerator(built).windowTiming(w, 6).totalMs() *
                         power.watts(built));
        EXPECT_EQ(g, hw::Accelerator(d.gated)
                             .windowTiming(w, d.iterations)
                             .totalMs() *
                         power.gatedWatts(built, d.gated));
        static_sum += s;
        dynamic_sum += g;
    }
    EXPECT_EQ(acc.staticMj(), static_sum);
    EXPECT_EQ(acc.dynamicMj(), dynamic_sum);
}

TEST(EnergyAccountant, NoChargeNoSaving)
{
    EnergyAccountant acc({28, 19, 97}, synth::PowerModel::calibrated());
    EXPECT_EQ(acc.saving(), 0.0);
}

} // namespace
} // namespace archytas::runtime
