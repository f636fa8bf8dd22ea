/**
 * @file
 * The determinism contract, end to end: every product of the pipeline
 * -- assembled normal equations, solver costs, estimator trajectories --
 * must be bit-identical at any thread count. Each window's shared sums
 * run serially in one fixed order, and the pool only runs tasks that
 * write disjoint state. This is what lets the hw simulator stay
 * bit-checked against the software solver while sessions run in
 * parallel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/telemetry.hh"
#include "dataset/sequence.hh"
#include "linalg/simd.hh"
#include "slam/estimator.hh"
#include "slam/window_problem.hh"

namespace archytas::slam {
namespace {

/** Restores the ARCHYTAS_THREADS default when a test exits. */
struct PoolSizeGuard
{
    ~PoolSizeGuard() { parallel::setThreadCount(0); }
};

/** A synthetic window: translating camera, landmarks ahead, no IMU. */
struct TestWindow
{
    PinholeCamera camera;
    std::vector<KeyframeState> keyframes;
    std::vector<Feature> features;
    std::vector<std::shared_ptr<ImuPreintegration>> preints;
    PriorFactor prior;
};

TestWindow
makeWindow(std::size_t n_keyframes, std::size_t n_landmarks,
           double pixel_noise, Rng &rng)
{
    TestWindow w;
    for (std::size_t i = 0; i < n_keyframes; ++i) {
        KeyframeState s;
        s.pose.p = Vec3{0.3 * static_cast<double>(i), 0.0, 0.0};
        s.timestamp = 0.1 * static_cast<double>(i);
        w.keyframes.push_back(s);
    }
    w.preints.resize(n_keyframes - 1);
    for (std::size_t l = 0; l < n_landmarks; ++l) {
        const Vec3 lm{rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0),
                      rng.uniform(6.0, 18.0)};
        Feature f;
        f.track_id = l;
        f.anchor_index = 0;
        const Vec3 pc0 = w.keyframes[0].pose.inverseTransform(lm);
        f.anchor_bearing = Vec3{pc0.x / pc0.z, pc0.y / pc0.z, 1.0};
        f.inverse_depth = 1.0 / pc0.z;
        f.depth_initialized = true;
        for (std::size_t i = 0; i < n_keyframes; ++i) {
            const Vec3 pc = w.keyframes[i].pose.inverseTransform(lm);
            const auto px = w.camera.project(pc);
            if (!px)
                continue;
            Vec2 noisy = *px;
            noisy.u += rng.gaussian(0.0, pixel_noise);
            noisy.v += rng.gaussian(0.0, pixel_noise);
            f.observations.push_back({i, noisy});
        }
        w.features.push_back(std::move(f));
    }
    return w;
}

double
maxAbsDiff(const linalg::Matrix &a, const linalg::Matrix &b)
{
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    double d = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            d = std::max(d, std::abs(a(i, j) - b(i, j)));
    return d;
}

double
maxAbsDiff(const linalg::Vector &a, const linalg::Vector &b)
{
    EXPECT_EQ(a.size(), b.size());
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        d = std::max(d, std::abs(a[i] - b[i]));
    return d;
}

TEST(Determinism, WindowBuildBitIdenticalAcrossThreadCounts)
{
    PoolSizeGuard guard;
    Rng rng(42);
    TestWindow w = makeWindow(8, 200, 0.5, rng);
    WindowProblem problem(w.camera, w.keyframes, w.features, w.preints,
                          w.prior, /*pixel_sigma=*/1.0);

    parallel::setThreadCount(1);
    const NormalEquations eq1 = problem.build();
    const double cost1 = problem.evaluateCost();
    parallel::setThreadCount(8);
    const NormalEquations eq8 = problem.build();
    const double cost8 = problem.evaluateCost();

    EXPECT_EQ(maxAbsDiff(eq1.u_diag, eq8.u_diag), 0.0);
    EXPECT_EQ(maxAbsDiff(eq1.bx, eq8.bx), 0.0);
    EXPECT_EQ(eq1.support_blocks, eq8.support_blocks);
    EXPECT_EQ(eq1.w_blocks, eq8.w_blocks);
    EXPECT_EQ(maxAbsDiff(eq1.v, eq8.v), 0.0);
    EXPECT_EQ(maxAbsDiff(eq1.v_camera, eq8.v_camera), 0.0);
    EXPECT_EQ(maxAbsDiff(eq1.v_imu, eq8.v_imu), 0.0);
    EXPECT_EQ(maxAbsDiff(eq1.by, eq8.by), 0.0);
    EXPECT_EQ(eq1.cost, eq8.cost);
    EXPECT_EQ(cost1, cost8);
    // build() and evaluateCost() sum the same terms in the same order,
    // so they agree too.
    EXPECT_EQ(eq1.cost, cost1);
}

TEST(Determinism, WindowBuildBitIdenticalPerBackendAndThreadCount)
{
    // The per-backend contract: within either kernel backend, the
    // scratch-reusing assembly (the steady-state solver path) is
    // bit-identical at every thread count, support structure included. Cross-backend equality is NOT asserted -- the AVX2
    // reductions associate differently (see test_simd_backend.cc).
    PoolSizeGuard guard;
    const linalg::simd::Backend startup = linalg::simd::activeBackend();
    Rng rng(43);
    TestWindow w = makeWindow(8, 200, 0.5, rng);
    WindowProblem problem(w.camera, w.keyframes, w.features, w.preints,
                          w.prior, /*pixel_sigma=*/1.0);

    std::vector<linalg::simd::Backend> backends{
        linalg::simd::Backend::kScalar};
    if (linalg::simd::avx2Compiled() && linalg::simd::avx2Supported())
        backends.push_back(linalg::simd::Backend::kAvx2);

    for (const linalg::simd::Backend backend : backends) {
        linalg::simd::setBackendForTest(backend);
        NormalEquations base;
        AssemblyScratch base_scratch;
        parallel::setThreadCount(1);
        problem.build(base, base_scratch, BuildMode::kFull);
        // A warm window must have its block-sparse support structure.
        ASSERT_TRUE(base.hasSupport());

        for (const std::size_t threads : {2, 5, 8}) {
            parallel::setThreadCount(threads);
            NormalEquations eq;
            AssemblyScratch scratch;
            // Build twice: the second pass runs on warmed buffers and
            // must reproduce the first bit for bit.
            problem.build(eq, scratch, BuildMode::kFull);
            problem.build(eq, scratch, BuildMode::kFull);
            const std::string what =
                std::string(linalg::simd::backendName(backend)) + " @" +
                std::to_string(threads) + "t";
            EXPECT_EQ(maxAbsDiff(base.u_diag, eq.u_diag), 0.0) << what;
            EXPECT_EQ(maxAbsDiff(base.bx, eq.bx), 0.0) << what;
            EXPECT_EQ(maxAbsDiff(base.v, eq.v), 0.0) << what;
            EXPECT_EQ(maxAbsDiff(base.v_camera, eq.v_camera), 0.0)
                << what;
            EXPECT_EQ(maxAbsDiff(base.v_imu, eq.v_imu), 0.0) << what;
            EXPECT_EQ(maxAbsDiff(base.by, eq.by), 0.0) << what;
            EXPECT_EQ(base.cost, eq.cost) << what;
            ASSERT_EQ(base.support_offsets, eq.support_offsets) << what;
            ASSERT_EQ(base.support_blocks, eq.support_blocks) << what;
            ASSERT_EQ(base.w_blocks.size(), eq.w_blocks.size()) << what;
            for (std::size_t i = 0; i < base.w_blocks.size(); ++i)
                ASSERT_EQ(base.w_blocks[i], eq.w_blocks[i])
                    << what << " w_blocks[" << i << "]";
        }
    }
    linalg::simd::setBackendForTest(startup);
}

TEST(Determinism, EstimatorBitIdenticalAcrossThreadCounts)
{
    PoolSizeGuard guard;
    dataset::SequenceConfig cfg;
    cfg.duration = 6.0;
    cfg.landmarks = 900;
    cfg.max_features_per_frame = 50;
    cfg.density_modulation = 0.0;
    cfg.seed = 99;
    const auto seq = dataset::makeKittiLikeSequence(cfg);

    EstimatorOptions opt;
    opt.window_size = 8;

    parallel::setThreadCount(1);
    SlidingWindowEstimator est1(seq.camera(), opt);
    const auto run1 = est1.run(seq);
    parallel::setThreadCount(8);
    SlidingWindowEstimator est8(seq.camera(), opt);
    const auto run8 = est8.run(seq);

    ASSERT_EQ(run1.size(), run8.size());
    for (std::size_t i = 0; i < run1.size(); ++i) {
        // Bitwise comparisons on purpose: the contract is exact
        // reproducibility, not tolerance-level agreement.
        EXPECT_EQ(run1[i].estimated.p.x, run8[i].estimated.p.x) << i;
        EXPECT_EQ(run1[i].estimated.p.y, run8[i].estimated.p.y) << i;
        EXPECT_EQ(run1[i].estimated.p.z, run8[i].estimated.p.z) << i;
        EXPECT_EQ(run1[i].position_error, run8[i].position_error) << i;
        EXPECT_EQ(run1[i].rotation_error, run8[i].rotation_error) << i;
        EXPECT_EQ(run1[i].optimized, run8[i].optimized) << i;
    }
}

/** Ends a name with the wall-clock suffix exempt from bit-identity. */
bool
isWallClockMetric(const std::string &name)
{
    static constexpr const char kSuffix[] = "_ms";
    const std::size_t n = sizeof(kSuffix) - 1;
    return name.size() >= n &&
           name.compare(name.size() - n, n, kSuffix) == 0;
}

telemetry::MetricsSnapshot
runInstrumented(const dataset::Sequence &seq, const EstimatorOptions &opt,
                std::size_t threads)
{
    parallel::setThreadCount(threads);
    telemetry::reset();
    telemetry::setEnabled(true);
    SlidingWindowEstimator est(seq.camera(), opt);
    (void)est.run(seq);
    auto snap = telemetry::snapshotMetrics();
    telemetry::setEnabled(false);
    telemetry::reset();
    return snap;
}

TEST(Determinism, TelemetryMetricsBitIdenticalAcrossThreadCounts)
{
    PoolSizeGuard guard;
    dataset::SequenceConfig cfg;
    cfg.duration = 6.0;
    cfg.landmarks = 900;
    cfg.max_features_per_frame = 50;
    cfg.density_modulation = 0.0;
    cfg.seed = 99;
    const auto seq = dataset::makeKittiLikeSequence(cfg);

    EstimatorOptions opt;
    opt.window_size = 8;

    const auto snap1 = runInstrumented(seq, opt, 1);
    const auto snap8 = runInstrumented(seq, opt, 8);

    // The metric *values* -- counts, gauges, histogram contents -- must
    // match bitwise; only wall-clock (*_ms) metrics are exempt. Counter
    // merges are integer sums, so shard order cannot perturb them.
    ASSERT_EQ(snap1.counters.size(), snap8.counters.size());
    for (std::size_t i = 0; i < snap1.counters.size(); ++i) {
        ASSERT_EQ(snap1.counters[i].name, snap8.counters[i].name);
        if (isWallClockMetric(snap1.counters[i].name))
            continue;
        EXPECT_EQ(snap1.counters[i].value, snap8.counters[i].value)
            << snap1.counters[i].name;
    }
    ASSERT_EQ(snap1.gauges.size(), snap8.gauges.size());
    for (std::size_t i = 0; i < snap1.gauges.size(); ++i) {
        ASSERT_EQ(snap1.gauges[i].name, snap8.gauges[i].name);
        if (isWallClockMetric(snap1.gauges[i].name))
            continue;
        EXPECT_EQ(snap1.gauges[i].written, snap8.gauges[i].written)
            << snap1.gauges[i].name;
        EXPECT_EQ(snap1.gauges[i].value, snap8.gauges[i].value)
            << snap1.gauges[i].name;
    }
    ASSERT_EQ(snap1.histograms.size(), snap8.histograms.size());
    for (std::size_t i = 0; i < snap1.histograms.size(); ++i) {
        const auto &h1 = snap1.histograms[i];
        const auto &h8 = snap8.histograms[i];
        ASSERT_EQ(h1.name, h8.name);
        if (isWallClockMetric(h1.name))
            continue;
        EXPECT_EQ(h1.count, h8.count) << h1.name;
        EXPECT_EQ(h1.nan_count, h8.nan_count) << h1.name;
        EXPECT_EQ(h1.sum, h8.sum) << h1.name;
        EXPECT_EQ(h1.min, h8.min) << h1.name;
        EXPECT_EQ(h1.max, h8.max) << h1.name;
        for (std::size_t b = 0; b < telemetry::kHistogramBuckets; ++b)
            EXPECT_EQ(h1.buckets[b], h8.buckets[b])
                << h1.name << " bucket " << b;
    }
}

} // namespace
} // namespace archytas::slam
