#include <cmath>
#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "hw/hw_solver.hh"
#include "slam/lm_solver.hh"
#include "slam/window_problem.hh"

namespace archytas::hw {
namespace {

/** Compact synthetic window (see tests/slam/test_window_problem.cc). */
struct TestWindow
{
    slam::PinholeCamera camera;
    std::vector<slam::KeyframeState> keyframes;
    std::vector<slam::Feature> features;
    std::vector<std::shared_ptr<slam::ImuPreintegration>> preints;
    slam::PriorFactor prior;
};

TestWindow
makeWindow(std::size_t n_keyframes, std::size_t n_landmarks, Rng &rng)
{
    using namespace slam;
    TestWindow w;
    const Vec3 g = gravityVector();
    const double frame_dt = 0.1;
    const double imu_dt = 0.0005;
    const Vec3 v0{1.0, 0.0, 0.0};
    const Vec3 accel{2.0, 0.0, 0.0};
    const double roll_rate = 0.6;
    auto pose_at = [&](double t) {
        Pose p;
        p.q = Quaternion::fromAxisAngle(Vec3{0.0, 0.0, roll_rate * t});
        p.p = v0 * t + accel * (0.5 * t * t);
        return p;
    };
    for (std::size_t i = 0; i < n_keyframes; ++i) {
        KeyframeState s;
        const double t = frame_dt * static_cast<double>(i);
        s.pose = pose_at(t);
        s.velocity = v0 + accel * t;
        s.timestamp = t;
        w.keyframes.push_back(s);
    }
    for (std::size_t i = 0; i + 1 < n_keyframes; ++i) {
        auto pre = std::make_shared<ImuPreintegration>(Vec3{}, Vec3{},
                                                       ImuNoise{});
        const double t0 = frame_dt * static_cast<double>(i);
        double t = 0.0;
        while (t + imu_dt <= frame_dt + 1e-12) {
            const double t_mid = t0 + t + imu_dt / 2.0;
            const Mat3 r_mid = pose_at(t_mid).q.toRotationMatrix();
            const Vec3 f = r_mid.transposed() * (accel - g);
            pre->integrate({imu_dt, Vec3{0.0, 0.0, roll_rate}, f});
            t += imu_dt;
        }
        w.preints.push_back(std::move(pre));
    }
    for (std::size_t l = 0; l < n_landmarks; ++l) {
        const Vec3 landmark{rng.uniform(-3.0, 3.0),
                            rng.uniform(-2.0, 2.0),
                            rng.uniform(6.0, 18.0)};
        Feature f;
        f.track_id = l;
        f.anchor_index = 0;
        const Vec3 pc0 =
            w.keyframes[0].pose.inverseTransform(landmark);
        f.anchor_bearing = Vec3{pc0.x / pc0.z, pc0.y / pc0.z, 1.0};
        f.inverse_depth = 1.0 / pc0.z;
        f.depth_initialized = true;
        for (std::size_t i = 0; i < n_keyframes; ++i) {
            const Vec3 pc =
                w.keyframes[i].pose.inverseTransform(landmark);
            const auto px = w.camera.project(pc);
            if (px)
                f.observations.push_back({i, *px});
        }
        w.features.push_back(std::move(f));
    }
    // Perturb the non-anchor keyframes so the solve has work to do.
    for (std::size_t i = 1; i < w.keyframes.size(); ++i)
        w.keyframes[i].pose.p += Vec3{rng.uniform(-0.03, 0.03),
                                      rng.uniform(-0.03, 0.03),
                                      rng.uniform(-0.03, 0.03)};
    return w;
}

const HwConfig kBuilt{28, 19, 97};

/** Raw bytes of each value in turn, so comparisons have no tolerance. */
template <typename... T>
std::string
bytes(const T &...v)
{
    std::string out;
    (out.append(reinterpret_cast<const char *>(&v), sizeof v), ...);
    return out;
}

/** Every estimated state of a window, as raw bytes. */
std::string
stateBytes(const TestWindow &w)
{
    std::string out;
    for (const slam::KeyframeState &k : w.keyframes) {
        const slam::Pose &p = k.pose;
        out += bytes(p.q.w, p.q.x, p.q.y, p.q.z, p.p.x, p.p.y, p.p.z);
        for (const slam::Vec3 &v : {k.velocity, k.bias_gyro, k.bias_accel})
            out += bytes(v.x, v.y, v.z);
    }
    for (const slam::Feature &f : w.features)
        out += bytes(f.inverse_depth);
    return out;
}

TEST(HwWindowSolver, CleanWindowSolvesOnTheAccelerator)
{
    Rng rng(1);
    TestWindow w = makeWindow(4, 25, rng);
    slam::WindowProblem problem(w.camera, w.keyframes, w.features,
                                w.preints, w.prior, 1.0);
    const double before = problem.evaluateCost();

    HwWindowSolver solver(kBuilt);
    slam::HealthReport health;
    const auto report =
        solver.solveWindow(problem, slam::LmOptions{}, health);
    EXPECT_TRUE(report.healthy());
    EXPECT_LT(report.final_cost, before);
    EXPECT_FALSE(health.anyFault());
    EXPECT_EQ(solver.stats().windows, 1u);
    EXPECT_EQ(solver.stats().hw_windows, 1u);
    EXPECT_EQ(solver.stats().fallback_windows, 0u);
    EXPECT_EQ(solver.stats().bit_flips_injected, 0u);
    EXPECT_GT(solver.stats().link_seconds, 0.0);
}

TEST(HwWindowSolver, CleanWindowsMatchTheSoftwareSolveBitExact)
{
    // The accelerator's functional path is the software solve: with no
    // fault planned, the hardware solver must leave every window, and
    // its LM report, exactly where slam::solveWindow does. Windows of
    // different sizes go through one solver so its reused scratch is
    // covered too.
    HwWindowSolver solver(kBuilt);
    slam::SolverScratch scratch;
    const std::size_t shapes[][2] = {{4, 25}, {5, 30}, {4, 20}};
    for (const auto &shape : shapes) {
        Rng hw_rng(shape[1]), sw_rng(shape[1]);
        TestWindow hw_w = makeWindow(shape[0], shape[1], hw_rng);
        TestWindow sw_w = makeWindow(shape[0], shape[1], sw_rng);
        slam::WindowProblem hw_problem(hw_w.camera, hw_w.keyframes,
                                       hw_w.features, hw_w.preints,
                                       hw_w.prior, 1.0);
        slam::WindowProblem sw_problem(sw_w.camera, sw_w.keyframes,
                                       sw_w.features, sw_w.preints,
                                       sw_w.prior, 1.0);
        const std::string before = stateBytes(sw_w);

        slam::HealthReport health;
        const slam::LmReport hw =
            solver.solveWindow(hw_problem, slam::LmOptions{}, health);
        const slam::LmReport sw =
            slam::solveWindow(sw_problem, slam::LmOptions{}, {}, scratch);

        EXPECT_NE(stateBytes(sw_w), before) << "the solve must move";
        EXPECT_EQ(stateBytes(hw_w), stateBytes(sw_w));
        EXPECT_EQ(hw.iterations, sw.iterations);
        ASSERT_EQ(hw.cost_history.size(), sw.cost_history.size());
        for (std::size_t i = 0; i < hw.cost_history.size(); ++i)
            EXPECT_EQ(bytes(hw.cost_history[i]), bytes(sw.cost_history[i]));
        EXPECT_EQ(bytes(hw.final_cost), bytes(sw.final_cost));
        EXPECT_FALSE(health.anyFault());
    }
    EXPECT_EQ(solver.stats().hw_windows, 3u);
}

TEST(HwWindowSolver, RecoveredDmaRetryStaysOnHardware)
{
    Rng rng(2);
    TestWindow w = makeWindow(4, 25, rng);
    slam::WindowProblem problem(w.camera, w.keyframes, w.features,
                                w.preints, w.prior, 1.0);

    // Window 0: one failing DMA attempt, then success.
    HwWindowSolver solver(kBuilt, HostLink{},
                          FaultPlan(3, {{0, FaultKind::DmaTimeout, 1,
                                         0.0}}));
    slam::HealthReport health;
    const auto report =
        solver.solveWindow(problem, slam::LmOptions{}, health);
    EXPECT_TRUE(report.healthy());
    EXPECT_TRUE(health.dma_degraded);
    EXPECT_FALSE(health.hw_fallback);
    EXPECT_EQ(solver.stats().retried_windows, 1u);
    EXPECT_EQ(solver.stats().hw_windows, 1u);
    // The window's transaction is readable after the solve.
    const HostTransaction &txn = solver.lastTransaction();
    EXPECT_EQ(txn.status, TransactionStatus::RecoveredAfterRetry);
    EXPECT_EQ(txn.attempts, 2u);
    EXPECT_EQ(txn.total_seconds, solver.stats().link_seconds);
}

TEST(HwWindowSolver, ExhaustedRetryBudgetFallsBackToSoftware)
{
    Rng rng(3);
    TestWindow w = makeWindow(4, 25, rng);
    slam::WindowProblem problem(w.camera, w.keyframes, w.features,
                                w.preints, w.prior, 1.0);
    const double before = problem.evaluateCost();

    const HostLink link;
    HwWindowSolver solver(
        kBuilt, link,
        FaultPlan(3, {{0, FaultKind::DmaTimeout, link.max_retries + 1,
                       0.0}}));
    slam::HealthReport health;
    const auto report =
        solver.solveWindow(problem, slam::LmOptions{}, health);
    // The software path still delivers a valid solve.
    EXPECT_TRUE(report.healthy());
    EXPECT_LT(report.final_cost, before);
    EXPECT_TRUE(health.hw_fallback);
    EXPECT_TRUE(health.degraded);
    EXPECT_EQ(health.action, slam::RecoveryAction::SoftwareFallback);
    EXPECT_EQ(solver.stats().fallback_windows, 1u);
    EXPECT_EQ(solver.stats().hw_windows, 0u);
}

TEST(HwWindowSolver, BitFlipIsAbsorbedByStepRejection)
{
    Rng rng(4);
    TestWindow w = makeWindow(4, 25, rng);
    slam::WindowProblem problem(w.camera, w.keyframes, w.features,
                                w.preints, w.prior, 1.0);
    const double before = problem.evaluateCost();

    HwWindowSolver solver(kBuilt, HostLink{},
                          FaultPlan(5, {{0, FaultKind::BitFlip, 2,
                                         0.0}}));
    slam::HealthReport health;
    slam::LmOptions opt;
    const auto report = solver.solveWindow(problem, opt, health);
    // The corrupted first step either raises the trial cost (rejected by
    // LM) or goes non-finite (rejected by the finiteness guard); later
    // clean iterations still reduce the cost.
    EXPECT_EQ(solver.stats().bit_flips_injected, 2u);
    EXPECT_LT(report.final_cost, before);
    EXPECT_TRUE(std::isfinite(report.final_cost));
    EXPECT_TRUE(report.healthy());
}

TEST(HwWindowSolver, WindowsAreNumberedInCallOrder)
{
    Rng rng(5);
    // Fault scheduled at window 1: the second call must hit it.
    const HostLink link;
    HwWindowSolver solver(
        kBuilt, link,
        FaultPlan(3, {{1, FaultKind::DmaTimeout, link.max_retries + 1,
                       0.0}}));
    for (int i = 0; i < 3; ++i) {
        TestWindow w = makeWindow(4, 20, rng);
        slam::WindowProblem problem(w.camera, w.keyframes, w.features,
                                    w.preints, w.prior, 1.0);
        slam::HealthReport health;
        std::ignore =
            solver.solveWindow(problem, slam::LmOptions{}, health);
        EXPECT_EQ(health.hw_fallback, i == 1);
        EXPECT_EQ(solver.lastTransaction().ok(), i != 1);
        // The (nd, nm, s) triple rides only the first window.
        EXPECT_EQ(solver.lastTransaction().config_words, i == 0 ? 3u : 0u);
    }
    EXPECT_EQ(solver.stats().windows, 3u);
    EXPECT_EQ(solver.stats().hw_windows, 2u);
    EXPECT_EQ(solver.stats().fallback_windows, 1u);
}

} // namespace
} // namespace archytas::hw
