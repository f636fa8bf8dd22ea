#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.hh"
#include "linalg/cholesky.hh"
#include "linalg/schur.hh"
#include "linalg/simd.hh"
#include "slam/lm_solver.hh"
#include "slam/window_problem.hh"

namespace archytas::slam {
namespace {

/**
 * Builds a small synthetic window: a camera translating along +x of its
 * own frame convention, landmarks in front, perfect or noisy pixels, a
 * consistent IMU stream between keyframes.
 */
struct TestWindow
{
    PinholeCamera camera;
    std::vector<KeyframeState> keyframes;
    std::vector<Feature> features;
    std::vector<std::shared_ptr<ImuPreintegration>> preints;
    PriorFactor prior;
    std::vector<Vec3> landmarks;
};

TestWindow
makeWindow(std::size_t n_keyframes, std::size_t n_landmarks,
           double pixel_noise, Rng &rng)
{
    TestWindow w;
    const Vec3 g = gravityVector();
    const double frame_dt = 0.1;
    const double imu_dt = 0.0005;   // Fine steps: keep discretization error negligible.

    // Accelerating motion along world x while rolling about the optical
    // axis (camera +z). Acceleration makes monocular scale observable;
    // rotation makes the accelerometer bias observable -- without both,
    // the window has extra degenerate freedom beyond the rigid gauge.
    const Vec3 v0{1.0, 0.0, 0.0};
    const Vec3 accel{2.0, 0.0, 0.0};
    const double roll_rate = 0.6;   // rad/s about camera z (world x).
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

    // IMU between consecutive keyframes: constant body rotation rate and
    // constant world acceleration.
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

    // Landmarks ahead of the camera.
    for (std::size_t l = 0; l < n_landmarks; ++l) {
        w.landmarks.push_back({rng.uniform(-3.0, 3.0),
                               rng.uniform(-2.0, 2.0),
                               rng.uniform(6.0, 18.0)});
    }

    // Features: anchored at keyframe 0, observed everywhere visible.
    for (std::size_t l = 0; l < n_landmarks; ++l) {
        Feature f;
        f.track_id = l;
        f.anchor_index = 0;
        const Vec3 pc0 = w.keyframes[0].pose.inverseTransform(
            w.landmarks[l]);
        f.anchor_bearing = Vec3{pc0.x / pc0.z, pc0.y / pc0.z, 1.0};
        f.inverse_depth = 1.0 / pc0.z;
        f.depth_initialized = true;
        for (std::size_t i = 0; i < n_keyframes; ++i) {
            const Vec3 pc =
                w.keyframes[i].pose.inverseTransform(w.landmarks[l]);
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

/** W as a dense 15 K x m matrix, scattered from eq's pose-row segments. */
linalg::Matrix
denseW(const NormalEquations &eq)
{
    const std::size_t m = eq.u_diag.size();
    linalg::Matrix w(eq.v.rows(), m);
    for (std::size_t f = 0; f < m; ++f)
        for (std::size_t s = eq.support_offsets[f];
             s < eq.support_offsets[f + 1]; ++s)
            for (std::size_t r = 0; r < kPoseDof; ++r)
                w(eq.support_blocks[s] * kKeyframeDof + r, f) =
                    eq.w_blocks[s * kPoseDof + r];
    return w;
}

/**
 * Solves the full damped system [U, W^T; W, V] [dx; dy] = [bx; by]
 * directly, with the damping formReducedSystem applies; returns
 * [dx; dy].
 */
linalg::Vector
denseDirectSolve(const NormalEquations &eq, double lambda)
{
    const std::size_t m = eq.u_diag.size();
    const std::size_t nk = eq.v.rows();
    const linalg::Matrix w = denseW(eq);
    linalg::Matrix full(m + nk, m + nk);
    for (std::size_t f = 0; f < m; ++f)
        full(f, f) = eq.u_diag[f] * (1.0 + lambda) + 1e-12;
    for (std::size_t r = 0; r < nk; ++r)
        for (std::size_t f = 0; f < m; ++f) {
            full(m + r, f) = w(r, f);
            full(f, m + r) = w(r, f);
        }
    for (std::size_t r = 0; r < nk; ++r)
        for (std::size_t c = 0; c < nk; ++c)
            full(m + r, m + c) = eq.v(r, c);
    for (std::size_t r = 0; r < nk; ++r)
        full(m + r, m + r) += lambda * eq.v(r, r) + 1e-12;

    linalg::Vector b(m + nk);
    for (std::size_t f = 0; f < m; ++f)
        b[f] = eq.bx[f];
    for (std::size_t r = 0; r < nk; ++r)
        b[m + r] = eq.by[r];
    return linalg::choleskySolve(full, b);
}

double
maxAbs(const std::vector<double> &x)
{
    double mx = 0.0;
    for (const double v : x)
        mx = std::max(mx, std::abs(v));
    return mx;
}

TEST(WindowProblem, ZeroCostAtPerfectStates)
{
    Rng rng(1);
    TestWindow w = makeWindow(4, 20, 0.0, rng);
    WindowProblem problem(w.camera, w.keyframes, w.features, w.preints,
                          w.prior, 1.0);
    // Visual residuals are exactly zero; IMU residuals only carry
    // discretization error.
    EXPECT_LT(problem.evaluateCost(), 1e-2);
}

TEST(WindowProblem, NormalEquationsDimensions)
{
    Rng rng(2);
    TestWindow w = makeWindow(5, 12, 0.5, rng);
    WindowProblem problem(w.camera, w.keyframes, w.features, w.preints,
                          w.prior, 1.0);
    const NormalEquations eq = problem.build();
    EXPECT_EQ(eq.u_diag.size(), 12u);
    EXPECT_EQ(eq.support_offsets.size(), 13u);
    EXPECT_TRUE(eq.hasSupport());
    EXPECT_EQ(eq.v.rows(), 5u * kKeyframeDof);
    EXPECT_EQ(eq.by.size(), 5u * kKeyframeDof);
    // IMU information weights reach ~1e8, so symmetry holds to a
    // magnitude-relative tolerance.
    double vmax = 0.0;
    for (double x : eq.v.data())
        vmax = std::max(vmax, std::abs(x));
    EXPECT_TRUE(eq.v.isSymmetric(1e-10 * vmax));
    EXPECT_GT(eq.cost, 0.0);
}

TEST(WindowProblem, CameraContributionHasPoseOnlyPattern)
{
    Rng rng(3);
    TestWindow w = makeWindow(4, 15, 0.5, rng);
    WindowProblem problem(w.camera, w.keyframes, w.features, w.preints,
                          w.prior, 1.0);
    const NormalEquations eq = problem.build();
    // v_camera must be zero outside the leading 6x6 of each 15x15 block.
    for (std::size_t bi = 0; bi < 4; ++bi)
        for (std::size_t bj = 0; bj < 4; ++bj)
            for (std::size_t r = 0; r < kKeyframeDof; ++r)
                for (std::size_t c = 0; c < kKeyframeDof; ++c) {
                    if (r < 6 && c < 6)
                        continue;
                    EXPECT_EQ(eq.v_camera(bi * 15 + r, bj * 15 + c), 0.0);
                }
}

/**
 * Builds a window of n_keyframes and n_landmarks and checks that every
 * visual term reaches the normal equations, and both costs, in feature
 * and observation order.
 */
void
expectVisualTermsSummedInOrder(std::size_t n_keyframes,
                               std::size_t n_landmarks, std::uint64_t seed)
{
    Rng rng(seed);
    TestWindow w = makeWindow(n_keyframes, n_landmarks, 0.5, rng);
    // Re-anchor some features later in the window so the support spans
    // blocks other than keyframe 0.
    for (std::size_t f = 0; f < w.features.size(); f += 3)
        w.features[f].anchor_index = 2;
    const double sigma = 2.0;
    // Null preintegrations and no prior: V, by and the cost then hold
    // the visual factors alone, each element summing its terms in
    // feature and observation order.
    const std::vector<std::shared_ptr<ImuPreintegration>> no_imu(
        w.keyframes.size() - 1);
    ASSERT_TRUE(w.prior.empty());
    WindowProblem problem(w.camera, w.keyframes, w.features, no_imu,
                          w.prior, sigma);
    NormalEquations eq;
    AssemblyScratch scratch;
    problem.build(eq, scratch, BuildMode::kSolve);
    ASSERT_TRUE(eq.hasSupport());

    // Reference, recomputed from the factor Jacobians with the level-1
    // primitives: feature f's support is its anchor plus its observed
    // keyframes, and each informative observation, in feature and
    // observation order, adds
    //  - 0.5 wt |r|^2 to the cost, wt |j_depth|^2 to u_diag[f] and
    //    -wt j_depth^T r to bx[f];
    //  - wt J_pose^T j_depth to its anchor's and its target's W segment,
    //    entry by entry;
    //  - wt J_p^T J_q to V's four pose blocks, one axpy per residual row
    //    and block row, and -wt J_p^T r to by, one axpy per residual row.
    const linalg::simd::Ops &ops = linalg::simd::ops();
    const double wt = 1.0 / (sigma * sigma);
    const std::size_t nk = problem.keyframeDim();
    linalg::Matrix v_ref(nk, nk);
    std::vector<double> by_ref(nk, 0.0);
    double cost_ref = 0.0;
    for (std::size_t f = 0; f < w.features.size(); ++f) {
        const Feature &feat = w.features[f];
        std::vector<std::uint32_t> support{
            static_cast<std::uint32_t>(feat.anchor_index)};
        for (const auto &obs : feat.observations)
            support.push_back(
                static_cast<std::uint32_t>(obs.keyframe_index));
        std::sort(support.begin(), support.end());
        support.erase(std::unique(support.begin(), support.end()),
                      support.end());
        const std::size_t s0 = eq.support_offsets[f];
        ASSERT_EQ(std::vector<std::uint32_t>(
                      eq.support_blocks.begin() + s0,
                      eq.support_blocks.begin() + eq.support_offsets[f + 1]),
                  support)
            << "feature " << f;

        std::vector<double> expect(support.size() * kPoseDof, 0.0);
        const auto segment = [&](std::size_t blk) {
            const auto it =
                std::find(support.begin(), support.end(), blk);
            return expect.data() + (it - support.begin()) * kPoseDof;
        };
        double u_ref = 0.0;
        double bx_ref = 0.0;
        for (const auto &obs : feat.observations) {
            if (obs.keyframe_index == feat.anchor_index)
                continue;
            const VisualFactorEval ev = evaluateVisualFactor(
                w.camera, w.keyframes[feat.anchor_index].pose,
                w.keyframes[obs.keyframe_index].pose, feat.anchor_bearing,
                feat.inverse_depth, obs.pixel);
            if (!ev.valid)
                continue;
            const double res[2] = {ev.residual.u, ev.residual.v};
            const double jd0 = ev.j_depth(0, 0);
            const double jd1 = ev.j_depth(1, 0);
            cost_ref += 0.5 * wt * (res[0] * res[0] + res[1] * res[1]);
            u_ref += wt * (jd0 * jd0 + jd1 * jd1);
            bx_ref -= wt * (jd0 * res[0] + jd1 * res[1]);

            const FixedMatrix<2, 6> *jac[2] = {&ev.j_anchor, &ev.j_target};
            const std::size_t blk[2] = {feat.anchor_index,
                                        obs.keyframe_index};
            for (std::size_t p = 0; p < 2; ++p) {
                double *seg = segment(blk[p]);
                for (std::size_t i = 0; i < kPoseDof; ++i) {
                    double acc = 0.0;
                    for (std::size_t k = 0; k < 2; ++k)
                        acc += (*jac[p])(k, i) * ev.j_depth(k, 0);
                    seg[i] += wt * acc;
                }
            }
            for (std::size_t p = 0; p < 2; ++p)
                for (std::size_t q = 0; q < 2; ++q)
                    for (std::size_t k = 0; k < 2; ++k)
                        for (std::size_t i = 0; i < kPoseDof; ++i)
                            ops.axpy(v_ref.rowPtr(blk[p] * kKeyframeDof + i) +
                                         blk[q] * kKeyframeDof,
                                     wt * (*jac[p])(k, i), jac[q]->row(k),
                                     kPoseDof);
            for (std::size_t p = 0; p < 2; ++p)
                for (std::size_t k = 0; k < 2; ++k)
                    ops.axpy(by_ref.data() + blk[p] * kKeyframeDof,
                             -(wt * res[k]), jac[p]->row(k), kPoseDof);
        }
        EXPECT_EQ(eq.u_diag[f], u_ref) << "feature " << f;
        EXPECT_EQ(eq.bx[f], bx_ref) << "feature " << f;
        for (std::size_t t = 0; t < expect.size(); ++t)
            EXPECT_EQ(eq.w_blocks[s0 * kPoseDof + t], expect[t])
                << "feature " << f << " block "
                << support[t / kPoseDof] << " row " << t % kPoseDof;
    }
    for (std::size_t r = 0; r < nk; ++r) {
        for (std::size_t c = 0; c < nk; ++c)
            EXPECT_EQ(eq.v(r, c), v_ref(r, c)) << "V(" << r << ", " << c
                                               << ")";
        EXPECT_EQ(eq.by[r], by_ref[r]) << "by[" << r << "]";
    }
    EXPECT_EQ(eq.cost, cost_ref);
    EXPECT_EQ(problem.evaluateCost(), cost_ref);
}

TEST(WindowProblem, SupportSegmentsSumEachObservationInOrder)
{
    {
        SCOPED_TRACE("5 keyframes, 25 features");
        expectVisualTermsSummedInOrder(5, 25, 31);
    }
    {
        // About a solo window's size: an assembly that summed feature
        // chunks separately and then merged them would round
        // differently here.
        SCOPED_TRACE("11 keyframes, 150 features");
        expectVisualTermsSummedInOrder(11, 150, 32);
    }
}

TEST(WindowProblem, FullySupportedWindowMatchesDenseElimination)
{
    // Every feature observes every keyframe: support fill 1.0, the
    // densest window the segment walk has to eliminate.
    Rng rng(9);
    TestWindow w = makeWindow(3, 20, 0.4, rng);
    WindowProblem problem(w.camera, w.keyframes, w.features, w.preints,
                          w.prior, 1.0);
    NormalEquations eq;
    AssemblyScratch scratch;
    problem.build(eq, scratch, BuildMode::kSolve);
    const std::size_t m = eq.u_diag.size();
    const std::size_t nk = eq.v.rows();
    ASSERT_TRUE(eq.hasSupport());
    ASSERT_EQ(eq.support_blocks.size(), m * problem.keyframeCount());

    // Reference: the dense D-type Schur on the scattered W, with the
    // damping formReducedSystem applies.
    const double lambda = 1e-4;
    ReducedSystem rs;
    formReducedSystem(eq, lambda, rs);
    linalg::Matrix u(m, m);
    for (std::size_t f = 0; f < m; ++f)
        u(f, f) = eq.u_diag[f] * (1.0 + lambda) + 1e-12;
    linalg::Matrix v = eq.v;
    for (std::size_t i = 0; i < nk; ++i)
        v(i, i) += lambda * eq.v(i, i) + 1e-12;
    const linalg::DSchurResult ref =
        linalg::dSchur(u, denseW(eq), v, eq.bx, eq.by);

    const double rscale = maxAbs(ref.reduced.data());
    for (std::size_t r = 0; r < nk; ++r)
        for (std::size_t c = 0; c < nk; ++c)
            EXPECT_NEAR(rs.reduced(r, c), ref.reduced(r, c), 1e-12 * rscale)
                << "reduced(" << r << ", " << c << ")";
    const double bscale = maxAbs(ref.reducedRhs.data());
    for (std::size_t r = 0; r < nk; ++r)
        EXPECT_NEAR(rs.rhs[r], ref.reducedRhs[r], 1e-12 * bscale)
            << "rhs[" << r << "]";

    linalg::Vector dy, dx;
    SolverScratch solver;
    ASSERT_TRUE(solveBlockedSystem(eq, lambda, dy, dx, solver));
    const linalg::Vector direct = denseDirectSolve(eq, lambda);
    const double xscale = maxAbs(direct.data());
    for (std::size_t f = 0; f < m; ++f)
        EXPECT_NEAR(dx[f], direct[f], 1e-10 * xscale) << "dx[" << f << "]";
    for (std::size_t r = 0; r < nk; ++r)
        EXPECT_NEAR(dy[r], direct[m + r], 1e-10 * xscale)
            << "dy[" << r << "]";
}

TEST(WindowProblem, ImuContributionIsBlockTridiagonal)
{
    Rng rng(4);
    TestWindow w = makeWindow(5, 10, 0.5, rng);
    WindowProblem problem(w.camera, w.keyframes, w.features, w.preints,
                          w.prior, 1.0);
    const NormalEquations eq = problem.build();
    for (std::size_t bi = 0; bi < 5; ++bi)
        for (std::size_t bj = 0; bj < 5; ++bj) {
            if (bi == bj || bi + 1 == bj || bj + 1 == bi)
                continue;
            for (std::size_t r = 0; r < kKeyframeDof; ++r)
                for (std::size_t c = 0; c < kKeyframeDof; ++c)
                    EXPECT_EQ(eq.v_imu(bi * 15 + r, bj * 15 + c), 0.0);
        }
}

TEST(WindowProblem, SolveReducesCostOnPerturbedStates)
{
    Rng rng(5);
    TestWindow w = makeWindow(5, 30, 0.2, rng);
    // Perturb every non-anchor keyframe.
    for (std::size_t i = 1; i < w.keyframes.size(); ++i) {
        w.keyframes[i].pose.p += Vec3{rng.uniform(-0.05, 0.05),
                                      rng.uniform(-0.05, 0.05),
                                      rng.uniform(-0.05, 0.05)};
    }
    WindowProblem problem(w.camera, w.keyframes, w.features, w.preints,
                          w.prior, 1.0);
    const double before = problem.evaluateCost();
    LmOptions opt;
    SolverScratch scratch;
    const LmReport report = solveWindow(problem, opt, {}, scratch);
    EXPECT_LT(report.final_cost, before);
    EXPECT_GE(report.iterations, 1u);
}

TEST(WindowProblem, SolveRecoversPerturbedPose)
{
    Rng rng(6);
    TestWindow w = makeWindow(5, 40, 0.0, rng);
    // The window has a gauge freedom (global rigid transform), so compare
    // the relative geometry expressed in keyframe 0's body frame, which
    // is invariant to the gauge.
    auto rel_in_kf0 = [&]() {
        return w.keyframes[0].pose.inverseTransform(w.keyframes[3].pose.p);
    };
    const Vec3 true_rel = rel_in_kf0();
    w.keyframes[3].pose.p += Vec3{0.04, -0.03, 0.02};
    WindowProblem problem(w.camera, w.keyframes, w.features, w.preints,
                          w.prior, 1.0);
    LmOptions opt;
    opt.max_iterations = 20;
    SolverScratch scratch;
    const LmReport report = solveWindow(problem, opt, {}, scratch);
    // A short window with modest rotation retains a near-flat
    // scale/accel-bias direction (a classic VIO observability limit), so
    // exact metric recovery is not attainable; require that the optimizer
    // reaches a (near-)exact fit and lands well inside the injected 5 cm
    // perturbation.
    EXPECT_LT(report.final_cost, 1e-6);
    EXPECT_LT((rel_in_kf0() - true_rel).norm(), 0.02);
}

TEST(WindowProblem, SnapshotRestoreRoundTrip)
{
    Rng rng(7);
    TestWindow w = makeWindow(4, 10, 0.5, rng);
    WindowProblem problem(w.camera, w.keyframes, w.features, w.preints,
                          w.prior, 1.0);
    const auto snap = problem.snapshot();
    const double cost0 = problem.evaluateCost();
    linalg::Vector dy(problem.keyframeDim());
    dy[3] = 0.5;
    linalg::Vector dx(problem.featureCount());
    problem.applyDelta(dy, dx);
    EXPECT_NE(problem.evaluateCost(), cost0);
    problem.restore(snap);
    EXPECT_DOUBLE_EQ(problem.evaluateCost(), cost0);
}

TEST(WindowProblem, BlockedSolveMatchesDenseSolve)
{
    Rng rng(8);
    TestWindow w = makeWindow(4, 12, 0.4, rng);
    WindowProblem problem(w.camera, w.keyframes, w.features, w.preints,
                          w.prior, 1.0);
    const NormalEquations eq = problem.build();

    linalg::Vector dy, dx;
    SolverScratch scratch;
    ASSERT_TRUE(solveBlockedSystem(eq, 1e-4, dy, dx, scratch));

    // The full dense system [U, W^T; W, V] with the same damping, solved
    // directly.
    const std::size_t m = eq.u_diag.size();
    const linalg::Vector direct = denseDirectSolve(eq, 1e-4);
    for (std::size_t f = 0; f < m; ++f)
        EXPECT_NEAR(dx[f], direct[f], 1e-6);
    for (std::size_t r = 0; r < eq.v.rows(); ++r)
        EXPECT_NEAR(dy[r], direct[m + r], 1e-6);
}

TEST(WindowProblem, BlockedSolveRejectsIndefiniteSystem)
{
    // V is negative definite, so no damping makes the reduced system
    // positive definite: the solve must refuse instead of stepping. One
    // keyframe block that both features touch, with a zero W.
    NormalEquations eq;
    eq.u_diag = linalg::Vector(2);
    eq.v = linalg::Matrix(kKeyframeDof, kKeyframeDof);
    for (std::size_t i = 0; i < kKeyframeDof; ++i)
        eq.v(i, i) = -5.0;
    eq.bx = linalg::Vector(2);
    eq.by = linalg::Vector(kKeyframeDof);
    eq.support_offsets = {0, 1, 2};
    eq.support_blocks = {0, 0};
    eq.w_blocks.assign(2 * kPoseDof, 0.0);
    ASSERT_TRUE(eq.hasSupport());
    linalg::Vector dy, dx;
    SolverScratch scratch;
    EXPECT_FALSE(solveBlockedSystem(eq, 1e-4, dy, dx, scratch));
}

TEST(WindowProblem, FeatureRecoveryWithoutSupportDies)
{
    // The elimination and the recovery walk only W's support segments,
    // so a hand-assembled system without them must fail loudly at both
    // entry points instead of reading support_offsets out of range.
    NormalEquations eq;
    eq.u_diag = linalg::Vector(2);
    eq.v = linalg::Matrix(3, 3);
    eq.bx = linalg::Vector(2);
    eq.by = linalg::Vector(3);
    ReducedSystem rs;
    EXPECT_DEATH(formReducedSystem(eq, 1e-4, rs), "support structure");
    rs.u.assign(2, 1.0);
    linalg::Vector dx;
    EXPECT_DEATH(recoverFeatureIncrements(dx, eq, rs, linalg::Vector(3)),
                 "support structure");
}

} // namespace
} // namespace archytas::slam
