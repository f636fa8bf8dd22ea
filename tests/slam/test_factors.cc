#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "slam/factors.hh"

namespace archytas::slam {
namespace {

Vec3
randomVec(Rng &rng, double scale)
{
    return {rng.uniform(-scale, scale), rng.uniform(-scale, scale),
            rng.uniform(-scale, scale)};
}

Pose
randomPose(Rng &rng)
{
    return Pose(Quaternion::fromAxisAngle(randomVec(rng, 0.5)),
                randomVec(rng, 3.0));
}

KeyframeState
randomState(Rng &rng)
{
    KeyframeState s;
    s.pose = randomPose(rng);
    s.velocity = randomVec(rng, 2.0);
    s.bias_gyro = randomVec(rng, 0.01);
    s.bias_accel = randomVec(rng, 0.05);
    return s;
}

/** A scene where the reprojection residual is exactly zero. */
struct PerfectScene
{
    PinholeCamera camera;
    Pose anchor, target;
    Vec3 bearing;
    double inv_depth;
    Vec2 measurement;
};

PerfectScene
makePerfectScene(Rng &rng)
{
    PerfectScene sc;
    sc.anchor = randomPose(rng);
    // Target nearby, looking roughly the same way.
    sc.target = sc.anchor;
    sc.target.p += randomVec(rng, 0.5);
    sc.target.q = (sc.target.q *
                   Quaternion::fromAxisAngle(randomVec(rng, 0.05)))
                      .normalized();
    sc.bearing = Vec3{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), 1.0};
    sc.inv_depth = 1.0 / rng.uniform(4.0, 20.0);
    const Vec3 p_world =
        sc.anchor.transform(sc.bearing * (1.0 / sc.inv_depth));
    sc.measurement =
        sc.camera.projectUnchecked(sc.target.inverseTransform(p_world));
    return sc;
}

TEST(VisualFactor, ZeroResidualAtPerfectGeometry)
{
    Rng rng(1);
    const PerfectScene sc = makePerfectScene(rng);
    const auto ev = evaluateVisualFactor(sc.camera, sc.anchor, sc.target,
                                         sc.bearing, sc.inv_depth,
                                         sc.measurement);
    ASSERT_TRUE(ev.valid);
    EXPECT_NEAR(ev.residual.norm(), 0.0, 1e-9);
}

TEST(VisualFactor, InvalidForNonPositiveDepth)
{
    PinholeCamera cam;
    const auto ev = evaluateVisualFactor(cam, Pose{}, Pose{},
                                         Vec3{0, 0, 1}, -0.5, Vec2{});
    EXPECT_FALSE(ev.valid);
}

TEST(VisualFactor, ResidualOnlyMatchesFullEvaluation)
{
    Rng rng(21);
    struct Case
    {
        PerfectScene sc;
        bool valid;
        const char *what;
    };
    std::vector<Case> cases;
    for (int trial = 0; trial < 8; ++trial) {
        PerfectScene sc = makePerfectScene(rng);
        sc.measurement.u += rng.uniform(-3.0, 3.0);
        sc.measurement.v += rng.uniform(-3.0, 3.0);
        cases.push_back({sc, true, "in front of both cameras"});
    }
    {
        // The target camera turned around: the point lies behind it.
        PerfectScene sc = makePerfectScene(rng);
        sc.target.q = (sc.target.q *
                       Quaternion::fromAxisAngle(Vec3{0.0, M_PI, 0.0}))
                          .normalized();
        cases.push_back({sc, false, "behind the target camera"});
    }
    for (const double inv_depth : {1e-6, 0.0, -0.2}) {
        PerfectScene sc = makePerfectScene(rng);
        sc.inv_depth = inv_depth;
        cases.push_back({sc, false, "inverse depth <= 1e-6"});
    }

    VisualFactorEval full;
    for (const Case &c : cases) {
        const PerfectScene &sc = c.sc;
        const FeatureAnchor fa =
            featureAnchor(sc.anchor, sc.bearing, sc.inv_depth);
        const KeyframeRotation target_rot = keyframeRotation(sc.target);
        evaluateVisualFactorInto(
            full, sc.camera, fa, sc.target, target_rot,
            target_rot.r_t * keyframeRotation(sc.anchor).r, sc.measurement);
        ASSERT_EQ(full.valid, c.valid) << c.what;
        Vec2 res;
        const bool valid = evaluateVisualResidual(res, sc.camera, fa,
                                                  sc.target, sc.measurement);
        ASSERT_EQ(valid, c.valid) << c.what;
        if (!valid)
            continue;
        EXPECT_EQ(res.u, full.residual.u) << c.what;
        EXPECT_EQ(res.v, full.residual.v) << c.what;
    }
}

TEST(VisualFactor, JacobiansMatchNumeric)
{
    Rng rng(2);
    for (int trial = 0; trial < 10; ++trial) {
        PerfectScene sc = makePerfectScene(rng);
        // Offset the measurement so the residual is non-zero.
        sc.measurement.u += 2.0;
        sc.measurement.v -= 1.0;
        const auto ev = evaluateVisualFactor(sc.camera, sc.anchor,
                                             sc.target, sc.bearing,
                                             sc.inv_depth, sc.measurement);
        ASSERT_TRUE(ev.valid);

        const double h = 1e-7;
        // Anchor pose tangent.
        for (int axis = 0; axis < 6; ++axis) {
            Pose ap = sc.anchor, am = sc.anchor;
            Vec3 dth{}, dp{};
            if (axis < 3)
                dth[axis] = h;
            else
                dp[axis - 3] = h;
            ap.applyTangent(dth, dp);
            am.applyTangent(-dth, -dp);
            const auto evp = evaluateVisualFactor(
                sc.camera, ap, sc.target, sc.bearing, sc.inv_depth,
                sc.measurement);
            const auto evm = evaluateVisualFactor(
                sc.camera, am, sc.target, sc.bearing, sc.inv_depth,
                sc.measurement);
            EXPECT_NEAR(ev.j_anchor(0, axis),
                        (evp.residual.u - evm.residual.u) / (2 * h), 1e-3);
            EXPECT_NEAR(ev.j_anchor(1, axis),
                        (evp.residual.v - evm.residual.v) / (2 * h), 1e-3);
        }
        // Target pose tangent.
        for (int axis = 0; axis < 6; ++axis) {
            Pose tp = sc.target, tm = sc.target;
            Vec3 dth{}, dp{};
            if (axis < 3)
                dth[axis] = h;
            else
                dp[axis - 3] = h;
            tp.applyTangent(dth, dp);
            tm.applyTangent(-dth, -dp);
            const auto evp = evaluateVisualFactor(
                sc.camera, sc.anchor, tp, sc.bearing, sc.inv_depth,
                sc.measurement);
            const auto evm = evaluateVisualFactor(
                sc.camera, sc.anchor, tm, sc.bearing, sc.inv_depth,
                sc.measurement);
            EXPECT_NEAR(ev.j_target(0, axis),
                        (evp.residual.u - evm.residual.u) / (2 * h), 1e-3);
            EXPECT_NEAR(ev.j_target(1, axis),
                        (evp.residual.v - evm.residual.v) / (2 * h), 1e-3);
        }
        // Inverse depth.
        {
            const auto evp = evaluateVisualFactor(
                sc.camera, sc.anchor, sc.target, sc.bearing,
                sc.inv_depth + h, sc.measurement);
            const auto evm = evaluateVisualFactor(
                sc.camera, sc.anchor, sc.target, sc.bearing,
                sc.inv_depth - h, sc.measurement);
            EXPECT_NEAR(ev.j_depth(0, 0),
                        (evp.residual.u - evm.residual.u) / (2 * h), 1e-3);
            EXPECT_NEAR(ev.j_depth(1, 0),
                        (evp.residual.v - evm.residual.v) / (2 * h), 1e-3);
        }
    }
}

/** Builds a pair of consistent states and the IMU stream between them. */
struct ImuScenePair
{
    KeyframeState si, sj;
    std::shared_ptr<ImuPreintegration> preint;
};

ImuScenePair
makeConsistentImuPair(Rng &rng)
{
    ImuScenePair sc;
    sc.si = randomState(rng);
    sc.si.bias_gyro = Vec3{};
    sc.si.bias_accel = Vec3{};

    sc.preint = std::make_shared<ImuPreintegration>(Vec3{}, Vec3{},
                                                    ImuNoise{});
    const Vec3 g = gravityVector();
    const double dt = 0.005;
    const int n = 60;

    Mat3 r = sc.si.pose.q.toRotationMatrix();
    Vec3 v = sc.si.velocity;
    Vec3 p = sc.si.pose.p;
    const Vec3 w_body = randomVec(rng, 0.4);
    const Vec3 a_world = randomVec(rng, 1.0);

    for (int i = 0; i < n; ++i) {
        const Vec3 f = r.transposed() * (a_world - g);
        sc.preint->integrate({dt, w_body, f});
        p += v * dt + a_world * (0.5 * dt * dt);
        v += a_world * dt;
        r = r * so3Exp(w_body * dt);
    }

    sc.sj.pose.q = Quaternion::fromRotationMatrix(r);
    sc.sj.pose.p = p;
    sc.sj.velocity = v;
    sc.sj.bias_gyro = Vec3{};
    sc.sj.bias_accel = Vec3{};
    return sc;
}

TEST(ImuFactor, NearZeroResidualOnConsistentStates)
{
    Rng rng(3);
    const ImuScenePair sc = makeConsistentImuPair(rng);
    const auto ev = evaluateImuFactor(*sc.preint, sc.si, sc.sj);
    // Discretization error only.
    EXPECT_LT(ev.residual.norm(), 5e-3);
}

TEST(ImuFactor, JacobiansMatchNumeric)
{
    Rng rng(4);
    ImuScenePair sc = makeConsistentImuPair(rng);
    // Perturb state j so residuals are non-trivial.
    sc.sj.pose.p += Vec3{0.05, -0.02, 0.03};
    sc.sj.velocity += Vec3{0.1, 0.05, -0.08};
    sc.si.bias_gyro = Vec3{0.002, -0.001, 0.0015};
    sc.si.bias_accel = Vec3{0.01, 0.02, -0.01};

    const auto ev = evaluateImuFactor(*sc.preint, sc.si, sc.sj);
    const double h = 1e-6;

    auto perturb = [](const KeyframeState &s, int axis,
                      double eps) -> KeyframeState {
        KeyframeState out = s;
        linalg::Vector d(kKeyframeDof);
        d[axis] = eps;
        out.applyDelta(d, 0);
        return out;
    };

    for (int axis = 0; axis < 15; ++axis) {
        // State i.
        const auto evp =
            evaluateImuFactor(*sc.preint, perturb(sc.si, axis, h), sc.sj);
        const auto evm =
            evaluateImuFactor(*sc.preint, perturb(sc.si, axis, -h), sc.sj);
        for (int r = 0; r < 15; ++r) {
            const double num =
                (evp.residual[r] - evm.residual[r]) / (2 * h);
            EXPECT_NEAR(ev.j_i(r, axis), num, 5e-3)
                << "state i, residual " << r << ", axis " << axis;
        }
        // State j.
        const auto evp2 =
            evaluateImuFactor(*sc.preint, sc.si, perturb(sc.sj, axis, h));
        const auto evm2 =
            evaluateImuFactor(*sc.preint, sc.si, perturb(sc.sj, axis, -h));
        for (int r = 0; r < 15; ++r) {
            const double num =
                (evp2.residual[r] - evm2.residual[r]) / (2 * h);
            EXPECT_NEAR(ev.j_j(r, axis), num, 5e-3)
                << "state j, residual " << r << ", axis " << axis;
        }
    }
}

TEST(ImuFactor, ResidualOnlyMatchesFullEvaluation)
{
    Rng rng(6);
    ImuScenePair sc = makeConsistentImuPair(rng);
    sc.sj.pose.p += Vec3{0.05, -0.02, 0.03};
    sc.si.bias_gyro = Vec3{0.002, -0.001, 0.0015};
    sc.si.bias_accel = Vec3{0.01, 0.02, -0.01};

    const ImuFactorEval full = evaluateImuFactor(*sc.preint, sc.si, sc.sj);
    const ImuResidual r = evaluateImuResidual(*sc.preint, sc.si, sc.sj);
    for (std::size_t i = 0; i < kKeyframeDof; ++i)
        EXPECT_EQ(r[i], full.residual[i]) << "residual " << i;

    // A reused eval overwrites every entry: evaluating other states
    // into it matches a fresh evaluation bit for bit.
    ImuFactorEval reused = full;
    const ImuScenePair other = makeConsistentImuPair(rng);
    evaluateImuFactorInto(reused, *other.preint, other.si, other.sj);
    const ImuFactorEval fresh =
        evaluateImuFactor(*other.preint, other.si, other.sj);
    EXPECT_EQ(reused.residual.data(), fresh.residual.data());
    EXPECT_EQ(reused.j_i.data(), fresh.j_i.data());
    EXPECT_EQ(reused.j_j.data(), fresh.j_j.data());
}

TEST(ImuFactor, InformationIsSymmetricPositive)
{
    Rng rng(5);
    const ImuScenePair sc = makeConsistentImuPair(rng);
    const linalg::Matrix &information = sc.preint->information();
    EXPECT_TRUE(information.isSymmetric(1e-4));
    for (int i = 0; i < 15; ++i)
        EXPECT_GT(information(i, i), 0.0);
}

} // namespace
} // namespace archytas::slam
