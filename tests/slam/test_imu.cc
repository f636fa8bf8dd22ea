#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "linalg/cholesky.hh"
#include "slam/factors.hh"
#include "slam/imu.hh"

namespace archytas::slam {
namespace {

TEST(ImuPreintegration, RestingBodyIntegratesNothing)
{
    // A body at rest measures -g as specific force; preintegration with
    // zero gyro and a = -g... here we feed *zero* specific force, which
    // corresponds to free fall: deltaV = 0 only when accel input is zero.
    ImuPreintegration pre({}, {}, ImuNoise{});
    for (int i = 0; i < 100; ++i)
        pre.integrate({0.01, Vec3{}, Vec3{}});
    EXPECT_NEAR(pre.deltaV().norm(), 0.0, 1e-12);
    EXPECT_NEAR(pre.deltaP().norm(), 0.0, 1e-12);
    EXPECT_LT(pre.deltaR().maxAbsDiff(Mat3::identity()), 1e-12);
    EXPECT_NEAR(pre.dt(), 1.0, 1e-12);
}

TEST(ImuPreintegration, ConstantAccelerationKinematics)
{
    ImuPreintegration pre({}, {}, ImuNoise{});
    const Vec3 a{1.0, 0.0, 0.0};
    const double dt = 0.001;
    for (int i = 0; i < 1000; ++i)
        pre.integrate({dt, Vec3{}, a});
    // v = a t, p = a t^2 / 2 over t = 1 s.
    EXPECT_NEAR(pre.deltaV().x, 1.0, 1e-9);
    EXPECT_NEAR(pre.deltaP().x, 0.5, 1e-3);
}

TEST(ImuPreintegration, ConstantRotationRate)
{
    ImuPreintegration pre({}, {}, ImuNoise{});
    const Vec3 w{0.0, 0.0, 0.5};
    for (int i = 0; i < 1000; ++i)
        pre.integrate({0.001, w, Vec3{}});
    const Mat3 expect = so3Exp(w);   // 0.5 rad over 1 s.
    EXPECT_LT(pre.deltaR().maxAbsDiff(expect), 1e-9);
}

TEST(ImuPreintegration, GyroBiasIsSubtracted)
{
    const Vec3 bias{0.1, -0.2, 0.05};
    ImuPreintegration pre(bias, {}, ImuNoise{});
    for (int i = 0; i < 100; ++i)
        pre.integrate({0.01, bias, Vec3{}});
    EXPECT_LT(pre.deltaR().maxAbsDiff(Mat3::identity()), 1e-12);
}

TEST(ImuPreintegration, BiasJacobianPredictsCorrection)
{
    // Compare the first-order bias correction against re-integration
    // with the shifted bias.
    Rng rng(33);
    const Vec3 dbg{1e-4, -2e-4, 1.5e-4};
    const Vec3 dba{2e-4, 1e-4, -1e-4};

    std::vector<ImuSample> samples;
    for (int i = 0; i < 200; ++i) {
        samples.push_back({0.005,
                           Vec3{0.3 * std::sin(i * 0.05), 0.2, -0.1},
                           Vec3{0.5, 9.8, 0.3 * std::cos(i * 0.05)}});
    }

    ImuPreintegration pre({}, {}, ImuNoise{});
    pre.integrateAll(samples);
    ImuPreintegration pre_shift(dbg, dba, ImuNoise{});
    pre_shift.integrateAll(samples);

    const Mat3 corrected_r = pre.correctedDeltaR(dbg);
    const Vec3 corrected_v = pre.correctedDeltaV(dbg, dba);
    const Vec3 corrected_p = pre.correctedDeltaP(dbg, dba);

    EXPECT_LT(corrected_r.maxAbsDiff(pre_shift.deltaR()), 1e-6);
    EXPECT_NEAR((corrected_v - pre_shift.deltaV()).norm(), 0.0, 1e-6);
    EXPECT_NEAR((corrected_p - pre_shift.deltaP()).norm(), 0.0, 1e-6);
}

TEST(ImuPreintegration, CovarianceGrowsWithTime)
{
    ImuNoise noise;
    ImuPreintegration pre({}, {}, noise);
    pre.integrate({0.01, Vec3{0.1, 0, 0}, Vec3{0, 0, 9.8}});
    const double tr1 = pre.covariance()(0, 0) + pre.covariance()(4, 4) +
                       pre.covariance()(8, 8);
    for (int i = 0; i < 99; ++i)
        pre.integrate({0.01, Vec3{0.1, 0, 0}, Vec3{0, 0, 9.8}});
    const double tr2 = pre.covariance()(0, 0) + pre.covariance()(4, 4) +
                       pre.covariance()(8, 8);
    EXPECT_GT(tr2, tr1);
}

TEST(ImuPreintegration, CovarianceIsSymmetricPsd)
{
    ImuPreintegration pre({}, {}, ImuNoise{});
    for (int i = 0; i < 50; ++i)
        pre.integrate({0.005, Vec3{0.2, -0.1, 0.3}, Vec3{1.0, 9.0, 0.5}});
    const auto &cov = pre.covariance();
    EXPECT_TRUE(cov.isSymmetric(1e-15));
    for (int i = 0; i < 9; ++i)
        EXPECT_GE(cov(i, i), 0.0);
}

/** choleskyInverse of the 15x15 residual covariance, assembled here. */
linalg::Matrix
referenceInformation(const ImuPreintegration &pre)
{
    // Residual order [theta, p, v] against covariance() order
    // [theta, v, p]; then the bias random walk; then the regularizer.
    const std::size_t perm[9] = {0, 1, 2, 6, 7, 8, 3, 4, 5};
    linalg::Matrix cov15(15, 15);
    for (std::size_t r = 0; r < 9; ++r)
        for (std::size_t c = 0; c < 9; ++c)
            cov15(r, c) = pre.covariance()(perm[r], perm[c]);
    const linalg::Matrix bias = pre.biasWalkCovariance();
    for (std::size_t r = 0; r < 6; ++r)
        for (std::size_t c = 0; c < 6; ++c)
            cov15(9 + r, 9 + c) = bias(r, c);
    for (std::size_t i = 0; i < 15; ++i)
        cov15(i, i) += 1e-12;
    return linalg::choleskyInverse(cov15);
}

TEST(ImuPreintegration, InformationIsCachedUntilTheNextSample)
{
    ImuPreintegration pre({}, {}, ImuNoise{});
    for (int i = 0; i < 40; ++i)
        pre.integrate({0.005, Vec3{0.2, -0.1, 0.3}, Vec3{1.0, 9.0, 0.5}});

    const linalg::Matrix &first = pre.information();
    const std::vector<double> bits = first.data();
    const linalg::Matrix &again = pre.information();
    EXPECT_EQ(&again, &first);
    EXPECT_EQ(again.data(), bits);

    // The cached weight is the inverse of the assembled covariance, up
    // to the symmetrization round-off.
    const linalg::Matrix want = referenceInformation(pre);
    double scale = 0.0;
    for (double x : want.data())
        scale = std::max(scale, std::abs(x));
    EXPECT_LT(want.maxAbsDiff(first), 1e-12 * scale);
    EXPECT_TRUE(first.isSymmetric(0.0)); // Symmetrized exactly.

    // One more sample grows the covariance, so the weight must change.
    pre.integrate({0.005, Vec3{0.2, -0.1, 0.3}, Vec3{1.0, 9.0, 0.5}});
    const linalg::Matrix &after = pre.information();
    EXPECT_NE(after.data(), bits);
    const linalg::Matrix want_after = referenceInformation(pre);
    EXPECT_LT(want_after.maxAbsDiff(after), 1e-12 * scale);
}

TEST(ImuPreintegration, RejectsNonPositiveDt)
{
    ImuPreintegration pre({}, {}, ImuNoise{});
    EXPECT_DEATH(pre.integrate({0.0, Vec3{}, Vec3{}}), "dt");
}

TEST(ImuPreintegration, DeadReckoningRecoversTrueMotion)
{
    // Simulate a body accelerating and rotating; dead-reckon with the
    // preintegrated quantities and compare against direct integration.
    const Vec3 g = gravityVector();
    const double dt = 0.002;
    const int n = 500;

    // True trajectory: constant body rotation rate and world acceleration.
    Mat3 r = Mat3::identity();
    Vec3 v{1.0, 0.0, 0.0};
    Vec3 p{};
    const Vec3 w_body{0.0, 0.0, 0.4};
    ImuPreintegration pre({}, {}, ImuNoise{});
    const Vec3 a_world{0.3, -0.2, 0.1};

    const Mat3 r0 = r;
    const Vec3 v0 = v, p0 = p;

    for (int i = 0; i < n; ++i) {
        // Specific force in the body frame.
        const Vec3 f = r.transposed() * (a_world - g);
        pre.integrate({dt, w_body, f});
        // Direct ground-truth integration (midpoint on rotation).
        p += v * dt + a_world * (0.5 * dt * dt);
        v += a_world * dt;
        r = r * so3Exp(w_body * dt);
    }

    const double t = n * dt;
    const Vec3 p_pred = p0 + v0 * t + g * (0.5 * t * t) +
                        r0 * pre.deltaP();
    const Vec3 v_pred = v0 + g * t + r0 * pre.deltaV();
    const Mat3 r_pred = r0 * pre.deltaR();

    EXPECT_NEAR((p_pred - p).norm(), 0.0, 2e-3);
    EXPECT_NEAR((v_pred - v).norm(), 0.0, 2e-3);
    EXPECT_LT(r_pred.maxAbsDiff(r), 1e-9);
}

} // namespace
} // namespace archytas::slam
