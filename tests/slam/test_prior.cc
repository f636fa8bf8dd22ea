#include <gtest/gtest.h>

#include "common/rng.hh"
#include "slam/prior.hh"

namespace archytas::slam {
namespace {

KeyframeState
randomState(Rng &rng)
{
    KeyframeState s;
    s.pose.q = Quaternion::fromAxisAngle(
        {rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
         rng.uniform(-0.5, 0.5)});
    s.pose.p = {rng.uniform(-3, 3), rng.uniform(-3, 3),
                rng.uniform(-3, 3)};
    s.velocity = {rng.uniform(-1, 1), rng.uniform(-1, 1),
                  rng.uniform(-1, 1)};
    s.bias_gyro = {rng.uniform(-0.01, 0.01), 0, 0};
    s.bias_accel = {rng.uniform(-0.1, 0.1), 0, 0};
    return s;
}

linalg::Matrix
randomSpd(std::size_t n, Rng &rng)
{
    linalg::Matrix a(n, n);
    for (auto &x : a.data())
        x = rng.uniform(-1, 1);
    linalg::Matrix s = a.transposed() * a;
    for (std::size_t i = 0; i < n; ++i)
        s(i, i) += 1.0;
    return s;
}

TEST(Prior, EmptyPriorIsInert)
{
    PriorFactor prior;
    EXPECT_TRUE(prior.empty());
    EXPECT_EQ(prior.dim(), 0u);
    std::vector<KeyframeState> states(3);
    EXPECT_DOUBLE_EQ(prior.cost(states), 0.0);
    linalg::Matrix h(45, 45);
    linalg::Vector b(45);
    PriorWork work;
    prior.accumulate(states, h, b, work);
    EXPECT_EQ(h.norm(), 0.0);
    EXPECT_EQ(b.norm(), 0.0);
}

TEST(Prior, BoxMinusRotationComponent)
{
    Rng rng(1);
    KeyframeState lin = randomState(rng);
    KeyframeState cur = lin;
    const Vec3 d_theta{0.02, -0.03, 0.01};
    cur.pose.applyTangent(d_theta, {});
    const linalg::Vector dx = keyframeBoxMinus(cur, lin);
    EXPECT_NEAR(dx[0], d_theta.x, 1e-10);
    EXPECT_NEAR(dx[1], d_theta.y, 1e-10);
    EXPECT_NEAR(dx[2], d_theta.z, 1e-10);
    for (std::size_t i = 3; i < kKeyframeDof; ++i)
        EXPECT_NEAR(dx[i], 0.0, 1e-12);
}

TEST(Prior, CostIsQuadraticInDeviation)
{
    Rng rng(2);
    std::vector<KeyframeState> lin{randomState(rng)};
    const linalg::Matrix h = randomSpd(kKeyframeDof, rng);
    PriorFactor prior(h, linalg::Vector(kKeyframeDof), lin);

    std::vector<KeyframeState> cur = lin;
    cur[0].pose.p += Vec3{0.1, 0.0, 0.0};
    const double c1 = prior.cost(cur);
    cur = lin;
    cur[0].pose.p += Vec3{0.2, 0.0, 0.0};
    const double c2 = prior.cost(cur);
    // With r = 0 the cost is 0.5 dx^T H dx: doubling dx quadruples it.
    EXPECT_NEAR(c2 / c1, 4.0, 1e-9);
}

TEST(Prior, AccumulateMatchesManualGradient)
{
    Rng rng(3);
    std::vector<KeyframeState> lin{randomState(rng), randomState(rng)};
    const std::size_t d = 2 * kKeyframeDof;
    const linalg::Matrix h = randomSpd(d, rng);
    linalg::Vector r(d);
    for (std::size_t i = 0; i < d; ++i)
        r[i] = rng.uniform(-1, 1);
    const PriorFactor prior(h, r, lin);

    std::vector<KeyframeState> cur = lin;
    cur[1].pose.p += Vec3{0.05, -0.02, 0.01};
    cur[0].velocity += Vec3{0.1, 0.0, 0.0};

    linalg::Matrix h_out(d, d);
    linalg::Vector b_out(d);
    PriorWork work;
    prior.accumulate(cur, h_out, b_out, work);

    EXPECT_LT(h_out.maxAbsDiff(h), 1e-12);
    const linalg::Vector dx = prior.boxMinus(cur);
    const linalg::Vector expect = r - h * dx;
    EXPECT_LT(b_out.maxAbsDiff(expect), 1e-10);
}

TEST(Prior, AccumulateAddsIntoExistingSystem)
{
    Rng rng(4);
    std::vector<KeyframeState> lin{randomState(rng)};
    const linalg::Matrix h = randomSpd(kKeyframeDof, rng);
    const PriorFactor prior(h, linalg::Vector(kKeyframeDof), lin);

    linalg::Matrix h_out(kKeyframeDof, kKeyframeDof);
    h_out(0, 0) = 7.0;
    linalg::Vector b_out(kKeyframeDof);
    b_out[0] = 3.0;
    PriorWork work;
    prior.accumulate(lin, h_out, b_out, work);
    EXPECT_DOUBLE_EQ(h_out(0, 0), 7.0 + h(0, 0));
    EXPECT_DOUBLE_EQ(b_out[0], 3.0);   // r = 0, dx = 0.
}

TEST(Prior, ReusedWorkGivesFreshBits)
{
    // One PriorWork serves every build and cost evaluation of a solver;
    // stale contents from another prior or other states must not leak.
    Rng rng(5);
    std::vector<KeyframeState> lin{randomState(rng), randomState(rng)};
    const std::size_t d = 2 * kKeyframeDof;
    linalg::Vector r(d);
    for (std::size_t i = 0; i < d; ++i)
        r[i] = rng.uniform(-1, 1);
    const PriorFactor prior(randomSpd(d, rng), r, lin);
    std::vector<KeyframeState> cur = lin;
    cur[0].pose.p += Vec3{0.03, 0.01, -0.02};
    cur[1].bias_gyro += Vec3{0.001, 0.0, 0.002};

    PriorWork reused;
    reused.dx = linalg::Vector(d);
    reused.hdx = linalg::Vector(d);
    for (std::size_t i = 0; i < d; ++i) {
        reused.dx[i] = rng.uniform(-5, 5);
        reused.hdx[i] = rng.uniform(-5, 5);
    }
    EXPECT_EQ(prior.cost(cur, reused), prior.cost(cur));

    linalg::Matrix h_fresh(d, d), h_reused(d, d);
    linalg::Vector b_fresh(d), b_reused(d);
    PriorWork fresh;
    const double c_fresh = prior.accumulate(cur, h_fresh, b_fresh, fresh);
    const double c_reused =
        prior.accumulate(cur, h_reused, b_reused, reused);
    EXPECT_EQ(c_fresh, c_reused);
    EXPECT_EQ(c_fresh, prior.cost(cur));
    for (std::size_t i = 0; i < d; ++i)
        EXPECT_EQ(b_fresh[i], b_reused[i]) << i;
}

TEST(Prior, HdxMatchesSequentialRowSums)
{
    // H dx runs four rows side by side; each row must still be its own
    // left-to-right sum, bit for bit, at every dimension (15 to 165,
    // row counts that are and are not multiples of 4).
    Rng rng(11);
    for (std::size_t kf = 1; kf <= 11; ++kf) {
        const std::size_t d = kf * kKeyframeDof;
        std::vector<KeyframeState> lin, cur;
        for (std::size_t i = 0; i < kf; ++i) {
            lin.push_back(randomState(rng));
            cur.push_back(randomState(rng));
        }
        linalg::Vector r(d);
        for (std::size_t i = 0; i < d; ++i)
            r[i] = rng.uniform(-1, 1);
        const PriorFactor prior(randomSpd(d, rng), r, lin);
        PriorWork work;
        (void)prior.cost(cur, work);
        ASSERT_EQ(work.hdx.size(), d);
        const linalg::Matrix &h = prior.information();
        for (std::size_t row = 0; row < d; ++row) {
            double acc = 0.0;
            for (std::size_t c = 0; c < d; ++c)
                acc += h(row, c) * work.dx[c];
            EXPECT_EQ(work.hdx[row], acc) << "dim " << d << " row " << row;
        }
    }
}

TEST(Prior, DimensionMismatchDies)
{
    std::vector<KeyframeState> lin(2);
    EXPECT_DEATH(PriorFactor(linalg::Matrix(15, 15), linalg::Vector(15),
                             lin),
                 "dimension mismatch");
}

TEST(Prior, CoveringMoreThanWindowDies)
{
    Rng rng(5);
    std::vector<KeyframeState> lin{randomState(rng), randomState(rng)};
    PriorFactor prior(linalg::Matrix(30, 30), linalg::Vector(30), lin);
    std::vector<KeyframeState> window{lin[0]};
    EXPECT_DEATH(prior.boxMinus(window), "more keyframes");
}

} // namespace
} // namespace archytas::slam
