#include <gtest/gtest.h>

#include <memory>

#include "common/contracts.hh"
#include "common/rng.hh"
#include "slam/marginalization.hh"

namespace archytas::slam {
namespace {

struct MargScene
{
    PinholeCamera camera;
    std::vector<KeyframeState> keyframes;
    std::vector<Feature> features;
    std::vector<std::shared_ptr<ImuPreintegration>> preints;
};

MargScene
makeScene(std::size_t n_keyframes, std::size_t n_features, Rng &rng)
{
    MargScene sc;
    const Vec3 g = gravityVector();
    const double frame_dt = 0.1, imu_dt = 0.005;
    const Vec3 vel{1.2, 0.0, 0.0};

    for (std::size_t i = 0; i < n_keyframes; ++i) {
        KeyframeState s;
        s.pose.p = vel * (frame_dt * static_cast<double>(i));
        s.velocity = vel;
        sc.keyframes.push_back(s);
    }
    for (std::size_t i = 0; i + 1 < n_keyframes; ++i) {
        auto pre = std::make_shared<ImuPreintegration>(Vec3{}, Vec3{},
                                                       ImuNoise{});
        const int imu_steps = static_cast<int>(frame_dt / imu_dt + 0.5);
        for (int s = 0; s < imu_steps; ++s)
            pre->integrate({imu_dt, Vec3{}, Vec3{} - g});
        sc.preints.push_back(std::move(pre));
    }
    for (std::size_t l = 0; l < n_features; ++l) {
        const Vec3 lm{rng.uniform(-3, 3), rng.uniform(-2, 2),
                      rng.uniform(6, 15)};
        Feature f;
        f.track_id = l;
        // Half the features anchored at keyframe 0, half at keyframe 1.
        f.anchor_index = l % 2;
        const Vec3 pc = sc.keyframes[f.anchor_index].pose
                            .inverseTransform(lm);
        f.anchor_bearing = Vec3{pc.x / pc.z, pc.y / pc.z, 1.0};
        f.inverse_depth = 1.0 / pc.z;
        f.depth_initialized = true;
        for (std::size_t i = 0; i < n_keyframes; ++i) {
            const Vec3 p = sc.keyframes[i].pose.inverseTransform(lm);
            const auto px = sc.camera.project(p);
            if (px)
                f.observations.push_back(
                    {i, {px->u + rng.gaussian(0, 0.3),
                         px->v + rng.gaussian(0, 0.3)}});
        }
        sc.features.push_back(std::move(f));
    }
    return sc;
}

TEST(Marginalization, ProducesPriorOverRetainedKeyframes)
{
    Rng rng(1);
    MargScene sc = makeScene(5, 20, rng);
    const auto out = marginalizeOldestKeyframe(
        sc.camera, sc.keyframes, sc.features, sc.preints[0], PriorFactor{},
        1.0);
    EXPECT_EQ(out.prior.keyframes(), 4u);
    EXPECT_EQ(out.prior.dim(), 4u * kKeyframeDof);
    // Features anchored at keyframe 0 with informative observations.
    EXPECT_EQ(out.marginalized_features, 10u);
    EXPECT_EQ(out.marginalized_dim, 10u + kKeyframeDof);
}

TEST(Marginalization, PriorInformationIsSymmetricPsd)
{
    Rng rng(2);
    MargScene sc = makeScene(4, 16, rng);
    const auto out = marginalizeOldestKeyframe(
        sc.camera, sc.keyframes, sc.features, sc.preints[0], PriorFactor{},
        1.0);
    const auto &h = out.prior.information();
    EXPECT_TRUE(h.isSymmetric(1e-6));
    // Diagonal non-negative (PSD necessary condition).
    for (std::size_t i = 0; i < h.rows(); ++i)
        EXPECT_GE(h(i, i), -1e-9);
}

TEST(Marginalization, PriorCostZeroAtLinearizationPoint)
{
    Rng rng(3);
    MargScene sc = makeScene(4, 12, rng);
    const auto out = marginalizeOldestKeyframe(
        sc.camera, sc.keyframes, sc.features, sc.preints[0], PriorFactor{},
        1.0);
    // dx = 0 at the linearization point, so cost = 0.5*0 - r.0 = 0.
    std::vector<KeyframeState> retained(sc.keyframes.begin() + 1,
                                        sc.keyframes.end());
    EXPECT_DOUBLE_EQ(out.prior.cost(retained), 0.0);
}

TEST(Marginalization, PriorPenalizesDeviation)
{
    Rng rng(4);
    MargScene sc = makeScene(4, 20, rng);
    const auto out = marginalizeOldestKeyframe(
        sc.camera, sc.keyframes, sc.features, sc.preints[0], PriorFactor{},
        1.0);
    std::vector<KeyframeState> retained(sc.keyframes.begin() + 1,
                                        sc.keyframes.end());
    retained[0].pose.p += Vec3{0.5, 0.0, 0.0};
    // Quadratic form grows when moving away (up to the linear term; for a
    // pure-GN prior at a local minimum r ~= 0, cost should rise).
    EXPECT_GT(out.prior.cost(retained), -1e-6);
}

TEST(Marginalization, ChainsThroughOldPrior)
{
    Rng rng(5);
    MargScene sc = makeScene(5, 20, rng);
    const auto first = marginalizeOldestKeyframe(
        sc.camera, sc.keyframes, sc.features, sc.preints[0], PriorFactor{},
        1.0);

    // Simulate the slide: drop keyframe 0, re-index features.
    std::vector<KeyframeState> kfs(sc.keyframes.begin() + 1,
                                   sc.keyframes.end());
    std::vector<Feature> feats;
    for (Feature f : sc.features) {
        if (f.anchor_index == 0)
            continue;
        f.anchor_index -= 1;
        std::vector<FeatureObservation> obs;
        for (auto &o : f.observations)
            if (o.keyframe_index != 0)
                obs.push_back({o.keyframe_index - 1, o.pixel});
        f.observations = std::move(obs);
        feats.push_back(std::move(f));
    }
    std::vector<std::shared_ptr<ImuPreintegration>> pres(
        sc.preints.begin() + 1, sc.preints.end());

    const auto second = marginalizeOldestKeyframe(
        sc.camera, kfs, feats, pres[0], first.prior, 1.0);
    EXPECT_EQ(second.prior.keyframes(), 3u);
    EXPECT_TRUE(second.prior.information().isSymmetric(1e-6));
}

TEST(Marginalization, ReusedScratchGivesFreshBits)
{
    // One scratch serves every frame of an estimator. After a larger
    // window (more features, a wider old prior), its buffers hold stale
    // values of other shapes; a smaller window's prior must still come
    // out bit for bit as with a fresh scratch.
    Rng rng(9);
    const MargScene big = makeScene(8, 60, rng);
    const MargScene small = makeScene(5, 20, rng);
    // Old priors over all but one keyframe (7 and 4), taken from each
    // scene's own marginalization so that they deviate from the states.
    const PriorFactor big_prior =
        marginalizeOldestKeyframe(big.camera, big.keyframes, big.features,
                                  big.preints[0], PriorFactor{}, 1.0)
            .prior;
    const PriorFactor small_prior =
        marginalizeOldestKeyframe(small.camera, small.keyframes,
                                  small.features, small.preints[0],
                                  PriorFactor{}, 1.0)
            .prior;

    MarginalizationScratch reused;
    (void)marginalizeOldestKeyframe(big.camera, big.keyframes, big.features,
                                    big.preints[0], big_prior, 1.0, reused);
    const auto got = marginalizeOldestKeyframe(
        small.camera, small.keyframes, small.features, small.preints[0],
        small_prior, 1.0, reused);
    const auto want = marginalizeOldestKeyframe(
        small.camera, small.keyframes, small.features, small.preints[0],
        small_prior, 1.0);

    EXPECT_EQ(got.marginalized_features, want.marginalized_features);
    EXPECT_EQ(got.marginalized_dim, want.marginalized_dim);
    const linalg::Matrix &h_got = got.prior.information();
    const linalg::Matrix &h_want = want.prior.information();
    ASSERT_EQ(h_got.rows(), h_want.rows());
    ASSERT_EQ(h_got.cols(), h_want.cols());
    for (std::size_t i = 0; i < h_got.rows(); ++i)
        for (std::size_t j = 0; j < h_got.cols(); ++j)
            EXPECT_EQ(h_got(i, j), h_want(i, j)) << "(" << i << ", " << j
                                                 << ")";
    const linalg::Vector &r_got = got.prior.informationVector();
    const linalg::Vector &r_want = want.prior.informationVector();
    ASSERT_EQ(r_got.size(), r_want.size());
    for (std::size_t i = 0; i < r_got.size(); ++i)
        EXPECT_EQ(r_got[i], r_want[i]) << i;
}

TEST(Marginalization, NeedsAtLeastTwoKeyframes)
{
    if (!ARCHYTAS_CONTRACTS_ENABLED)
        GTEST_SKIP() << "contracts are compiled out of this build";
    Rng rng(6);
    MargScene sc = makeScene(2, 4, rng);
    std::vector<KeyframeState> one(sc.keyframes.begin(),
                                   sc.keyframes.begin() + 1);
    EXPECT_DEATH(marginalizeOldestKeyframe(sc.camera, one, sc.features,
                                           nullptr, PriorFactor{}, 1.0),
                 "two keyframes");
}

TEST(PriorFactor, BoxMinusZeroAtLinearization)
{
    Rng rng(7);
    MargScene sc = makeScene(3, 8, rng);
    std::vector<KeyframeState> lin(sc.keyframes.begin() + 1,
                                   sc.keyframes.end());
    PriorFactor prior(linalg::Matrix(2 * kKeyframeDof, 2 * kKeyframeDof),
                      linalg::Vector(2 * kKeyframeDof), lin);
    const linalg::Vector dx = prior.boxMinus(lin);
    EXPECT_NEAR(dx.norm(), 0.0, 1e-12);
}

TEST(PriorFactor, ShiftedDropsLeadingKeyframe)
{
    Rng rng(8);
    MargScene sc = makeScene(4, 10, rng);
    const auto out = marginalizeOldestKeyframe(
        sc.camera, sc.keyframes, sc.features, sc.preints[0], PriorFactor{},
        1.0);
    const PriorFactor shifted = out.prior.shifted();
    EXPECT_EQ(shifted.keyframes(), out.prior.keyframes() - 1);
}

} // namespace
} // namespace archytas::slam
