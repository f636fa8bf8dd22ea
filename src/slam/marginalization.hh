/**
 * @file
 * Marginalization of the oldest keyframe (Sec. 3.1, second phase). All
 * factors touching the departing keyframe -- the visual factors of the
 * features anchored in it, the IMU factor to its successor, and the old
 * prior -- are linearized into an information matrix H and vector b; the
 * departing states (the feature inverse depths, whose block is diagonal,
 * plus the keyframe's 15 states) are then eliminated with an M-type Schur
 * complement (Sec. 3.2.3), yielding the new prior H_p, r_p for the next
 * window.
 */

#ifndef ARCHYTAS_SLAM_MARGINALIZATION_HH
#define ARCHYTAS_SLAM_MARGINALIZATION_HH

#include <memory>
#include <vector>

#include "linalg/schur.hh"
#include "slam/prior.hh"
#include "slam/window_problem.hh"

namespace archytas::slam {

/** Output of marginalizing the oldest keyframe. */
struct MarginalizationResult
{
    /** Prior over the retained keyframes, indexed for the *next* window
     *  (retained keyframe i+1 becomes index i). */
    PriorFactor prior;
    /** am in the paper's notation: features folded into the prior. */
    std::size_t marginalized_features = 0;
    /** Dimension of the marginalized block (am + 15). */
    std::size_t marginalized_dim = 0;
};

/**
 * Reusable marginalization buffers: the dense H / g accumulators live in
 * the arena (reset each call) and the factor-evaluation, block-split and
 * M-type Schur temporaries keep their heap storage across frames, so a
 * warmed call allocates only the new prior it returns. One instance per
 * estimator; never shared between concurrently-marginalizing sessions.
 */
struct MarginalizationScratch
{
    common::Arena arena; //!< Backs the dense H and g accumulators.
    std::vector<const Feature *> marg_features;
    std::vector<KeyframeRotation> rotations; //!< Each keyframe's R, R^T.
    std::vector<Mat3> relative_rotations;    //!< R_k^T R_0 per keyframe k.
    VisualFactorEval ev;           //!< Reused visual-factor evaluation.
    ImuFactorEval imu;             //!< Reused IMU-factor evaluation.
    linalg::Matrix imu_li, imu_lj; //!< Lambda J products.
    linalg::Vector imu_lr;         //!< Lambda r product.
    PriorWork prior;               //!< The old prior's dx and H dx.
    linalg::Matrix m, lambda;      //!< Marginalized and coupling blocks.
    linalg::Vector bm;             //!< Marginalized rhs segment.
    linalg::MSchurWork schur;      //!< M-type Schur temporaries.
};

/**
 * Marginalizes keyframe 0 of the window.
 *
 * @param camera       Camera intrinsics.
 * @param keyframes    Current window states (oldest first, size b >= 2).
 * @param features     Active features; those anchored at keyframe 0 are
 *                     folded into the prior.
 * @param preint01     Preintegration between keyframes 0 and 1 (may be
 *                     null when no IMU factor exists).
 * @param old_prior    Prior from the previous marginalization (may be
 *                     empty).
 * @param pixel_sigma  Visual noise for weighting.
 * @param scratch      Buffers reused across frames.
 */
MarginalizationResult marginalizeOldestKeyframe(
    const PinholeCamera &camera,
    const std::vector<KeyframeState> &keyframes,
    const std::vector<Feature> &features,
    const std::shared_ptr<ImuPreintegration> &preint01,
    const PriorFactor &old_prior, double pixel_sigma,
    MarginalizationScratch &scratch);

/** Convenience overload owning a transient scratch. */
MarginalizationResult marginalizeOldestKeyframe(
    const PinholeCamera &camera,
    const std::vector<KeyframeState> &keyframes,
    const std::vector<Feature> &features,
    const std::shared_ptr<ImuPreintegration> &preint01,
    const PriorFactor &old_prior, double pixel_sigma);

} // namespace archytas::slam

#endif // ARCHYTAS_SLAM_MARGINALIZATION_HH
