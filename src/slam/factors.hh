/**
 * @file
 * Measurement factors of the MAP objective (Eq. 2): the visual
 * (reprojection) factor over inverse-depth features and the preintegrated
 * IMU factor between consecutive keyframes. Their analytic Jacobians are
 * the software reference for the VJac and IJac primitive M-DFG nodes;
 * tests validate them against numeric differentiation.
 */

#ifndef ARCHYTAS_SLAM_FACTORS_HH
#define ARCHYTAS_SLAM_FACTORS_HH

#include <array>

#include "linalg/matrix.hh"
#include "slam/camera.hh"
#include "slam/imu.hh"
#include "slam/state.hh"

namespace archytas::slam {

/** World gravity used by every IMU factor. */
inline constexpr double kGravity = 9.81;
inline Vec3 gravityVector() { return {0.0, 0.0, -kGravity}; }

/** Evaluation of one visual observation. */
struct VisualFactorEval
{
    bool valid = false;          //!< False when the point projects badly.
    Vec2 residual;               //!< Predicted pixel minus measurement.
    linalg::Matrix j_anchor;     //!< 2 x 6, w.r.t. anchor pose tangent.
    linalg::Matrix j_target;     //!< 2 x 6, w.r.t. target pose tangent.
    linalg::Matrix j_depth;      //!< 2 x 1, w.r.t. inverse depth.
    /** 2 x 3 projection-Jacobian intermediate, kept as a member so a
     *  reused eval evaluates without allocating. Meaningful only when
     *  valid; stale matrices may linger after an invalid evaluation. */
    linalg::Matrix j_proj;
};

/**
 * Evaluates the reprojection residual and Jacobians of a feature seen in a
 * target keyframe, with the feature anchored (by bearing + inverse depth)
 * in its anchor keyframe.
 *
 * @param camera     Pinhole intrinsics.
 * @param anchor     Anchor keyframe pose (body == camera frame).
 * @param target     Observing keyframe pose.
 * @param bearing    Unit-depth bearing in the anchor camera.
 * @param inv_depth  Inverse depth along the bearing.
 * @param measurement Observed pixel in the target frame.
 */
VisualFactorEval evaluateVisualFactor(const PinholeCamera &camera,
                                      const Pose &anchor, const Pose &target,
                                      const Vec3 &bearing, double inv_depth,
                                      const Vec2 &measurement);

/**
 * Destination-passing variant for the assembly hot path: writes into a
 * caller-owned eval whose matrices are resized once and then reused, so
 * steady-state evaluation allocates nothing. Produces bit-identical
 * values to evaluateVisualFactor (which wraps this one).
 */
void evaluateVisualFactorInto(VisualFactorEval &eval,
                              const PinholeCamera &camera,
                              const Pose &anchor, const Pose &target,
                              const Vec3 &bearing, double inv_depth,
                              const Vec2 &measurement);

/**
 * Residual-only visual evaluation for LM step checks: the validity and
 * residual of evaluateVisualFactorInto, bit for bit (both share one
 * projection), without the Jacobians.
 *
 * @return false when the point projects badly; residual is then unset.
 */
bool evaluateVisualResidual(Vec2 &residual, const PinholeCamera &camera,
                            const Pose &anchor, const Pose &target,
                            const Vec3 &bearing, double inv_depth,
                            const Vec2 &measurement);

/**
 * Evaluation of one IMU factor between keyframes i and j. Its weight is
 * the preintegration's cached ImuPreintegration::information().
 */
struct ImuFactorEval
{
    linalg::Vector residual;    //!< 15: [r_theta, r_p, r_v, r_bg, r_ba].
    linalg::Matrix j_i;         //!< 15 x 15 w.r.t. state i tangent.
    linalg::Matrix j_j;         //!< 15 x 15 w.r.t. state j tangent.
};

/**
 * Evaluates the preintegrated IMU residual between keyframe states i and j
 * and its Jacobians w.r.t. both states' 15-dim tangents
 * ([d_theta, d_p, d_v, d_bg, d_ba] ordering).
 */
ImuFactorEval evaluateImuFactor(const ImuPreintegration &preint,
                                const KeyframeState &si,
                                const KeyframeState &sj);

/**
 * Destination-passing variant: reuses eval's storage, so a warmed-up
 * eval evaluates without allocating. Bit-identical to evaluateImuFactor
 * (which wraps this one).
 */
void evaluateImuFactorInto(ImuFactorEval &eval,
                           const ImuPreintegration &preint,
                           const KeyframeState &si, const KeyframeState &sj);

/** IMU residual in ImuFactorEval::residual order. */
using ImuResidual = std::array<double, kKeyframeDof>;

/**
 * Residual-only IMU evaluation for LM step checks: the residual of
 * evaluateImuFactor, bit for bit, without the two 15 x 15 Jacobians.
 */
ImuResidual evaluateImuResidual(const ImuPreintegration &preint,
                                const KeyframeState &si,
                                const KeyframeState &sj);

} // namespace archytas::slam

#endif // ARCHYTAS_SLAM_FACTORS_HH
