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

/**
 * A keyframe's rotation matrix, its transpose and the negated transpose.
 * The window assembly computes them once per keyframe and build, and
 * every visual factor touching the keyframe reads them (its anchor's R,
 * its target's R^T and -R^T).
 */
struct KeyframeRotation
{
    Mat3 r;       //!< Body -> world: pose.q.toRotationMatrix().
    Mat3 r_t;     //!< World -> body: r.transposed().
    Mat3 neg_r_t; //!< r_t * -1.0.
};

/** The KeyframeRotation of a pose. */
inline KeyframeRotation
keyframeRotation(const Pose &pose)
{
    KeyframeRotation rot;
    rot.r = pose.q.toRotationMatrix();
    rot.r_t = rot.r.transposed();
    rot.neg_r_t = rot.r_t * -1.0;
    return rot;
}

/**
 * A feature's anchor-side terms, shared by every observation of it: the
 * window assembly, the cost evaluation and marginalization compute them
 * once per feature instead of once per observation.
 */
struct FeatureAnchor
{
    /** False when the inverse depth is <= 1e-6 (behind the anchor or at
     *  infinity): every observation of the feature is then invalid. */
    bool valid = false;
    Vec3 p_anchor;  //!< Point in the anchor camera: bearing / inv_depth.
    Vec3 p_world;   //!< anchor.transform(p_anchor).
    Vec3 dp_anchor; //!< d p_anchor / d inv_depth: -bearing / inv_depth^2.
};

/** The FeatureAnchor of a feature anchored at pose `anchor`. */
FeatureAnchor featureAnchor(const Pose &anchor, const Vec3 &bearing,
                            double inv_depth);

/**
 * Evaluation of one visual observation. The Jacobian blocks are
 * fixed-size and held inline, so a reused eval never allocates.
 */
struct VisualFactorEval
{
    bool valid = false;              //!< False when the point projects badly.
    Vec2 residual;                   //!< Predicted pixel minus measurement.
    FixedMatrix<2, 6> j_anchor;      //!< W.r.t. anchor pose tangent.
    FixedMatrix<2, 6> j_target;      //!< W.r.t. target pose tangent.
    FixedMatrix<2, 1> j_depth;       //!< W.r.t. inverse depth.
    /** Projection-Jacobian intermediate. Meaningful only when valid;
     *  stale values may linger after an invalid evaluation. */
    FixedMatrix<2, 3> j_proj;
};

/**
 * Evaluates the reprojection residual and Jacobians of a feature seen in
 * a target keyframe, with the feature anchored (by bearing + inverse
 * depth) in its anchor keyframe. The one visual evaluator: the window
 * assembly and marginalization call it with the feature's anchor terms
 * computed once per feature, rotations once per keyframe and the
 * relative rotation once per keyframe pair.
 *
 * @param eval        Overwritten; every Jacobian entry is set when valid.
 * @param camera      Pinhole intrinsics.
 * @param feature     featureAnchor(anchor pose, bearing, inverse depth).
 * @param target      Observing keyframe pose.
 * @param target_rot  keyframeRotation(target).
 * @param r_ta        target_rot.r_t * keyframeRotation(anchor).r.
 * @param measurement Observed pixel in the target frame.
 */
void evaluateVisualFactorInto(VisualFactorEval &eval,
                              const PinholeCamera &camera,
                              const FeatureAnchor &feature,
                              const Pose &target,
                              const KeyframeRotation &target_rot,
                              const Mat3 &r_ta, const Vec2 &measurement);

/** Convenience wrapper: computes the feature's anchor terms and the
 *  rotations, returns a fresh eval. */
VisualFactorEval evaluateVisualFactor(const PinholeCamera &camera,
                                      const Pose &anchor, const Pose &target,
                                      const Vec3 &bearing, double inv_depth,
                                      const Vec2 &measurement);

/**
 * Adds one valid visual factor's pose information wt J_p^T J_q to the
 * 6 x 6 blocks (ra, ra), (ra, rt), (rt, ra) and (rt, rt) of the
 * row-major ldh x ldh matrix h, p, q in {anchor, target}, and its pose
 * gradient -wt J_p^T r to the 6-entry segments g[ra..] and g[rt..] of
 * the ldh-long g.
 * Each block takes one rank-2 simd rankUpdate whose terms are the two
 * residual rows (row i of term k scaled by wt J_p(k, i)); each segment
 * takes one one-row rank-2 rankUpdate (term k scaled by -(wt r_k)).
 * The blocks must not overlap (ra != rt).
 */
void addVisualPoseBlocks(double *h, std::size_t ldh, double *g,
                         std::size_t ra, std::size_t rt,
                         const VisualFactorEval &ev, double wt);

/**
 * Adds wt J_pose^T j_depth, the feature-pose coupling of one valid
 * visual factor, to the 6 entries seg[i * stride]: entry i adds
 * wt * ((0 + J(0, i) j0) + J(1, i) j1).
 */
void addVisualCoupling(double *seg, std::size_t stride,
                       const FixedMatrix<2, 6> &j_pose,
                       const FixedMatrix<2, 1> &j_depth, double wt);

/**
 * Residual-only visual evaluation for LM step checks: the validity and
 * residual of evaluateVisualFactorInto, bit for bit (both share one
 * projection), without the Jacobians or the rotation matrices.
 *
 * @return false when the point projects badly; residual is then unset.
 */
bool evaluateVisualResidual(Vec2 &residual, const PinholeCamera &camera,
                            const FeatureAnchor &feature, const Pose &target,
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
