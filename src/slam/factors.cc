#include "slam/factors.hh"

#include "common/contracts.hh"
#include "common/logging.hh"
#include "linalg/simd.hh"

namespace archytas::slam {

namespace {

void
setBlock3(linalg::Matrix &m, std::size_t r0, std::size_t c0, const Mat3 &b)
{
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c)
            m(r0 + r, c0 + c) = b(r, c);
}

/** out = j_proj(2x3) * m(3x3) written into a 2x6 block at column c0. */
void
composeInto(FixedMatrix<2, 6> &out, std::size_t c0,
            const FixedMatrix<2, 3> &j_proj, const Mat3 &m)
{
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c) {
            double acc = 0.0;
            for (std::size_t k = 0; k < 3; ++k)
                acc += j_proj.m[r * 3 + k] * m.m[k * 3 + c];
            out.m[r * 6 + c0 + c] = acc;
        }
}

/**
 * The feature's point in the target camera: the one projection the full
 * and the residual-only visual evaluations share. False when the point
 * is behind the anchor, at infinity, or nearer the target camera than
 * min_depth.
 */
bool
featureInTarget(const PinholeCamera &camera, const FeatureAnchor &feature,
                const Pose &target, Vec3 &p_target)
{
    if (!feature.valid)
        return false;   // Behind or at infinity: uninformative.
    p_target = target.inverseTransform(feature.p_world);
    if (p_target.z < camera.min_depth)
        return false;
    return true;
}

/** Residual terms of one IMU factor, with what its Jacobians reuse. */
struct ImuTerms
{
    Mat3 ri, ri_t, rj;
    Vec3 dbg;
    Vec3 r_theta, r_p, r_v, r_bg, r_ba;
    Vec3 p_term, v_term;
};

ImuTerms
imuTerms(const ImuPreintegration &preint, const KeyframeState &si,
         const KeyframeState &sj)
{
    const double dt = preint.dt();
    ARCHYTAS_ASSERT(dt > 0.0, "IMU factor with zero integration time");

    ImuTerms t;
    t.ri = si.pose.q.toRotationMatrix();
    t.ri_t = t.ri.transposed();
    t.rj = sj.pose.q.toRotationMatrix();
    const Vec3 g = gravityVector();

    t.dbg = si.bias_gyro - preint.biasGyroLin();
    const Vec3 dba = si.bias_accel - preint.biasAccelLin();

    // Bias-corrected preintegrated measurements.
    const Mat3 delta_r = preint.correctedDeltaR(t.dbg);
    const Vec3 delta_v = preint.correctedDeltaV(t.dbg, dba);
    const Vec3 delta_p = preint.correctedDeltaP(t.dbg, dba);

    // Residuals.
    const Mat3 r_err_mat = delta_r.transposed() * (t.ri_t * t.rj);
    t.r_theta = so3Log(r_err_mat);
    t.v_term = t.ri_t * (sj.velocity - si.velocity - g * dt);
    t.r_v = t.v_term - delta_v;
    t.p_term = t.ri_t * (sj.pose.p - si.pose.p - si.velocity * dt -
                         g * (0.5 * dt * dt));
    t.r_p = t.p_term - delta_p;
    t.r_bg = sj.bias_gyro - si.bias_gyro;
    t.r_ba = sj.bias_accel - si.bias_accel;
    return t;
}

/** Writes the residual in [r_theta, r_p, r_v, r_bg, r_ba] order. */
void
setResidual(double *r, const ImuTerms &t)
{
    const Vec3 *parts[5] = {&t.r_theta, &t.r_p, &t.r_v, &t.r_bg, &t.r_ba};
    for (int k = 0; k < 5; ++k) {
        r[3 * k] = parts[k]->x;
        r[3 * k + 1] = parts[k]->y;
        r[3 * k + 2] = parts[k]->z;
    }
}

} // namespace

FeatureAnchor
featureAnchor(const Pose &anchor, const Vec3 &bearing, double inv_depth)
{
    FeatureAnchor fa;
    if (inv_depth <= 1e-6)
        return fa;   // Behind or at infinity: uninformative.
    // Point in the anchor camera, then the world.
    fa.p_anchor = bearing * (1.0 / inv_depth);
    fa.p_world = anchor.transform(fa.p_anchor);
    fa.dp_anchor = bearing * (-1.0 / (inv_depth * inv_depth));
    fa.valid = true;
    return fa;
}

VisualFactorEval
evaluateVisualFactor(const PinholeCamera &camera, const Pose &anchor,
                     const Pose &target, const Vec3 &bearing,
                     double inv_depth, const Vec2 &measurement)
{
    VisualFactorEval eval;
    const KeyframeRotation anchor_rot = keyframeRotation(anchor);
    const KeyframeRotation target_rot = keyframeRotation(target);
    evaluateVisualFactorInto(eval, camera,
                             featureAnchor(anchor, bearing, inv_depth),
                             target, target_rot,
                             target_rot.r_t * anchor_rot.r, measurement);
    return eval;
}

bool
evaluateVisualResidual(Vec2 &residual, const PinholeCamera &camera,
                       const FeatureAnchor &feature, const Pose &target,
                       const Vec2 &measurement)
{
    Vec3 p_target;
    if (!featureInTarget(camera, feature, target, p_target))
        return false;
    residual = camera.projectUnchecked(p_target) - measurement;
    return true;
}

void
evaluateVisualFactorInto(VisualFactorEval &eval, const PinholeCamera &camera,
                         const FeatureAnchor &feature, const Pose &target,
                         const KeyframeRotation &target_rot,
                         const Mat3 &r_ta, const Vec2 &measurement)
{
    eval.valid = false;
    Vec3 p_target;
    if (!featureInTarget(camera, feature, target, p_target))
        return;

    const Vec2 predicted = camera.projectUnchecked(p_target);
    eval.residual = predicted - measurement;

    camera.projectionJacobianInto(eval.j_proj, p_target);
    const FixedMatrix<2, 3> &j_proj = eval.j_proj;

    // Pose tangent ordering is [d_theta(3), d_p(3)], rotation
    // right-perturbed, translation additive (see Pose::applyTangent).
    // composeInto covers both 2 x 3 halves, so every entry is written.
    composeInto(eval.j_anchor, 0, j_proj,
                (r_ta * skew(feature.p_anchor)) * -1.0);
    composeInto(eval.j_anchor, 3, j_proj, target_rot.r_t);

    composeInto(eval.j_target, 0, j_proj, skew(p_target));
    composeInto(eval.j_target, 3, j_proj, target_rot.neg_r_t);

    // d p_anchor / d inv_depth = -bearing / inv_depth^2.
    const Vec3 dp = r_ta * feature.dp_anchor;
    eval.j_depth.m[0] = j_proj.m[0]*dp.x + j_proj.m[1]*dp.y +
                        j_proj.m[2]*dp.z;
    eval.j_depth.m[1] = j_proj.m[3]*dp.x + j_proj.m[4]*dp.y +
                        j_proj.m[5]*dp.z;

    eval.valid = true;
}

void
addVisualPoseBlocks(double *h, std::size_t ldh, double *g, std::size_t ra,
                    std::size_t rt, const VisualFactorEval &ev, double wt)
{
    ARCHYTAS_DCHECK(ra != rt, "visual factor with its anchor as target");
    ARCHYTAS_DCHECK(ra + kPoseDof <= ldh && rt + kPoseDof <= ldh,
                    "visual pose blocks at ", ra, " and ", rt,
                    " out of range for ", ldh, " rows");
    const linalg::simd::Ops &v = linalg::simd::ops();
    // Row scales wt J(k, i) of each residual row k, and the rhs scales
    // -(wt r_k).
    double alpha_a[2][kPoseDof];
    double alpha_t[2][kPoseDof];
    for (std::size_t k = 0; k < 2; ++k)
        for (std::size_t i = 0; i < kPoseDof; ++i) {
            alpha_a[k][i] = wt * ev.j_anchor.m[k * kPoseDof + i];
            alpha_t[k][i] = wt * ev.j_target.m[k * kPoseDof + i];
        }
    const double alpha_g[2] = {-(wt * ev.residual.u),
                               -(wt * ev.residual.v)};
    const double *aa[2] = {alpha_a[0], alpha_a[1]};
    const double *at[2] = {alpha_t[0], alpha_t[1]};
    const double *ag[2] = {&alpha_g[0], &alpha_g[1]};
    const double *ja[2] = {ev.j_anchor.row(0), ev.j_anchor.row(1)};
    const double *jt[2] = {ev.j_target.row(0), ev.j_target.row(1)};
    // Blocks (a, a), (a, t), (t, a), (t, t), then the segments: one
    // rank-2 update each, whose terms are the residual rows in order,
    // so every element adds its k = 0 term first.
    v.rankUpdate(h + ra * ldh + ra, ldh, aa, ja, 2, kPoseDof, kPoseDof);
    v.rankUpdate(h + ra * ldh + rt, ldh, aa, jt, 2, kPoseDof, kPoseDof);
    v.rankUpdate(h + rt * ldh + ra, ldh, at, ja, 2, kPoseDof, kPoseDof);
    v.rankUpdate(h + rt * ldh + rt, ldh, at, jt, 2, kPoseDof, kPoseDof);
    v.rankUpdate(g + ra, kPoseDof, ag, ja, 2, 1, kPoseDof);
    v.rankUpdate(g + rt, kPoseDof, ag, jt, 2, 1, kPoseDof);
}

void
addVisualCoupling(double *seg, std::size_t stride,
                  const FixedMatrix<2, 6> &j_pose,
                  const FixedMatrix<2, 1> &j_depth, double wt)
{
    for (std::size_t i = 0; i < kPoseDof; ++i) {
        double acc = 0.0;
        acc += j_pose.m[i] * j_depth.m[0];
        acc += j_pose.m[kPoseDof + i] * j_depth.m[1];
        seg[i * stride] += wt * acc;
    }
}

ImuFactorEval
evaluateImuFactor(const ImuPreintegration &preint, const KeyframeState &si,
                  const KeyframeState &sj)
{
    ImuFactorEval eval;
    evaluateImuFactorInto(eval, preint, si, sj);
    return eval;
}

ImuResidual
evaluateImuResidual(const ImuPreintegration &preint, const KeyframeState &si,
                    const KeyframeState &sj)
{
    ImuResidual r;
    setResidual(r.data(), imuTerms(preint, si, sj));
    return r;
}

void
evaluateImuFactorInto(ImuFactorEval &eval, const ImuPreintegration &preint,
                      const KeyframeState &si, const KeyframeState &sj)
{
    const double dt = preint.dt();
    const ImuTerms t = imuTerms(preint, si, sj);
    const Vec3 &dbg = t.dbg;
    const Mat3 &ri_t = t.ri_t;

    if (eval.residual.size() != kKeyframeDof)
        eval.residual = linalg::Vector(kKeyframeDof);
    setResidual(eval.residual.data().data(), t);

    // Jacobians; tangent ordering [d_theta, d_p, d_v, d_bg, d_ba]. Only
    // the blocks set below are non-zero.
    const Mat3 jr_inv = so3RightJacobianInverse(t.r_theta);
    const Mat3 rj_t_ri = t.rj.transposed() * t.ri;

    for (linalg::Matrix *j : {&eval.j_i, &eval.j_j}) {
        if (j->rows() == kKeyframeDof && j->cols() == kKeyframeDof)
            j->setZero();
        else
            *j = linalg::Matrix(kKeyframeDof, kKeyframeDof);
    }

    // r_theta rows.
    setBlock3(eval.j_i, 0, 0, (jr_inv * rj_t_ri) * -1.0);
    {
        // d r_theta / d bg_i through the bias-corrected deltaR.
        const Vec3 corr = preint.dRdBg() * dbg;
        const Mat3 d = ((jr_inv * so3Exp(t.r_theta).transposed()) *
                        so3RightJacobian(corr)) * preint.dRdBg() * -1.0;
        setBlock3(eval.j_i, 0, 9, d);
    }
    setBlock3(eval.j_j, 0, 0, jr_inv);

    // r_p rows.
    setBlock3(eval.j_i, 3, 0, skew(t.p_term));
    setBlock3(eval.j_i, 3, 3, ri_t * -1.0);
    setBlock3(eval.j_i, 3, 6, ri_t * -dt);
    setBlock3(eval.j_i, 3, 9, preint.dPdBg() * -1.0);
    setBlock3(eval.j_i, 3, 12, preint.dPdBa() * -1.0);
    setBlock3(eval.j_j, 3, 3, ri_t);

    // r_v rows.
    setBlock3(eval.j_i, 6, 0, skew(t.v_term));
    setBlock3(eval.j_i, 6, 6, ri_t * -1.0);
    setBlock3(eval.j_i, 6, 9, preint.dVdBg() * -1.0);
    setBlock3(eval.j_i, 6, 12, preint.dVdBa() * -1.0);
    setBlock3(eval.j_j, 6, 6, ri_t);

    // Bias random-walk rows.
    setBlock3(eval.j_i, 9, 9, Mat3::identity() * -1.0);
    setBlock3(eval.j_j, 9, 9, Mat3::identity());
    setBlock3(eval.j_i, 12, 12, Mat3::identity() * -1.0);
    setBlock3(eval.j_j, 12, 12, Mat3::identity());
}

} // namespace archytas::slam
