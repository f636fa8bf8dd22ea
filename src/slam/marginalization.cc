#include "slam/marginalization.hh"

#include <algorithm>

#include "common/contracts.hh"
#include "common/logging.hh"
#include "linalg/kernels.hh"
#include "linalg/schur.hh"
#include "linalg/simd.hh"

namespace archytas::slam {

namespace {

/** Copies a block of the arena-backed H into a reusable dense matrix. */
void
copyBlock(linalg::Matrix &dst, const linalg::MatrixView &src,
          std::size_t r0, std::size_t c0, std::size_t rows,
          std::size_t cols)
{
    if (dst.rows() != rows || dst.cols() != cols)
        dst = linalg::Matrix(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        const double *s = src.rowPtr(r0 + r) + c0;
        std::copy(s, s + cols, dst.rowPtr(r));
    }
}

/** Copies a segment of the arena-backed g into a reusable vector. */
void
copySegment(linalg::Vector &dst, const double *src, std::size_t off,
            std::size_t n)
{
    if (dst.size() != n)
        dst = linalg::Vector(n);
    std::copy(src + off, src + off + n, dst.data().data());
}

} // namespace

MarginalizationResult
marginalizeOldestKeyframe(const PinholeCamera &camera,
                          const std::vector<KeyframeState> &keyframes,
                          const std::vector<Feature> &features,
                          const std::shared_ptr<ImuPreintegration> &preint01,
                          const PriorFactor &old_prior, double pixel_sigma,
                          MarginalizationScratch &scratch)
{
    const std::size_t b = keyframes.size();
    ARCHYTAS_DCHECK(b >= 2, "marginalizeOldestKeyframe needs at least two "
                    "keyframes, got ", b);
    const double visual_weight = 1.0 / (pixel_sigma * pixel_sigma);

    // Features anchored in keyframe 0 with at least one informative
    // observation get marginalized along with the keyframe.
    std::vector<const Feature *> &marg_features = scratch.marg_features;
    marg_features.clear();
    for (const Feature &f : features)
        if (f.anchor_index == 0 && f.informativeObservations() > 0)
            marg_features.push_back(&f);

    const std::size_t am = marg_features.size();
    // State ordering: [lambda_0..lambda_{am-1} | kf0 | kf1 | ... ].
    const std::size_t dim = am + b * kKeyframeDof;
    const auto kfOffset = [am](std::size_t kf) {
        return am + kf * kKeyframeDof;
    };

    scratch.arena.reset();
    linalg::MatrixView h(scratch.arena.allocateArray<double>(dim * dim),
                         dim, dim);
    h.setZero();
    double *g = scratch.arena.allocateArray<double>(dim);
    std::fill(g, g + dim, 0.0);

    // Visual factors of the marginalized features, evaluated with each
    // keyframe's rotations computed once. Per observation, the blocks
    // touching the feature (its diagonal entry, row, column and rhs)
    // are written here; the pose blocks and pose rhs by the shared
    // addVisualPoseBlocks.
    std::vector<KeyframeRotation> &rot = scratch.rotations;
    std::vector<Mat3> &r_ta = scratch.relative_rotations;
    rot.resize(b);
    r_ta.resize(b);
    for (std::size_t k = 0; k < b; ++k)
        rot[k] = keyframeRotation(keyframes[k].pose);
    for (std::size_t k = 1; k < b; ++k)
        r_ta[k] = rot[k].r_t * rot[0].r;
    const linalg::simd::Ops &v = linalg::simd::ops();
    double *hd = h.data();
    for (std::size_t fi = 0; fi < am; ++fi) {
        const Feature &feat = *marg_features[fi];
        const FeatureAnchor fa = featureAnchor(
            keyframes[0].pose, feat.anchor_bearing, feat.inverse_depth);
        if (!fa.valid)
            continue; // Every observation would project badly.
        for (const auto &obs : feat.observations) {
            const std::size_t t_idx = obs.keyframe_index;
            if (t_idx == feat.anchor_index)
                continue;
            evaluateVisualFactorInto(scratch.ev, camera, fa,
                                     keyframes[t_idx].pose, rot[t_idx],
                                     r_ta[t_idx], obs.pixel);
            const VisualFactorEval &ev = scratch.ev;
            if (!ev.valid)
                continue;
            const double res[2] = {ev.residual.u, ev.residual.v};
            const double *jd = ev.j_depth.m.data();
            const std::size_t ra = kfOffset(0);
            const std::size_t rt = kfOffset(t_idx);

            // (fi, fi): wt j_depth^T j_depth.
            double hff = 0.0;
            hff += jd[0] * jd[0];
            hff += jd[1] * jd[1];
            hd[fi * dim + fi] += visual_weight * hff;
            // Row fi: wt j_depth^T J_pose, one axpy per residual row.
            for (std::size_t k = 0; k < 2; ++k) {
                v.axpy(hd + fi * dim + ra, visual_weight * jd[k],
                       ev.j_anchor.row(k), kPoseDof);
                v.axpy(hd + fi * dim + rt, visual_weight * jd[k],
                       ev.j_target.row(k), kPoseDof);
            }
            // Column fi: wt J_pose^T j_depth.
            addVisualCoupling(hd + ra * dim + fi, dim, ev.j_anchor,
                              ev.j_depth, visual_weight);
            addVisualCoupling(hd + rt * dim + fi, dim, ev.j_target,
                              ev.j_depth, visual_weight);
            addVisualPoseBlocks(hd, dim, g, ra, rt, ev, visual_weight);
            // Feature rhs: -wt j_depth^T r.
            double gf = 0.0;
            gf += jd[0] * res[0];
            gf += jd[1] * res[1];
            g[fi] -= visual_weight * gf;
        }
    }

    // IMU factor between keyframes 0 and 1.
    if (preint01 && preint01->sampleCount() > 0) {
        ImuFactorEval &ev = scratch.imu;
        evaluateImuFactorInto(ev, *preint01, keyframes[0], keyframes[1]);
        const linalg::Matrix &information = preint01->information();
        linalg::multiplyInto(scratch.imu_lr, information, ev.residual);
        linalg::multiplyInto(scratch.imu_li, information, ev.j_i);
        linalg::multiplyInto(scratch.imu_lj, information, ev.j_j);
        const double *lr = scratch.imu_lr.data().data();
        const std::size_t r0 = kfOffset(0);
        const std::size_t r1 = kfOffset(1);
        linalg::addOuterProductTransposed(h, r0, r0, ev.j_i, scratch.imu_li,
                                          1.0);
        linalg::addOuterProductTransposed(h, r0, r1, ev.j_i, scratch.imu_lj,
                                          1.0);
        linalg::addOuterProductTransposed(h, r1, r0, ev.j_j, scratch.imu_li,
                                          1.0);
        linalg::addOuterProductTransposed(h, r1, r1, ev.j_j, scratch.imu_lj,
                                          1.0);
        linalg::subtractTransposeApplyScaled(g, dim, r0, ev.j_i, lr, 1.0);
        linalg::subtractTransposeApplyScaled(g, dim, r1, ev.j_j, lr, 1.0);
    }

    // Old prior (covers keyframes [0, old_prior.keyframes())): H and
    // r - H dx at the keyframe rows, dx and H dx in the scratch.
    old_prior.addTo(hd + am * dim + am, dim, g + am, keyframes,
                    scratch.prior);

    // Split into marginalized (lambda block + kf0) and retained blocks.
    // The retained block and rhs are copied straight into the new
    // prior's storage, which the M-type Schur updates in place.
    const std::size_t md = am + kKeyframeDof;
    const std::size_t rd = (b - 1) * kKeyframeDof;
    copyBlock(scratch.m, h, 0, 0, md, md);
    copyBlock(scratch.lambda, h, md, 0, rd, md);
    copySegment(scratch.bm, g, 0, md);
    linalg::Matrix prior_h;
    copyBlock(prior_h, h, md, md, rd, rd);
    linalg::Vector prior_r;
    copySegment(prior_r, g, md, rd);

    // Light Tikhonov regularization keeps M invertible when the departing
    // keyframe is weakly constrained.
    for (std::size_t i = 0; i < md; ++i)
        scratch.m(i, i) += 1e-9;

    linalg::subtractMSchur(prior_h, prior_r, scratch.m, scratch.lambda,
                           scratch.bm, /*diag_m11=*/am, scratch.schur);

    std::vector<KeyframeState> lin(keyframes.begin() + 1, keyframes.end());

    MarginalizationResult out;
    out.prior = PriorFactor(std::move(prior_h), std::move(prior_r),
                            std::move(lin));
    out.marginalized_features = am;
    out.marginalized_dim = md;
    return out;
}

MarginalizationResult
marginalizeOldestKeyframe(const PinholeCamera &camera,
                          const std::vector<KeyframeState> &keyframes,
                          const std::vector<Feature> &features,
                          const std::shared_ptr<ImuPreintegration> &preint01,
                          const PriorFactor &old_prior, double pixel_sigma)
{
    MarginalizationScratch scratch;
    return marginalizeOldestKeyframe(camera, keyframes, features, preint01,
                                     old_prior, pixel_sigma, scratch);
}

} // namespace archytas::slam
