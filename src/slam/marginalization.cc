#include "slam/marginalization.hh"

#include <algorithm>

#include "common/contracts.hh"
#include "common/logging.hh"
#include "linalg/kernels.hh"
#include "linalg/schur.hh"

namespace archytas::slam {

namespace {

// Factor accumulation runs on the shared destination-passing kernels
// (linalg/kernels.hh); aliases keep the call sites readable. H lives in
// the scratch arena as a view; g is a raw arena segment.

void
accumulateBlock(linalg::MatrixView &h, std::size_t r0, std::size_t c0,
                const linalg::Matrix &a, const linalg::Matrix &b, double wt)
{
    linalg::addOuterProductTransposed(h, r0, c0, a, b, wt);
}

void
accumulateRhs(double *g, std::size_t gsize, std::size_t r0,
              const linalg::Matrix &a, const double *res, double wt)
{
    linalg::subtractTransposeApplyScaled(g, gsize, r0, a, res, wt);
}

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

    // Visual factors of the marginalized features.
    for (std::size_t fi = 0; fi < am; ++fi) {
        const Feature &feat = *marg_features[fi];
        for (const auto &obs : feat.observations) {
            if (obs.keyframe_index == feat.anchor_index)
                continue;
            evaluateVisualFactorInto(
                scratch.ev, camera, keyframes[0].pose,
                keyframes[obs.keyframe_index].pose, feat.anchor_bearing,
                feat.inverse_depth, obs.pixel);
            const VisualFactorEval &ev = scratch.ev;
            if (!ev.valid)
                continue;
            const double res[2] = {ev.residual.u, ev.residual.v};
            const std::size_t ra = kfOffset(0);
            const std::size_t rt = kfOffset(obs.keyframe_index);

            accumulateBlock(h, fi, fi, ev.j_depth, ev.j_depth, visual_weight);
            accumulateBlock(h, fi, ra, ev.j_depth, ev.j_anchor,
                            visual_weight);
            accumulateBlock(h, ra, fi, ev.j_anchor, ev.j_depth,
                            visual_weight);
            accumulateBlock(h, fi, rt, ev.j_depth, ev.j_target,
                            visual_weight);
            accumulateBlock(h, rt, fi, ev.j_target, ev.j_depth,
                            visual_weight);
            accumulateBlock(h, ra, ra, ev.j_anchor, ev.j_anchor,
                            visual_weight);
            accumulateBlock(h, ra, rt, ev.j_anchor, ev.j_target,
                            visual_weight);
            accumulateBlock(h, rt, ra, ev.j_target, ev.j_anchor,
                            visual_weight);
            accumulateBlock(h, rt, rt, ev.j_target, ev.j_target,
                            visual_weight);

            accumulateRhs(g, dim, fi, ev.j_depth, res, visual_weight);
            accumulateRhs(g, dim, ra, ev.j_anchor, res, visual_weight);
            accumulateRhs(g, dim, rt, ev.j_target, res, visual_weight);
        }
    }

    // IMU factor between keyframes 0 and 1.
    if (preint01 && preint01->sampleCount() > 0) {
        const ImuFactorEval ev =
            evaluateImuFactor(*preint01, keyframes[0], keyframes[1]);
        const linalg::Matrix &information = preint01->information();
        linalg::multiplyInto(scratch.imu_lr, information, ev.residual);
        linalg::multiplyInto(scratch.imu_li, information, ev.j_i);
        linalg::multiplyInto(scratch.imu_lj, information, ev.j_j);
        const linalg::Vector &lr = scratch.imu_lr;
        const std::size_t r0 = kfOffset(0);
        const std::size_t r1 = kfOffset(1);
        accumulateBlock(h, r0, r0, ev.j_i, scratch.imu_li, 1.0);
        accumulateBlock(h, r0, r1, ev.j_i, scratch.imu_lj, 1.0);
        accumulateBlock(h, r1, r0, ev.j_j, scratch.imu_li, 1.0);
        accumulateBlock(h, r1, r1, ev.j_j, scratch.imu_lj, 1.0);
        accumulateRhs(g, dim, r0, ev.j_i, lr.data().data(), 1.0);
        accumulateRhs(g, dim, r1, ev.j_j, lr.data().data(), 1.0);
    }

    // Old prior (covers keyframes [0, old_prior.keyframes())).
    if (!old_prior.empty()) {
        const linalg::Vector dx = old_prior.boxMinus(keyframes);
        const linalg::Vector grad_side =
            old_prior.informationVector() - old_prior.information() * dx;
        const std::size_t pd = old_prior.dim();
        for (std::size_t r = 0; r < pd; ++r) {
            g[am + r] += grad_side[r];
            for (std::size_t c = 0; c < pd; ++c)
                h(am + r, am + c) += old_prior.information()(r, c);
        }
    }

    // Split into marginalized (lambda block + kf0) and retained blocks.
    const std::size_t md = am + kKeyframeDof;
    const std::size_t rd = (b - 1) * kKeyframeDof;
    copyBlock(scratch.m, h, 0, 0, md, md);
    copyBlock(scratch.lambda, h, md, 0, rd, md);
    copyBlock(scratch.a, h, md, md, rd, rd);
    copySegment(scratch.bm, g, 0, md);
    copySegment(scratch.br, g, md, rd);

    // Light Tikhonov regularization keeps M invertible when the departing
    // keyframe is weakly constrained.
    for (std::size_t i = 0; i < md; ++i)
        scratch.m(i, i) += 1e-9;

    const linalg::MSchurResult schur =
        linalg::mSchur(scratch.m, scratch.lambda, scratch.a, scratch.bm,
                       scratch.br, /*diag_m11=*/am);

    std::vector<KeyframeState> lin(keyframes.begin() + 1, keyframes.end());

    MarginalizationResult out;
    out.prior = PriorFactor(schur.prior, schur.priorRhs, std::move(lin));
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
