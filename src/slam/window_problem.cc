#include "slam/window_problem.hh"

#include <algorithm>

#include "common/contracts.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/telemetry.hh"
#include "linalg/kernels.hh"
#include "linalg/schur.hh"
#include "linalg/simd.hh"

namespace archytas::slam {

namespace {

/**
 * Target number of accumulation chunks. The old fixed grain of 16
 * features produced ~40 chunks on a 600-feature window, and the per-
 * chunk overhead (zeroing and merging two full nk x nk partials each)
 * outweighed the parallel win -- assembly ran *slower* at 2 and 4
 * threads than at 1. Sizing the grain so at most kAssemblyShards chunks
 * exist bounds that overhead independently of the feature count.
 */
constexpr std::size_t kAssemblyShards = 8;

/** Smallest chunk worth forking for (below this, merges dominate). */
constexpr std::size_t kMinFeatureGrain = 32;

/**
 * Features per accumulation chunk. Depends only on the feature count --
 * never on the thread count -- so the chunk boundaries and the merge
 * order of the floating-point partial sums are identical at any thread
 * count (common/parallel.hh determinism contract). build() and
 * evaluateCost() share this so their costs agree bit-for-bit.
 */
std::size_t
featureGrain(std::size_t m)
{
    const std::size_t target = (m + kAssemblyShards - 1) / kAssemblyShards;
    return std::max(kMinFeatureGrain, target);
}

/** Reuses the destination's storage when the shape already matches. */
void
prepareMatrix(linalg::Matrix &out, std::size_t rows, std::size_t cols)
{
    if (out.rows() == rows && out.cols() == cols) {
        out.setZero();
        return;
    }
    out = linalg::Matrix(rows, cols);
}

void
prepareVector(linalg::Vector &out, std::size_t n)
{
    if (out.size() == n) {
        out.setZero();
        return;
    }
    out = linalg::Vector(n);
}

/**
 * dst += src for a pose-only visual partial: src packs the kPoseDof x
 * kPoseDof pose blocks of dst's kKeyframeDof-strided blocks. The other
 * rows and columns of the visual part are exact zeros, and a plain add
 * is the alpha = 1 axpy's single rounding, so dst ends with the bits a
 * full-size merge gives.
 */
void
addPoseBlocks(linalg::Matrix &dst, const linalg::MatrixView &src)
{
    const std::size_t nb = src.rows() / kPoseDof;
    for (std::size_t r = 0; r < src.rows(); ++r) {
        const double *srow = src.rowPtr(r);
        double *drow =
            dst.rowPtr(r / kPoseDof * kKeyframeDof + r % kPoseDof);
        for (std::size_t bj = 0; bj < nb; ++bj)
            for (std::size_t c = 0; c < kPoseDof; ++c)
                drow[bj * kKeyframeDof + c] += srow[bj * kPoseDof + c];
    }
}

/** As addPoseBlocks for a pose-only rhs partial of n entries. */
void
addPoseSegments(linalg::Vector &dst, const double *src, std::size_t n)
{
    double *d = dst.data().data();
    for (std::size_t r = 0; r < n; ++r)
        d[r / kPoseDof * kKeyframeDof + r % kPoseDof] += src[r];
}

/** Huber IRLS weight of one visual residual: quadratic inside delta,
 *  linear beyond (delta 0 disables the kernel). */
double
huberWeight(double weight, double delta, const Vec2 &res)
{
    if (delta > 0.0) {
        const double norm = res.norm();
        if (norm > delta)
            weight *= delta / norm;
    }
    return weight;
}

/**
 * One IMU factor's cost 0.5 r^T Lambda r, leaving lr = Lambda r for the
 * rhs. The row products run on one simd dots, as multiplyInto does, and
 * the outer dot sums left to right, so build() and evaluateCost() agree
 * bit for bit.
 */
double
imuCost(const linalg::Matrix &information, const double *r, double *lr)
{
    ARCHYTAS_CHECK_DIM("imuCost: information rows", information.rows(),
                       kKeyframeDof);
    ARCHYTAS_CHECK_DIM("imuCost: information cols", information.cols(),
                       kKeyframeDof);
    linalg::simd::ops().dots(lr, information.rowPtr(0), kKeyframeDof,
                             kKeyframeDof, r, kKeyframeDof);
    double acc = 0.0;
    for (std::size_t i = 0; i < kKeyframeDof; ++i)
        acc += r[i] * lr[i];
    return 0.5 * acc;
}

/**
 * Support entry of keyframe block blk for a feature whose support starts
 * at entry s0, searched from the cursor s: a feature's observations
 * ascend by keyframe, so the cursor only moves forward along its sorted
 * support, and an out-of-order observation rescans from s0. blk must be
 * in the support.
 */
std::size_t
supportEntry(const NormalEquations &eq, std::size_t s0, std::size_t s,
             std::size_t blk)
{
    if (eq.support_blocks[s] > blk)
        s = s0;
    while (eq.support_blocks[s] != blk)
        ++s;
    return s;
}

} // namespace

WindowProblem::WindowProblem(
    const PinholeCamera &camera, std::vector<KeyframeState> &keyframes,
    std::vector<Feature> &features,
    const std::vector<std::shared_ptr<ImuPreintegration>> &preints,
    const PriorFactor &prior, double pixel_sigma, double huber_delta)
    : camera_(camera), keyframes_(keyframes), features_(features),
      preints_(preints), prior_(prior),
      visual_weight_(1.0 / (pixel_sigma * pixel_sigma)),
      huber_delta_(huber_delta)
{
    ARCHYTAS_ASSERT(!keyframes_.empty(), "empty window");
    ARCHYTAS_ASSERT(preints_.size() + 1 == keyframes_.size(),
                    "need one preintegration per consecutive pair: ",
                    preints_.size(), " preints for ", keyframes_.size(),
                    " keyframes");
    ARCHYTAS_ASSERT(prior_.keyframes() <= keyframes_.size(),
                    "prior covers keyframes outside the window");
}

NormalEquations
WindowProblem::build() const
{
    NormalEquations eq;
    AssemblyScratch scratch;
    build(eq, scratch, BuildMode::kFull);
    return eq;
}

void
WindowProblem::build(NormalEquations &eq, AssemblyScratch &scratch,
                     BuildMode mode) const
{
    ARCHYTAS_SPAN("solver", "solver.jacobian");
    const std::size_t m = features_.size();
    const std::size_t nk = keyframeDim();
    // Visual factors reach only the pose rows of a keyframe block, so the
    // shards pack those: np = 6 K rows instead of nk = 15 K.
    const std::size_t np = keyframes_.size() * kPoseDof;

    prepareVector(eq.u_diag, m);
    prepareMatrix(eq.v, nk, nk);
    prepareVector(eq.bx, m);
    prepareVector(eq.by, nk);
    if (mode == BuildMode::kFull) {
        prepareMatrix(eq.v_camera, nk, nk);
        prepareMatrix(eq.v_imu, nk, nk);
    } else {
        eq.v_camera = linalg::Matrix();
        eq.v_imu = linalg::Matrix();
    }

    // --- Support pre-pass (serial) ---
    // Records which keyframe blocks each feature's W column touches
    // (anchor plus observed targets, sorted unique): W is stored only as
    // the pose-row segments of those blocks, which the parallel fill
    // below accumulates into.
    eq.support_offsets.clear();
    eq.support_blocks.clear();
    eq.support_offsets.reserve(m + 1);
    eq.support_offsets.push_back(0);
    std::vector<std::uint32_t> &blocks = scratch.tmp_blocks;
    for (std::size_t f = 0; f < m; ++f) {
        const Feature &feat = features_[f];
        ARCHYTAS_ASSERT(feat.anchor_index < keyframes_.size(),
                        "feature anchored outside window");
        blocks.clear();
        blocks.push_back(static_cast<std::uint32_t>(feat.anchor_index));
        for (const auto &obs : feat.observations) {
            if (obs.keyframe_index == feat.anchor_index)
                continue;
            ARCHYTAS_ASSERT(obs.keyframe_index < keyframes_.size(),
                            "observation outside window");
            blocks.push_back(
                static_cast<std::uint32_t>(obs.keyframe_index));
        }
        std::sort(blocks.begin(), blocks.end());
        blocks.erase(std::unique(blocks.begin(), blocks.end()),
                     blocks.end());
        eq.support_blocks.insert(eq.support_blocks.end(), blocks.begin(),
                                 blocks.end());
        eq.support_offsets.push_back(
            static_cast<std::uint32_t>(eq.support_blocks.size()));
    }
    eq.w_blocks.assign(eq.support_blocks.size() * kPoseDof, 0.0);

    // --- Shard carving (serial; the arena is not thread-safe) ---
    const std::size_t grain = featureGrain(m);
    const std::size_t nchunks = m == 0 ? 0 : (m + grain - 1) / grain;
    if (scratch.shards.size() != nchunks)
        scratch.shards.resize(nchunks);
    scratch.arena.reset();
    for (std::size_t c = 0; c < nchunks; ++c) {
        AssemblyShard &sh = scratch.shards[c];
        sh.v = linalg::MatrixView(
            scratch.arena.allocateArray<double>(np * np), np, np);
        sh.by = scratch.arena.allocateArray<double>(np);
        sh.v.setZero();
        std::fill(sh.by, sh.by + np, 0.0);
        sh.cost = 0.0;
    }

    // --- Keyframe rotations (serial): R, R^T and -R^T once per keyframe,
    // read by every visual factor anchored in or observed from it, and
    // R_t^T R_a once per (target, anchor) pair ---
    const std::size_t nkf = keyframes_.size();
    std::vector<KeyframeRotation> &rot = scratch.rotations;
    rot.resize(nkf);
    for (std::size_t k = 0; k < nkf; ++k)
        rot[k] = keyframeRotation(keyframes_[k].pose);
    std::vector<Mat3> &r_ta = scratch.relative_rotations;
    r_ta.resize(nkf * nkf);
    for (std::size_t t = 0; t < nkf; ++t)
        for (std::size_t a = 0; a < nkf; ++a)
            if (a != t)
                r_ta[t * nkf + a] = rot[t].r_t * rot[a].r;

    // --- Visual factors (parallel per-feature chunk) ---
    // Feature f exclusively owns u_diag[f], bx[f] and its w_blocks
    // segments, so chunk tasks write those into the shared system
    // directly (disjoint writes). The pose blocks of V, the rhs
    // by, and the cost are shared sums: each chunk accumulates into its
    // own arena-backed pose-only shard and the shards merge sequentially
    // in chunk order below, so the result is bit-identical at any thread
    // count.
    parallel::parallelForChunks(
        0, m, grain, [&](std::size_t b, std::size_t e) {
            AssemblyShard &sh = scratch.shards[b / grain];
            for (std::size_t f = b; f < e; ++f) {
                const Feature &feat = features_[f];
                const std::size_t a_idx = feat.anchor_index;
                const FeatureAnchor fa =
                    featureAnchor(keyframes_[a_idx].pose,
                                  feat.anchor_bearing, feat.inverse_depth);
                if (!fa.valid)
                    continue; // Every observation would project badly.
                const std::size_t s0 = eq.support_offsets[f];
                double *w_anchor =
                    eq.w_blocks.data() +
                    supportEntry(eq, s0, s0, a_idx) * kPoseDof;
                std::size_t cursor = s0;
                for (const auto &obs : feat.observations) {
                    const std::size_t t_idx = obs.keyframe_index;
                    if (t_idx == a_idx)
                        continue; // Anchor observation: no information.
                    evaluateVisualFactorInto(
                        sh.ev, camera_, fa, keyframes_[t_idx].pose,
                        rot[t_idx], r_ta[t_idx * nkf + a_idx], obs.pixel);
                    const VisualFactorEval &ev = sh.ev;
                    if (!ev.valid)
                        continue;

                    const double res[2] = {ev.residual.u, ev.residual.v};
                    const double wt =
                        huberWeight(visual_weight_, huber_delta_,
                                    ev.residual);
                    sh.cost +=
                        0.5 * wt * (res[0] * res[0] + res[1] * res[1]);

                    // U (diagonal): j_depth^T j_depth, and bx.
                    const double jd0 = ev.j_depth.m[0];
                    const double jd1 = ev.j_depth.m[1];
                    eq.u_diag[f] += wt * (jd0 * jd0 + jd1 * jd1);
                    eq.bx[f] -= wt * (jd0 * res[0] + jd1 * res[1]);

                    // W: column f's anchor and target pose segments.
                    cursor = supportEntry(eq, s0, cursor, t_idx);
                    addVisualCoupling(w_anchor, 1, ev.j_anchor, ev.j_depth,
                                      wt);
                    addVisualCoupling(eq.w_blocks.data() +
                                          cursor * kPoseDof,
                                      1, ev.j_target, ev.j_depth, wt);

                    // V's (a,a), (a,t), (t,a), (t,t) pose blocks and the
                    // pose rhs, at the shard's 6-strided rows.
                    addVisualPoseBlocks(sh.v.data(), np, sh.by,
                                        a_idx * kPoseDof, t_idx * kPoseDof,
                                        ev, wt);
                }
            }
        });

    // --- Ordered merge (chunk order == ascending feature order) ---
    double cost = 0.0;
    for (std::size_t c = 0; c < nchunks; ++c) {
        const AssemblyShard &sh = scratch.shards[c];
        addPoseBlocks(eq.v, sh.v);
        addPoseSegments(eq.by, sh.by, np);
        cost += sh.cost;
        // The camera-only split receives exactly the visual-factor
        // updates, which is precisely what the shards hold.
        if (mode == BuildMode::kFull)
            addPoseBlocks(eq.v_camera, sh.v);
    }

    // --- IMU factors (adjacent keyframes only; serial, at most one per
    // pair, with hoisted evaluation and product scratch) ---
    for (std::size_t i = 0; i + 1 < keyframes_.size(); ++i) {
        if (!preints_[i] || preints_[i]->sampleCount() == 0)
            continue;
        ImuFactorEval &ev = scratch.imu;
        evaluateImuFactorInto(ev, *preints_[i], keyframes_[i],
                              keyframes_[i + 1]);
        const linalg::Matrix &information = preints_[i]->information();
        double lr[kKeyframeDof];
        cost += imuCost(information, ev.residual.data().data(), lr);

        const std::size_t ri = i * kKeyframeDof;
        const std::size_t rj = (i + 1) * kKeyframeDof;

        // H += J^T Lambda J for both state blocks.
        linalg::Matrix &li = scratch.imu_li;
        linalg::Matrix &lj = scratch.imu_lj;
        linalg::multiplyInto(li, information, ev.j_i);
        linalg::multiplyInto(lj, information, ev.j_j);
        linalg::addOuterProductTransposed(eq.v, ri, ri, ev.j_i, li, 1.0);
        linalg::addOuterProductTransposed(eq.v, ri, rj, ev.j_i, lj, 1.0);
        linalg::addOuterProductTransposed(eq.v, rj, ri, ev.j_j, li, 1.0);
        linalg::addOuterProductTransposed(eq.v, rj, rj, ev.j_j, lj, 1.0);
        if (mode == BuildMode::kFull) {
            linalg::addOuterProductTransposed(eq.v_imu, ri, ri, ev.j_i,
                                              li, 1.0);
            linalg::addOuterProductTransposed(eq.v_imu, ri, rj, ev.j_i,
                                              lj, 1.0);
            linalg::addOuterProductTransposed(eq.v_imu, rj, ri, ev.j_j,
                                              li, 1.0);
            linalg::addOuterProductTransposed(eq.v_imu, rj, rj, ev.j_j,
                                              lj, 1.0);
        }

        linalg::subtractTransposeApplyScaled(eq.by, ri, ev.j_i, lr, 1.0);
        linalg::subtractTransposeApplyScaled(eq.by, rj, ev.j_j, lr, 1.0);
    }

    // --- Marginalization prior ---
    cost += prior_.accumulate(keyframes_, eq.v, eq.by, scratch.prior);

    eq.cost = cost;
}

double
WindowProblem::evaluateCost() const
{
    PriorWork prior_work;
    return evaluateCost(prior_work);
}

double
WindowProblem::evaluateCost(PriorWork &prior_work) const
{
    // Residuals only. Same fixed chunking and merge order as build(), so
    // the two cost paths agree bit-for-bit at any thread count.
    double cost = 0.0;
    parallel::mapReduceOrdered(
        0, features_.size(), featureGrain(features_.size()),
        [] { return 0.0; },
        [&](double &partial, std::size_t f) {
            const Feature &feat = features_[f];
            const FeatureAnchor fa =
                featureAnchor(keyframes_[feat.anchor_index].pose,
                              feat.anchor_bearing, feat.inverse_depth);
            if (!fa.valid)
                return; // Every observation would project badly.
            for (const auto &obs : feat.observations) {
                if (obs.keyframe_index == feat.anchor_index)
                    continue;
                Vec2 res;
                if (!evaluateVisualResidual(
                        res, camera_, fa,
                        keyframes_[obs.keyframe_index].pose, obs.pixel))
                    continue;
                const double wt =
                    huberWeight(visual_weight_, huber_delta_, res);
                partial += 0.5 * wt * (res.u * res.u + res.v * res.v);
            }
        },
        [&](double &&partial) { cost += partial; });
    for (std::size_t i = 0; i + 1 < keyframes_.size(); ++i) {
        if (!preints_[i] || preints_[i]->sampleCount() == 0)
            continue;
        const ImuResidual r =
            evaluateImuResidual(*preints_[i], keyframes_[i], keyframes_[i+1]);
        double lr[kKeyframeDof];
        cost += imuCost(preints_[i]->information(), r.data(), lr);
    }
    cost += prior_.cost(keyframes_, prior_work);
    return cost;
}

void
formReducedSystem(const NormalEquations &eq, double lambda,
                  ReducedSystem &rs)
{
    ARCHYTAS_ASSERT(eq.hasSupport(),
                    "formReducedSystem needs W's support structure");
    const std::size_t m = eq.u_diag.size();
    const std::size_t nk = eq.v.rows();
    ARCHYTAS_CHECK_DIM("formReducedSystem: square V", eq.v.cols(), nk);
    ARCHYTAS_CHECK_DIM("formReducedSystem: by size", eq.by.size(), nk);

    // Damped feature pivots and their reciprocals.
    rs.u.resize(m);
    rs.inv_u.resize(m);
    for (std::size_t f = 0; f < m; ++f) {
        rs.u[f] = eq.u_diag[f] * (1.0 + lambda) + 1e-12;
        rs.inv_u[f] = 1.0 / rs.u[f];
    }

    // Damped reduced system seed: V + lambda diag(V).
    rs.reduced = eq.v;
    for (std::size_t i = 0; i < nk; ++i)
        rs.reduced(i, i) += lambda * eq.v(i, i) + 1e-12;
    rs.rhs = eq.by;

    linalg::subtractBlockSparseSchur(
        rs.reduced, rs.rhs, eq.bx, rs.inv_u.data(), kKeyframeDof, kPoseDof,
        eq.support_offsets, eq.support_blocks, eq.w_blocks, rs.arena);
}

void
recoverFeatureIncrements(linalg::Vector &dx, const NormalEquations &eq,
                         const ReducedSystem &rs, const linalg::Vector &dy)
{
    ARCHYTAS_ASSERT(eq.hasSupport(),
                    "recoverFeatureIncrements needs W's support structure");
    const std::size_t m = eq.u_diag.size();
    ARCHYTAS_CHECK_DIM("recoverFeatureIncrements: dy size", dy.size(),
                       eq.by.size());
    ARCHYTAS_CHECK_DIM("recoverFeatureIncrements: pivots", rs.u.size(), m);
    if (dx.size() != m)
        dx = linalg::Vector(m);
    const double *dyd = dy.data().data();
    double *dxd = dx.data().data();
    // W's column f is zero outside the pose rows of its support blocks,
    // which ascend, so the segment walk subtracts the dense column's
    // non-zero terms in the dense order; the terms it skips are exact
    // zeros.
    for (std::size_t f = 0; f < m; ++f) {
        double acc = eq.bx[f];
        for (std::size_t s = eq.support_offsets[f];
             s < eq.support_offsets[f + 1]; ++s) {
            const double *seg = eq.w_blocks.data() + s * kPoseDof;
            const double *dyb = dyd + eq.support_blocks[s] * kKeyframeDof;
            for (std::size_t r = 0; r < kPoseDof; ++r)
                acc -= seg[r] * dyb[r];
        }
        dxd[f] = acc / rs.u[f];
    }
}

void
WindowProblem::applyDelta(const linalg::Vector &dy, const linalg::Vector &dx)
{
    ARCHYTAS_ASSERT(dy.size() == keyframeDim(), "dy dimension mismatch");
    ARCHYTAS_ASSERT(dx.size() == features_.size(), "dx dimension mismatch");
    for (std::size_t i = 0; i < keyframes_.size(); ++i)
        keyframes_[i].applyDelta(dy, i * kKeyframeDof);
    for (std::size_t f = 0; f < features_.size(); ++f)
        features_[f].inverse_depth += dx[f];
}

WindowProblem::Snapshot
WindowProblem::snapshot() const
{
    Snapshot snap;
    snapshotInto(snap);
    return snap;
}

void
WindowProblem::snapshotInto(Snapshot &snap) const
{
    snap.keyframes = keyframes_;
    snap.inverse_depths.resize(features_.size());
    for (std::size_t f = 0; f < features_.size(); ++f)
        snap.inverse_depths[f] = features_[f].inverse_depth;
}

void
WindowProblem::restore(const Snapshot &snap)
{
    ARCHYTAS_ASSERT(snap.keyframes.size() == keyframes_.size() &&
                        snap.inverse_depths.size() == features_.size(),
                    "snapshot shape mismatch");
    keyframes_ = snap.keyframes;
    for (std::size_t f = 0; f < features_.size(); ++f)
        features_[f].inverse_depth = snap.inverse_depths[f];
}

std::size_t
WindowProblem::observationCount() const
{
    std::size_t n = 0;
    for (const Feature &f : features_)
        n += f.informativeObservations();
    return n;
}

} // namespace archytas::slam
