/**
 * @file
 * Assembles one sliding window's MAP problem (Eq. 2) into the blocked
 * Gauss-Newton normal equations A dp = b that the paper's accelerator
 * solves (Sec. 3.2.2):
 *
 *     A = [ U    W^T ]      b = [ bx ]
 *         [ W    V   ]          [ by ]
 *
 * with U the m x m *diagonal* inverse-depth block (one scalar per
 * feature), V the kb x kb keyframe block (the "S matrix" of Sec. 3.3 plus
 * the marginalization prior), and W the coupling block. Keeping U
 * strictly diagonal is what makes the D-type Schur elimination O(n)
 * instead of O(n^3) -- the observation at the heart of the paper's M-DFG
 * cost model.
 */

#ifndef ARCHYTAS_SLAM_WINDOW_PROBLEM_HH
#define ARCHYTAS_SLAM_WINDOW_PROBLEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.hh"
#include "linalg/matrix.hh"
#include "linalg/smatrix.hh"
#include "slam/factors.hh"
#include "slam/prior.hh"

namespace archytas::slam {

/** Blocked normal equations of one Gauss-Newton iteration. */
struct NormalEquations
{
    /** Diagonal of U (one inverse-depth entry per feature). */
    linalg::Vector u_diag;
    /** V: keyframe block (15 b square), prior included. */
    linalg::Matrix v;
    /** Feature-side right-hand side (m). */
    linalg::Vector bx;
    /** Keyframe-side right-hand side (15 b). */
    linalg::Vector by;
    /** Total cost (0.5 sum of squared weighted residuals + prior). */
    double cost = 0.0;

    /** Camera-only and IMU-only keyframe-block contributions (for the
     *  Sec. 3.3 storage study; prior and damping excluded). Filled only
     *  by BuildMode::kFull; empty in kSolve builds. */
    linalg::Matrix v_camera;
    linalg::Matrix v_imu;

    /**
     * W, the keyframe rows (15 b) x feature columns (m) coupling block,
     * stored only where it can be non-zero. Feature f touches the
     * keyframe blocks support_blocks[support_offsets[f] ..
     * support_offsets[f+1]) (sorted, unique: the anchor plus every
     * observed target keyframe), and visual factors fill only the
     * kPoseDof pose rows of a block (Sec. 3.3). So w_blocks holds,
     * contiguously per feature, the kPoseDof-long pose-row segment of W's
     * column f in each support block; every other entry of W is an exact
     * zero. The Schur elimination and the feature back-substitution walk
     * these segments (formReducedSystem, recoverFeatureIncrements), and
     * both refuse equations without them.
     */
    std::vector<std::uint32_t> support_offsets; //!< m + 1 entries.
    std::vector<std::uint32_t> support_blocks;
    std::vector<double> w_blocks;

    /** True when W's support structure above is populated. */
    bool
    hasSupport() const
    {
        return !support_offsets.empty() &&
               support_offsets.size() == u_diag.size() + 1 &&
               w_blocks.size() == support_blocks.size() * kPoseDof;
    }
};

/** What build() must fill (the storage-study splits cost extra work). */
enum class BuildMode
{
    kSolve, //!< Solver outputs only; v_camera / v_imu left empty.
    kFull,  //!< Also the Sec. 3.3 storage-study splits.
};

/**
 * One parallel chunk's visual-factor accumulators for build(). Visual
 * factors reach only the pose rows of a keyframe block, so the partial
 * packs the kPoseDof x kPoseDof pose blocks: (6 K)^2 for K keyframes,
 * not (15 K)^2. The partial and rhs live in the owning scratch's arena
 * (carved serially before the parallel region; see common/arena.hh
 * ownership rules); the factor-evaluation buffers keep their heap
 * storage across frames.
 */
struct AssemblyShard
{
    linalg::MatrixView v;  //!< Pose-pose partial (6 K x 6 K).
    double *by = nullptr;  //!< Pose rhs partial (6 K entries).
    double cost = 0.0;
    VisualFactorEval ev;   //!< Reused per-observation evaluation.
};

/**
 * Reusable window-assembly buffers: one instance per estimator/session,
 * never shared between concurrently-building sessions. The arena is
 * reset and re-carved each build. A warmed-up scratch leaves build() a
 * few small heap allocations per call, and more when the window's shape
 * changes (docs/PERFORMANCE.md lists them).
 */
struct AssemblyScratch
{
    common::Arena arena;                   //!< Backs the shard views.
    std::vector<AssemblyShard> shards;
    std::vector<std::uint32_t> tmp_blocks; //!< Support pre-pass buffer.
    /** Each keyframe's R, R^T and -R^T, computed once per build. */
    std::vector<KeyframeRotation> rotations;
    /** R_t^T R_a at [t * K + a] for target t != anchor a of K keyframes,
     *  computed once per build. */
    std::vector<Mat3> relative_rotations;
    ImuFactorEval imu;                     //!< Reused IMU evaluation.
    linalg::Matrix imu_li, imu_lj;         //!< Lambda J products.
    PriorWork prior;                       //!< Prior dx and H dx.
};

/**
 * Damped D-type Schur reduction: buffers plus outputs of the one solve
 * path (slam/lm_solver.cc), which the hardware window solver runs too.
 * One instance per solver scratch; reused across calls.
 */
struct ReducedSystem
{
    std::vector<double> u;     //!< Damped feature pivots.
    std::vector<double> inv_u; //!< Reciprocal pivots (W U^{-1} scaling).
    linalg::Matrix reduced;    //!< V_damped - W U^{-1} W^T.
    linalg::Vector rhs;        //!< by - W U^{-1} bx.
    common::Arena arena;       //!< Pair lists and scaled segments.
};

/**
 * Forms the damped reduced keyframe system of one LM step into rs:
 * reduced = V + lambda diag(V) - W U^{-1} W^T, rhs = by - W U^{-1} bx,
 * with pivots u = u_diag (1 + lambda) + eps. The elimination adds each
 * feature's outer product of its pose-row segments, block pair by block
 * pair in ascending feature order (linalg::subtractBlockSparseSchur), so
 * eq must carry the support structure that build() fills.
 */
void formReducedSystem(const NormalEquations &eq, double lambda,
                       ReducedSystem &rs);

/**
 * Recovers the eliminated feature increments after the reduced solve:
 * dx = U^{-1} (bx - W^T dy) with rs's damped pivots. Runs serially over
 * each feature's support segments (w_blocks), so eq must carry the
 * support structure that build() fills. The result equals the dense
 * W^T dy bit for bit: the support blocks ascend, so the non-zero terms
 * are subtracted in dense row order, and the rows skipped are exact
 * zeros.
 */
void recoverFeatureIncrements(linalg::Vector &dx,
                              const NormalEquations &eq,
                              const ReducedSystem &rs,
                              const linalg::Vector &dy);

/**
 * A sliding window's states plus the factors connecting them. The problem
 * owns nothing: it references the estimator's containers so that delta
 * application mutates the live states.
 */
class WindowProblem
{
  public:
    /**
     * @param camera      Shared camera intrinsics.
     * @param keyframes   Window keyframe states, oldest first.
     * @param features    Active features with window-indexed observations.
     * @param preints     preints[i] integrates keyframes i -> i+1; size
     *                    must be keyframes.size() - 1.
     * @param prior       Marginalization prior (may be empty).
     * @param pixel_sigma Visual measurement noise (pixels).
     * @param huber_delta Huber robust-kernel threshold in pixels for the
     *                    visual residuals (0 disables the kernel). With
     *                    the kernel on, observations whose residual
     *                    exceeds delta are IRLS-downweighted by
     *                    delta / |r|, which is how VINS-class systems
     *                    survive front-end outliers.
     */
    WindowProblem(const PinholeCamera &camera,
                  std::vector<KeyframeState> &keyframes,
                  std::vector<Feature> &features,
                  const std::vector<std::shared_ptr<ImuPreintegration>>
                      &preints,
                  const PriorFactor &prior, double pixel_sigma,
                  double huber_delta = 0.0);

    std::size_t keyframeCount() const { return keyframes_.size(); }
    std::size_t featureCount() const { return features_.size(); }
    /** Keyframe-side dimension 15 b. */
    std::size_t keyframeDim() const
    {
        return keyframes_.size() * kKeyframeDof;
    }

    /**
     * Builds the blocked normal equations at the current states into eq,
     * reusing the scratch's arena and shard buffers (allocation-free on
     * the per-observation path once warmed up). Deterministic at any
     * thread count: chunk boundaries depend only on the feature count
     * and the per-chunk shards merge in chunk order.
     */
    void build(NormalEquations &eq, AssemblyScratch &scratch,
               BuildMode mode) const;

    /** Convenience wrapper: transient scratch, BuildMode::kFull. */
    NormalEquations build() const;

    /**
     * Evaluates the cost only (used for LM step acceptance): residuals
     * without Jacobians, bit-identical to build()'s eq.cost. The prior's
     * deviation goes through prior_work, so a reused one makes the call
     * free of prior allocations.
     */
    double evaluateCost(PriorWork &prior_work) const;

    /** Convenience wrapper with transient prior buffers. */
    double evaluateCost() const;

    /**
     * Applies the solved increments: dy over keyframe states (15 b),
     * dx over feature inverse depths (m).
     */
    void applyDelta(const linalg::Vector &dy, const linalg::Vector &dx);

    /** Snapshot/restore for LM step rejection. */
    struct Snapshot
    {
        std::vector<KeyframeState> keyframes;
        std::vector<double> inverse_depths;
    };
    Snapshot snapshot() const;
    /** As snapshot(), reusing snap's storage (no allocation once warm). */
    void snapshotInto(Snapshot &snap) const;
    void restore(const Snapshot &snap);

    /** Total informative visual observations in the window. */
    std::size_t observationCount() const;

    const std::vector<KeyframeState> &keyframes() const
    {
        return keyframes_;
    }
    const std::vector<Feature> &features() const { return features_; }

  private:
    const PinholeCamera &camera_;
    std::vector<KeyframeState> &keyframes_;
    std::vector<Feature> &features_;
    const std::vector<std::shared_ptr<ImuPreintegration>> &preints_;
    const PriorFactor &prior_;
    double visual_weight_;   //!< 1 / sigma^2.
    double huber_delta_;     //!< Robust threshold (px); 0 = disabled.
};

} // namespace archytas::slam

#endif // ARCHYTAS_SLAM_WINDOW_PROBLEM_HH
