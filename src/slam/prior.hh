/**
 * @file
 * The marginalization prior (H_p, r_p of Eq. 2). When the window slides,
 * the oldest keyframe and the features anchored in it are folded into a
 * quadratic prior over the retained keyframe states (Sec. 3.1,
 * marginalization step 3). The prior stores its linearization point; at
 * every later evaluation the deviation of the current states from that
 * point is measured on the manifold and the prior contributes
 * H_p to the Gauss-Newton Hessian and (r_p - H_p dx) to the gradient side.
 */

#ifndef ARCHYTAS_SLAM_PRIOR_HH
#define ARCHYTAS_SLAM_PRIOR_HH

#include <vector>

#include "linalg/matrix.hh"
#include "slam/state.hh"

namespace archytas::slam {

/**
 * Caller-owned buffers of one prior evaluation: the deviation dx and
 * H dx. Reused across calls (one per solver scratch), they leave
 * PriorFactor::cost and accumulate without heap allocations once sized.
 */
struct PriorWork
{
    linalg::Vector dx;
    linalg::Vector hdx;
};

/** Quadratic prior over the leading keyframes of the window. */
class PriorFactor
{
  public:
    PriorFactor() = default;

    /**
     * @param h   Information matrix over the covered keyframes
     *            (15 * keyframes() square).
     * @param r   Information vector at the linearization point.
     * @param lin Linearization states, one per covered keyframe; covered
     *            keyframes are window indices [0, lin.size()).
     */
    PriorFactor(linalg::Matrix h, linalg::Vector r,
                std::vector<KeyframeState> lin);

    bool empty() const { return lin_.empty(); }
    std::size_t keyframes() const { return lin_.size(); }
    std::size_t dim() const { return lin_.size() * kKeyframeDof; }

    const linalg::Matrix &information() const { return h_; }
    const linalg::Vector &informationVector() const { return r_; }
    const std::vector<KeyframeState> &linearization() const { return lin_; }

    /**
     * Manifold deviation dx of the given current states from the
     * linearization point, ordered [d_theta, d_p, d_v, d_bg, d_ba] per
     * keyframe. current must cover at least keyframes() entries.
     */
    linalg::Vector boxMinus(const std::vector<KeyframeState> &current) const;

    /** Prior cost 0.5 dx^T H dx - r^T dx at the given states. */
    double cost(const std::vector<KeyframeState> &current) const;

    /** As cost(current), computing dx and H dx in work's buffers. */
    double cost(const std::vector<KeyframeState> &current,
                PriorWork &work) const;

    /**
     * Accumulates the prior into dense normal equations over the window's
     * keyframe states, h_out (15b x 15b) += H and b_out += r - H dx, and
     * returns cost(current): one boxMinus and one H dx, computed in
     * work's buffers, serve both, with the same bits as the separate
     * calls.
     */
    double accumulate(const std::vector<KeyframeState> &current,
                      linalg::Matrix &h_out, linalg::Vector &b_out,
                      PriorWork &work) const;

    /**
     * accumulate()'s update without the cost, through raw rows: the
     * dim() x dim() block at h (row stride ldh) += H and the dim()
     * entries at g += r - H dx, with dx and H dx in work's buffers.
     * Marginalization adds the old prior at an offset with it.
     */
    void addTo(double *h, std::size_t ldh, double *g,
               const std::vector<KeyframeState> &current,
               PriorWork &work) const;

    /**
     * Drops the first keyframe's 15 rows/cols, used when the covered
     * keyframe itself gets marginalized with no factor coupling (not used
     * on the main path, provided for tests/tools).
     */
    PriorFactor shifted() const;

  private:
    /** work.dx = boxMinus(current) and work.hdx = H dx, each row summed
     *  left to right (four rows side by side); resizes the buffers only
     *  when the dimension changes. */
    void deviation(const std::vector<KeyframeState> &current,
                   PriorWork &work) const;
    /** 0.5 dx^T H dx - r^T dx from a deviation(). */
    double costFrom(const PriorWork &work) const;

    linalg::Matrix h_;
    linalg::Vector r_;
    std::vector<KeyframeState> lin_;
};

/** Manifold deviation of one keyframe from a linearization state. */
linalg::Vector keyframeBoxMinus(const KeyframeState &current,
                                const KeyframeState &lin);

} // namespace archytas::slam

#endif // ARCHYTAS_SLAM_PRIOR_HH
