#include "slam/prior.hh"

#include "common/contracts.hh"
#include "common/logging.hh"

namespace archytas::slam {

PriorFactor::PriorFactor(linalg::Matrix h, linalg::Vector r,
                         std::vector<KeyframeState> lin)
    : h_(std::move(h)), r_(std::move(r)), lin_(std::move(lin))
{
    ARCHYTAS_ASSERT(h_.rows() == dim() && h_.cols() == dim(),
                    "prior H dimension mismatch");
    ARCHYTAS_ASSERT(r_.size() == dim(), "prior r dimension mismatch");
}

namespace {

/** keyframeBoxMinus into kKeyframeDof entries at dx. */
void
keyframeBoxMinusInto(double *dx, const KeyframeState &current,
                     const KeyframeState &lin)
{
    const Mat3 r0t = lin.pose.q.toRotationMatrix().transposed();
    const Vec3 d_theta = so3Log(r0t * current.pose.q.toRotationMatrix());
    const Vec3 d_p = current.pose.p - lin.pose.p;
    const Vec3 d_v = current.velocity - lin.velocity;
    const Vec3 d_bg = current.bias_gyro - lin.bias_gyro;
    const Vec3 d_ba = current.bias_accel - lin.bias_accel;
    for (int i = 0; i < 3; ++i) {
        dx[i] = d_theta[i];
        dx[3 + i] = d_p[i];
        dx[6 + i] = d_v[i];
        dx[9 + i] = d_bg[i];
        dx[12 + i] = d_ba[i];
    }
}

} // namespace

linalg::Vector
keyframeBoxMinus(const KeyframeState &current, const KeyframeState &lin)
{
    linalg::Vector dx(kKeyframeDof);
    keyframeBoxMinusInto(dx.data().data(), current, lin);
    return dx;
}

linalg::Vector
PriorFactor::boxMinus(const std::vector<KeyframeState> &current) const
{
    ARCHYTAS_ASSERT(current.size() >= lin_.size(),
                    "prior covers more keyframes than the window holds");
    linalg::Vector dx(dim());
    for (std::size_t i = 0; i < lin_.size(); ++i)
        keyframeBoxMinusInto(dx.data().data() + i * kKeyframeDof,
                             current[i], lin_[i]);
    return dx;
}

void
PriorFactor::deviation(const std::vector<KeyframeState> &current,
                       PriorWork &work) const
{
    ARCHYTAS_ASSERT(current.size() >= lin_.size(),
                    "prior covers more keyframes than the window holds");
    const std::size_t n = dim();
    if (work.dx.size() != n)
        work.dx = linalg::Vector(n);
    if (work.hdx.size() != n)
        work.hdx = linalg::Vector(n);
    // Every entry of both buffers is overwritten, so reused storage
    // gives boxMinus()'s bits.
    double *d = work.dx.data().data();
    for (std::size_t i = 0; i < lin_.size(); ++i)
        keyframeBoxMinusInto(d + i * kKeyframeDof, current[i], lin_[i]);
    // H dx four rows at a time: each row keeps its own left-to-right
    // sum, and the four independent chains run side by side.
    double *hd = work.hdx.data().data();
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
        const double *h0 = h_.rowPtr(r);
        const double *h1 = h_.rowPtr(r + 1);
        const double *h2 = h_.rowPtr(r + 2);
        const double *h3 = h_.rowPtr(r + 3);
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        for (std::size_t c = 0; c < n; ++c) {
            const double dc = d[c];
            a0 += h0[c] * dc;
            a1 += h1[c] * dc;
            a2 += h2[c] * dc;
            a3 += h3[c] * dc;
        }
        hd[r] = a0;
        hd[r + 1] = a1;
        hd[r + 2] = a2;
        hd[r + 3] = a3;
    }
    for (; r < n; ++r) {
        const double *hrow = h_.rowPtr(r);
        double acc = 0.0;
        for (std::size_t c = 0; c < n; ++c)
            acc += hrow[c] * d[c];
        hd[r] = acc;
    }
}

double
PriorFactor::costFrom(const PriorWork &work) const
{
    return 0.5 * work.dx.dot(work.hdx) - r_.dot(work.dx);
}

double
PriorFactor::cost(const std::vector<KeyframeState> &current) const
{
    PriorWork work;
    return cost(current, work);
}

double
PriorFactor::cost(const std::vector<KeyframeState> &current,
                  PriorWork &work) const
{
    if (empty())
        return 0.0;
    deviation(current, work);
    return costFrom(work);
}

double
PriorFactor::accumulate(const std::vector<KeyframeState> &current,
                        linalg::Matrix &h_out, linalg::Vector &b_out,
                        PriorWork &work) const
{
    if (empty())
        return 0.0;
    ARCHYTAS_ASSERT(h_out.rows() >= dim() && h_out.cols() >= dim() &&
                        b_out.size() >= dim(),
                    "prior accumulate target too small");
    addTo(h_out.data().data(), h_out.cols(), b_out.data().data(), current,
          work);
    return costFrom(work);
}

void
PriorFactor::addTo(double *h, std::size_t ldh, double *g,
                   const std::vector<KeyframeState> &current,
                   PriorWork &work) const
{
    if (empty())
        return;
    ARCHYTAS_DCHECK(ldh >= dim(), "prior addTo: row stride ", ldh,
                    " shorter than the prior's ", dim(), " columns");
    deviation(current, work);
    const double *hdx = work.hdx.data().data();
    const double *rp = r_.data().data();
    for (std::size_t r = 0; r < dim(); ++r) {
        g[r] += rp[r] - hdx[r];
        const double *hrow = h_.rowPtr(r);
        double *orow = h + r * ldh;
        for (std::size_t c = 0; c < dim(); ++c)
            orow[c] += hrow[c];
    }
}

PriorFactor
PriorFactor::shifted() const
{
    if (lin_.size() <= 1)
        return PriorFactor();
    const std::size_t nd = dim() - kKeyframeDof;
    linalg::Matrix h(nd, nd);
    linalg::Vector r(nd);
    for (std::size_t i = 0; i < nd; ++i) {
        r[i] = r_[kKeyframeDof + i];
        for (std::size_t j = 0; j < nd; ++j)
            h(i, j) = h_(kKeyframeDof + i, kKeyframeDof + j);
    }
    std::vector<KeyframeState> lin(lin_.begin() + 1, lin_.end());
    return PriorFactor(std::move(h), std::move(r), std::move(lin));
}

} // namespace archytas::slam
