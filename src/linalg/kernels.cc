#include "linalg/kernels.hh"

#include <algorithm>

#include "common/contracts.hh"
#include "linalg/simd.hh"

namespace archytas::linalg {

namespace {

/** Reuses the destination's storage when the shape already matches. */
void
resizeMatrix(Matrix &out, std::size_t rows, std::size_t cols)
{
    if (out.rows() == rows && out.cols() == cols) {
        out.setZero();
        return;
    }
    // archytas-analyzer: allow(hot-path-alloc) -- shape-change slow path:
    // allocates only when the destination does not already fit, which the
    // steady-state solver loop never hits.
    out = Matrix(rows, cols);
}

/**
 * Rows (and rank-k terms) per batched-primitive call when a kernel needs
 * a small stack buffer of per-row scales or results. The batch bounds
 * stack use only: every row's arithmetic, and every element's term
 * order, is the same at any batch size.
 */
constexpr std::size_t kRowBatch = 16;

template <typename Dst>
void
addOuterProductTransposedImpl(Dst &h, std::size_t r0, std::size_t c0,
                              const Matrix &a, const Matrix &b, double wt)
{
    const std::size_t ac = a.cols();
    const std::size_t bc = b.cols();
    const simd::Ops &v = simd::ops();
    // Rank-k form: block row i takes (wt a(k, i)) b(k, :) for each
    // residual row k in order, so one rankUpdate over up to kRowBatch
    // residual rows writes each element's k terms in a register tile
    // (one call per 15 x 15 IMU block).
    double alpha[kRowBatch][kRowBatch];
    const double *alpha_rows[kRowBatch];
    const double *b_rows[kRowBatch];
    for (std::size_t k0 = 0; k0 < a.rows(); k0 += kRowBatch) {
        const std::size_t nk = std::min(kRowBatch, a.rows() - k0);
        for (std::size_t t = 0; t < nk; ++t) {
            alpha_rows[t] = alpha[t];
            b_rows[t] = b.rowPtr(k0 + t);
        }
        for (std::size_t i0 = 0; i0 < ac; i0 += kRowBatch) {
            const std::size_t nr = std::min(kRowBatch, ac - i0);
            for (std::size_t t = 0; t < nk; ++t) {
                const double *arow = a.rowPtr(k0 + t) + i0;
                for (std::size_t i = 0; i < nr; ++i)
                    alpha[t][i] = wt * arow[i];
            }
            v.rankUpdate(h.rowPtr(r0 + i0) + c0, h.cols(), alpha_rows,
                         b_rows, nk, nr, bc);
        }
    }
}

} // namespace

void
multiplyInto(Matrix &out, const Matrix &a, const Matrix &b)
{
    ARCHYTAS_CHECK_DIM("multiplyInto inner dimension", b.rows(), a.cols());
    ARCHYTAS_DCHECK(&out != &a && &out != &b,
                    "multiplyInto: destination aliases an operand");
    resizeMatrix(out, a.rows(), b.cols());
    const std::size_t inner = a.cols();
    const std::size_t cols = b.cols();
    const simd::Ops &v = simd::ops();
    // i-k-j order keeps the inner loop streaming over contiguous rows.
    for (std::size_t i = 0; i < a.rows(); ++i) {
        double *orow = out.rowPtr(i);
        const double *arow = a.rowPtr(i);
        for (std::size_t k = 0; k < inner; ++k) {
            const double av = arow[k];
            if (av == 0.0)
                continue;
            v.axpy(orow, av, b.rowPtr(k), cols);
        }
    }
}

void
multiplyInto(Vector &out, const Matrix &a, const Vector &x)
{
    ARCHYTAS_CHECK_DIM("multiplyInto matvec inner dimension", x.size(),
                       a.cols());
    ARCHYTAS_DCHECK(&out != &x, "multiplyInto: destination aliases x");
    if (out.size() != a.rows())
        // archytas-analyzer: allow(hot-path-alloc) -- shape-change slow
        // path; steady-state calls reuse the destination's storage.
        out = Vector(a.rows());
    simd::ops().dots(out.data().data(), a.data().data(), a.cols(), a.rows(),
                     x.data().data(), a.cols());
}

void
subtractMultiply(Vector &out, const Matrix &a, const Vector &x)
{
    ARCHYTAS_CHECK_DIM("subtractMultiply inner dimension", x.size(),
                       a.cols());
    ARCHYTAS_CHECK_DIM("subtractMultiply rows", out.size(), a.rows());
    ARCHYTAS_DCHECK(&out != &x, "subtractMultiply: destination aliases x");
    const simd::Ops &v = simd::ops();
    const double *xp = x.data().data();
    double *op = out.data().data();
    double dots[kRowBatch];
    for (std::size_t r0 = 0; r0 < a.rows(); r0 += kRowBatch) {
        const std::size_t nr = std::min(kRowBatch, a.rows() - r0);
        v.dots(dots, a.rowPtr(r0), a.cols(), nr, xp, a.cols());
        for (std::size_t r = 0; r < nr; ++r)
            op[r0 + r] -= dots[r];
    }
}

void
subtractSymmetricProduct(Matrix &c, const Matrix &a, const Matrix &b)
{
    const std::size_t n = a.rows();
    const std::size_t k = a.cols();
    ARCHYTAS_CHECK_DIM("subtractSymmetricProduct: b rows", b.rows(), n);
    ARCHYTAS_CHECK_DIM("subtractSymmetricProduct: b cols", b.cols(), k);
    ARCHYTAS_CHECK_DIM("subtractSymmetricProduct: c rows", c.rows(), n);
    ARCHYTAS_CHECK_DIM("subtractSymmetricProduct: c cols", c.cols(), n);
    ARCHYTAS_DCHECK(&c != &a && &c != &b,
                    "subtractSymmetricProduct: destination aliases an "
                    "operand");
    const simd::Ops &v = simd::ops();
    double acc[kRowBatch];
    for (std::size_t i = 0; i < n; ++i) {
        // Upper triangle of row i plus the mirrored subtraction; each
        // element is written once. Row i's dots come from one batched
        // dots per kRowBatch rows of b: dot(b_j, a_i) is dot(a_i, b_j)
        // bit for bit, because every product and fused multiply-add is
        // commutative in its two factors.
        const double *ai = a.rowPtr(i);
        double *ci = c.rowPtr(i);
        for (std::size_t j0 = i; j0 < n; j0 += kRowBatch) {
            const std::size_t nr = std::min(kRowBatch, n - j0);
            v.dots(acc, b.rowPtr(j0), k, nr, ai, k);
            for (std::size_t jj = 0; jj < nr; ++jj) {
                const std::size_t j = j0 + jj;
                ci[j] -= acc[jj];
                if (j != i)
                    c.rowPtr(j)[i] -= acc[jj];
            }
        }
    }
}

void
addOuterProductTransposed(Matrix &h, std::size_t r0, std::size_t c0,
                          const Matrix &a, const Matrix &b, double wt)
{
    ARCHYTAS_CHECK_DIM("addOuterProductTransposed: row counts", b.rows(),
                       a.rows());
    ARCHYTAS_DCHECK(r0 + a.cols() <= h.rows() && c0 + b.cols() <= h.cols(),
                    "addOuterProductTransposed: block [", r0, "+", a.cols(),
                    ", ", c0, "+", b.cols(), ") out of range for ",
                    h.rows(), "x", h.cols());
    addOuterProductTransposedImpl(h, r0, c0, a, b, wt);
}

void
addOuterProductTransposed(MatrixView &h, std::size_t r0, std::size_t c0,
                          const Matrix &a, const Matrix &b, double wt)
{
    ARCHYTAS_CHECK_DIM("addOuterProductTransposed: row counts", b.rows(),
                       a.rows());
    ARCHYTAS_DCHECK(r0 + a.cols() <= h.rows() && c0 + b.cols() <= h.cols(),
                    "addOuterProductTransposed: block [", r0, "+", a.cols(),
                    ", ", c0, "+", b.cols(), ") out of range for ",
                    h.rows(), "x", h.cols());
    addOuterProductTransposedImpl(h, r0, c0, a, b, wt);
}

void
subtractTransposeApplyScaled(Vector &g, std::size_t r0, const Matrix &a,
                             const double *x, double wt)
{
    ARCHYTAS_DCHECK(r0 + a.cols() <= g.size(),
                    "subtractTransposeApplyScaled: segment [", r0, "+",
                    a.cols(), ") out of range for size ", g.size());
    subtractTransposeApplyScaled(g.data().data(), g.size(), r0, a, x, wt);
}

void
subtractTransposeApplyScaled(double *g, std::size_t gsize, std::size_t r0,
                             const Matrix &a, const double *x, double wt)
{
    ARCHYTAS_DCHECK(r0 + a.cols() <= gsize,
                    "subtractTransposeApplyScaled: segment [", r0, "+",
                    a.cols(), ") out of range for size ", gsize);
    const simd::Ops &v = simd::ops();
    // Rank-1 form: g_seg -= (wt x[k]) a(k, :) streams a's rows.
    for (std::size_t k = 0; k < a.rows(); ++k)
        v.axpy(g + r0, -(wt * x[k]), a.rowPtr(k), a.cols());
}

} // namespace archytas::linalg
