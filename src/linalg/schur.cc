#include "linalg/schur.hh"

#include <algorithm>

#include "common/contracts.hh"
#include "common/logging.hh"
#include "linalg/cholesky.hh"
#include "linalg/kernels.hh"
#include "linalg/simd.hh"

namespace archytas::linalg {

DSchurResult
dSchur(const Matrix &u, const Matrix &w, const Matrix &v, const Vector &bx,
       const Vector &by)
{
    const std::size_t p = u.rows();
    const std::size_t q = v.rows();
    ARCHYTAS_CHECK_DIM("dSchur: square U required", u.cols(), p);
    ARCHYTAS_CHECK_DIM("dSchur: square V required", v.cols(), q);
    ARCHYTAS_CHECK_DIM("dSchur: W rows", w.rows(), q);
    ARCHYTAS_CHECK_DIM("dSchur: W cols", w.cols(), p);
    ARCHYTAS_CHECK_DIM("dSchur: bx size", bx.size(), p);
    ARCHYTAS_CHECK_DIM("dSchur: by size", by.size(), q);

    // W U^{-1}: scale the columns of W by 1/u_ii -- O(pq) instead of O(p^2 q).
    Matrix wui(q, p);
    for (std::size_t c = 0; c < p; ++c) {
        const double uii = u(c, c);
        if (uii == 0.0)
            ARCHYTAS_FATAL("dSchur: singular diagonal U at ", c);
        const double inv = 1.0 / uii;
        for (std::size_t r = 0; r < q; ++r)
            wui(r, c) = w(r, c) * inv;
    }

    DSchurResult out;
    // (W U^{-1}) W^T is symmetric (U^{-1} is), so one triangle plus a
    // mirror halves the FLOPs versus the general product, and the
    // destination-passing kernels skip the W^T copy and the product
    // temporary entirely.
    out.reduced = v;
    subtractSymmetricProduct(out.reduced, wui, w);
    out.reducedRhs = by;
    subtractMultiply(out.reducedRhs, wui, bx);
    return out;
}

Vector
dSchurBackSubstitute(const Matrix &u, const Matrix &w, const Vector &bx,
                     const Vector &y)
{
    const std::size_t p = u.rows();
    ARCHYTAS_CHECK_DIM("dSchurBackSubstitute: W cols", w.cols(), p);
    ARCHYTAS_CHECK_DIM("dSchurBackSubstitute: bx size", bx.size(), p);
    ARCHYTAS_CHECK_DIM("dSchurBackSubstitute: y size", y.size(), w.rows());
    const Vector rhs = bx - transposeApply(w, y);
    Vector x(p);
    for (std::size_t i = 0; i < p; ++i) {
        ARCHYTAS_ASSERT(u(i, i) != 0.0, "singular diagonal U");
        x[i] = rhs[i] / u(i, i);
    }
    return x;
}

void
subtractBlockSparseSchur(Matrix &reduced, Vector &rhs, const Vector &bx,
                         const double *inv_u, std::size_t block_stride,
                         std::size_t segment,
                         const std::vector<std::uint32_t> &support_offsets,
                         const std::vector<std::uint32_t> &support_blocks,
                         const std::vector<double> &w_blocks,
                         common::Arena &arena)
{
    const std::size_t m =
        support_offsets.empty() ? 0 : support_offsets.size() - 1;
    const std::size_t d = segment;
    ARCHYTAS_CHECK_DIM("sparse Schur: square reduced", reduced.cols(),
                       reduced.rows());
    ARCHYTAS_CHECK_DIM("sparse Schur: rhs size", rhs.size(),
                       reduced.rows());
    ARCHYTAS_CHECK_DIM("sparse Schur: bx size", bx.size(), m);
    ARCHYTAS_CHECK_DIM("sparse Schur: w_blocks size", w_blocks.size(),
                       support_blocks.size() * d);
    ARCHYTAS_DCHECK(d <= block_stride, "sparse Schur: segment ", d,
                    " longer than the block stride ", block_stride);
    if (m == 0)
        return;

    // One scratch buffer sized for the widest feature's scaled columns.
    std::size_t max_blocks = 0;
    for (std::size_t f = 0; f < m; ++f)
        max_blocks = std::max<std::size_t>(
            max_blocks, support_offsets[f + 1] - support_offsets[f]);
    arena.reset();
    double *wui_f = arena.allocateArray<double>(max_blocks * d);
    // Negated copies of the scaled and the plain segments: the per-row
    // scales of the off-diagonal axpys. Negation is exact, so negating
    // once per feature gives every row the bits of negating per row.
    double *neg_wui_f = arena.allocateArray<double>(max_blocks * d);
    double *neg_wf = arena.allocateArray<double>(max_blocks * d);

    const simd::Ops &v = simd::ops();
    const std::size_t ld = reduced.cols();
    double *rhsd = rhs.data().data();
    for (std::size_t f = 0; f < m; ++f) {
        const std::size_t s0 = support_offsets[f];
        const std::size_t nb = support_offsets[f + 1] - s0;
        const double *wf = w_blocks.data() + s0 * d;
        const double iu = inv_u[f];
        const double bxf = bx[f];
        for (std::size_t t = 0; t < nb * d; ++t) {
            wui_f[t] = wf[t] * iu;
            neg_wui_f[t] = -wui_f[t];
            neg_wf[t] = -wf[t];
        }
        for (std::size_t bi = 0; bi < nb; ++bi) {
            const std::size_t rowi = support_blocks[s0 + bi] * block_stride;
            ARCHYTAS_DCHECK(bi == 0 || support_blocks[s0 + bi] >
                                           support_blocks[s0 + bi - 1],
                            "sparse Schur: support blocks of feature ", f,
                            " not sorted unique");
            ARCHYTAS_DCHECK(rowi + d <= reduced.rows(),
                            "sparse Schur: block row ", rowi,
                            " out of range for ", reduced.rows());
            const double *wi = wf + bi * d;
            const double *wui_i = wui_f + bi * d;

            // rhs -= W U^{-1} bx, one block segment at a time.
            v.axpy(rhsd + rowi, -bxf, wui_i, d);

            // Diagonal block: upper triangle plus an exact mirror.
            for (std::size_t r = 0; r < d; ++r) {
                double *rrow = reduced.rowPtr(rowi + r) + rowi;
                const double s = wui_i[r];
                for (std::size_t c = r; c < d; ++c) {
                    const double acc = s * wi[c];
                    rrow[c] -= acc;
                    if (c != r)
                        reduced.rowPtr(rowi + c)[rowi + r] -= acc;
                }
            }

            // Off-diagonal block pairs, one axpys per block: row r of
            // block (i, j) adds -wui_i[r] wj, row c of its mirror adds
            // -wj[c] wui_i. The mirror uses the commuted product
            // wj[c] * wui_i[r] == wui_i[r] * wj[c], so the reduced
            // matrix stays exactly symmetric.
            for (std::size_t bj = bi + 1; bj < nb; ++bj) {
                const std::size_t rowj =
                    support_blocks[s0 + bj] * block_stride;
                ARCHYTAS_DCHECK(rowj + d <= reduced.rows(),
                                "sparse Schur: block row ", rowj,
                                " out of range for ", reduced.rows());
                const double *wj = wf + bj * d;
                v.axpys(reduced.rowPtr(rowi) + rowj, ld, neg_wui_f + bi * d,
                        d, wj, d);
                v.axpys(reduced.rowPtr(rowj) + rowi, ld, neg_wf + bj * d, d,
                        wui_i, d);
            }
        }
    }
}

MSchurResult
mSchur(const Matrix &m, const Matrix &lambda, const Matrix &a,
       const Vector &bm, const Vector &br, std::size_t diag_m11)
{
    const std::size_t pm = m.rows();
    const std::size_t pr = a.rows();
    ARCHYTAS_CHECK_DIM("mSchur: square M required", m.cols(), pm);
    ARCHYTAS_CHECK_DIM("mSchur: square A required", a.cols(), pr);
    ARCHYTAS_CHECK_DIM("mSchur: Lambda rows", lambda.rows(), pr);
    ARCHYTAS_CHECK_DIM("mSchur: Lambda cols", lambda.cols(), pm);
    ARCHYTAS_CHECK_DIM("mSchur: bm size", bm.size(), pm);
    ARCHYTAS_CHECK_DIM("mSchur: br size", br.size(), pr);

    const Matrix minv = diag_m11 > 0 ? blockedInverseDiagonalM11(m, diag_m11)
                                     : choleskyInverse(m);
    Matrix lm;
    multiplyInto(lm, lambda, minv);
    MSchurResult out;
    // (Lambda M^{-1}) Lambda^T is symmetric (M^{-1} is): one triangle,
    // mirrored, no Lambda^T temporary.
    out.prior = a;
    subtractSymmetricProduct(out.prior, lm, lambda);
    out.priorRhs = br;
    subtractMultiply(out.priorRhs, lm, bm);
    return out;
}

Matrix
blockedInverseDiagonalM11(const Matrix &m, std::size_t p)
{
    const std::size_t n = m.rows();
    ARCHYTAS_CHECK_DIM("blockedInverse: square matrix required", m.cols(), n);
    ARCHYTAS_DCHECK(p > 0 && p <= n, "blockedInverse: bad split ", p,
                    " for dimension ", n);
    const std::size_t q = n - p;
    if (q == 0)
        return diagonalInverse(m);

    const Matrix m11 = m.block(0, 0, p, p);
    const Matrix m12 = m.block(0, p, p, q);
    const Matrix m21 = m.block(p, 0, q, p);
    const Matrix m22 = m.block(p, p, q, q);

    const Matrix m11_inv = diagonalInverse(m11);
    // S' = M22 - M21 M11^{-1} M12 is itself a D-type Schur complement.
    Matrix t;                      // M11^{-1} M12 (p x q)
    multiplyInto(t, m11_inv, m12);
    Matrix sprime;
    multiplyInto(sprime, m21, t);  // M21 (M11^{-1} M12)
    sprime *= -1.0;
    sprime += m22;
    const Matrix sprime_inv = choleskyInverse(sprime);

    // Eq. 5 of the paper, assembled with destination-passing products.
    Matrix m21_m11inv;             // M21 M11^{-1} (q x p)
    multiplyInto(m21_m11inv, m21, m11_inv);
    Matrix bl;                     // S'^{-1} M21 M11^{-1} (q x p)
    multiplyInto(bl, sprime_inv, m21_m11inv);
    Matrix t_sprime_inv;           // M11^{-1} M12 S'^{-1} (p x q)
    multiplyInto(t_sprime_inv, t, sprime_inv);
    Matrix tl;                     // t S'^{-1} (M21 M11^{-1}) (p x p)
    multiplyInto(tl, t_sprime_inv, m21_m11inv);
    tl += m11_inv;

    Matrix inv(n, n);
    inv.setBlock(0, 0, tl);
    t_sprime_inv *= -1.0;
    inv.setBlock(0, p, t_sprime_inv);
    bl *= -1.0;
    inv.setBlock(p, 0, bl);
    inv.setBlock(p, p, sprime_inv);
    return inv;
}

} // namespace archytas::linalg
