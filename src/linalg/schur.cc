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

    // Element (r, c) of block (i, j) takes one term from each feature
    // whose support holds both blocks, and the per-feature elimination
    // added those terms in ascending feature order. Regrouping the work
    // by block pair keeps that order: each pair lists its features'
    // (segment i, segment j) in feature order, and its block is written
    // with one rank-k call. Every list, and every scaled segment, is
    // rewritten from the inputs on each call.
    std::size_t nblk = 0;
    for (const std::uint32_t blk : support_blocks)
        nblk = std::max<std::size_t>(nblk, blk + 1);
    const std::size_t ns = support_blocks.size();
    arena.reset();
    // Pair (i, j), i <= j, is entry i * nblk + j; (i, i) lists block i's
    // segments. Counted first, then filled through running cursors.
    std::size_t *start = arena.allocateArray<std::size_t>(nblk * nblk + 1);
    std::fill(start, start + nblk * nblk + 1, std::size_t{0});
    std::uint32_t *seg_feature = arena.allocateArray<std::uint32_t>(ns);
    for (std::size_t f = 0; f < m; ++f) {
        const std::size_t s0 = support_offsets[f];
        const std::size_t s1 = support_offsets[f + 1];
        for (std::size_t si = s0; si < s1; ++si) {
            const std::size_t bi = support_blocks[si];
            ARCHYTAS_DCHECK(si == s0 || bi > support_blocks[si - 1],
                            "sparse Schur: support blocks of feature ", f,
                            " not sorted unique");
            ARCHYTAS_DCHECK(bi * block_stride + d <= reduced.rows(),
                            "sparse Schur: block row ", bi * block_stride,
                            " out of range for ", reduced.rows());
            seg_feature[si] = static_cast<std::uint32_t>(f);
            for (std::size_t sj = si; sj < s1; ++sj)
                ++start[bi * nblk + support_blocks[sj] + 1];
        }
    }
    std::size_t max_k = 0;
    for (std::size_t p = 0; p < nblk * nblk; ++p) {
        max_k = std::max(max_k, start[p + 1]);
        start[p + 1] += start[p];
    }

    // Each pair entry names its block i and block j support entries.
    std::uint32_t *seg_i =
        arena.allocateArray<std::uint32_t>(start[nblk * nblk]);
    std::uint32_t *seg_j =
        arena.allocateArray<std::uint32_t>(start[nblk * nblk]);
    std::size_t *cursor = arena.allocateArray<std::size_t>(nblk * nblk);
    std::copy(start, start + nblk * nblk, cursor);
    for (std::size_t f = 0; f < m; ++f) {
        const std::size_t s1 = support_offsets[f + 1];
        for (std::size_t si = support_offsets[f]; si < s1; ++si) {
            const std::size_t row = support_blocks[si] * nblk;
            for (std::size_t sj = si; sj < s1; ++sj) {
                const std::size_t e = cursor[row + support_blocks[sj]]++;
                seg_i[e] = static_cast<std::uint32_t>(si);
                seg_j[e] = static_cast<std::uint32_t>(sj);
            }
        }
    }

    // Scaled segments -W U^{-1}, one per support entry. Signs move
    // exactly between factors, (-a) b = a (-b) = -(a b), and h - p is
    // h + (-p), so the negated scaled segment serves every product: the
    // block (i, j) rows scale w_j by it, its mirror scales it by w_j,
    // the rhs scales it by bx, and the diagonal adds its product with w.
    double *nwui = arena.allocateArray<double>(ns * d);
    for (std::size_t f = 0; f < m; ++f) {
        const double iu = inv_u[f];
        for (std::size_t t = support_offsets[f] * d;
             t < support_offsets[f + 1] * d; ++t)
            nwui[t] = -(w_blocks[t] * iu);
    }

    // One pair's operand lists, rewritten before each pair's calls: the
    // scaled segments of block i, the plain segments of block j, and the
    // features' bx (read for the diagonal pairs).
    const double **lhs = arena.allocateArray<const double *>(max_k);
    const double **rhs_seg = arena.allocateArray<const double *>(max_k);
    const double **bxf = arena.allocateArray<const double *>(max_k);
    const auto listPair = [&](std::size_t p) {
        const std::size_t k = start[p + 1] - start[p];
        for (std::size_t t = 0; t < k; ++t) {
            const std::size_t e = start[p] + t;
            lhs[t] = nwui + seg_i[e] * d;
            rhs_seg[t] = w_blocks.data() + seg_j[e] * d;
            bxf[t] = bx.data().data() + seg_feature[seg_i[e]];
        }
        return k;
    };

    const simd::Ops &v = simd::ops();
    const std::size_t ld = reduced.cols();
    double *rhsd = rhs.data().data();
    double *tile = arena.allocateArray<double>(d * d);
    for (std::size_t bi = 0; bi < nblk; ++bi) {
        const std::size_t k_diag = listPair(bi * nblk + bi);
        if (k_diag == 0)
            continue; // No feature touches block bi, nor any pair of it.
        const std::size_t rowi = bi * block_stride;

        // rhs -= W U^{-1} bx: block bi's segment takes bx_f (-W U^{-1})
        // from each of its features in order.
        v.rankUpdate(rhsd + rowi, d, bxf, lhs, k_diag, 1, d);

        // Diagonal block on a local tile: each feature's upper-triangle
        // product, added with its exact mirror (scalar multiply, then
        // add, as this translation unit always compiles).
        for (std::size_t r = 0; r < d; ++r) {
            const double *src = reduced.rowPtr(rowi + r) + rowi;
            std::copy(src, src + d, tile + r * d);
        }
        for (std::size_t t = 0; t < k_diag; ++t) {
            const double *a = lhs[t];
            const double *w = rhs_seg[t];
            for (std::size_t r = 0; r < d; ++r) {
                const double s = a[r];
                for (std::size_t c = r; c < d; ++c) {
                    const double acc = s * w[c];
                    tile[r * d + c] += acc;
                    if (c != r)
                        tile[c * d + r] += acc;
                }
            }
        }
        for (std::size_t r = 0; r < d; ++r)
            std::copy(tile + r * d, tile + r * d + d,
                      reduced.rowPtr(rowi + r) + rowi);

        // Off-diagonal pairs: block (i, j) row r adds (-W U^{-1})_i[r]
        // w_j, its mirror row c adds w_j[c] (-W U^{-1})_i, the commuted
        // product, so the reduced matrix stays exactly symmetric.
        for (std::size_t bj = bi + 1; bj < nblk; ++bj) {
            const std::size_t k = listPair(bi * nblk + bj);
            if (k == 0)
                continue;
            const std::size_t rowj = bj * block_stride;
            v.rankUpdate(reduced.rowPtr(rowi) + rowj, ld, lhs, rhs_seg, k,
                         d, d);
            v.rankUpdate(reduced.rowPtr(rowj) + rowi, ld, rhs_seg, lhs, k,
                         d, d);
        }
    }
}

void
subtractMSchur(Matrix &a, Vector &br, const Matrix &m, const Matrix &lambda,
               const Vector &bm, std::size_t diag_m11, MSchurWork &work)
{
    const std::size_t pm = m.rows();
    const std::size_t pr = a.rows();
    ARCHYTAS_CHECK_DIM("mSchur: square M required", m.cols(), pm);
    ARCHYTAS_CHECK_DIM("mSchur: square A required", a.cols(), pr);
    ARCHYTAS_CHECK_DIM("mSchur: Lambda rows", lambda.rows(), pr);
    ARCHYTAS_CHECK_DIM("mSchur: Lambda cols", lambda.cols(), pm);
    ARCHYTAS_CHECK_DIM("mSchur: bm size", bm.size(), pm);
    ARCHYTAS_CHECK_DIM("mSchur: br size", br.size(), pr);

    if (diag_m11 > 0)
        blockedInverseDiagonalM11(work.minv, m, diag_m11, work);
    else
        choleskyInverseInto(work.minv, m, work.chol);
    multiplyInto(work.lm, lambda, work.minv);
    // (Lambda M^{-1}) Lambda^T is symmetric (M^{-1} is): one triangle,
    // mirrored, no Lambda^T temporary.
    subtractSymmetricProduct(a, work.lm, lambda);
    subtractMultiply(br, work.lm, bm);
}

namespace {

/** dst = src's [r0, r0 + rows) x [c0, c0 + cols) block, reusing dst. */
void
copyBlock(Matrix &dst, const Matrix &src, std::size_t r0, std::size_t c0,
          std::size_t rows, std::size_t cols)
{
    if (dst.rows() != rows || dst.cols() != cols)
        dst = Matrix(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        const double *s = src.rowPtr(r0 + r) + c0;
        std::copy(s, s + cols, dst.rowPtr(r));
    }
}

} // namespace

void
blockedInverseDiagonalM11(Matrix &inv, const Matrix &m, std::size_t p,
                          MSchurWork &work)
{
    const std::size_t n = m.rows();
    ARCHYTAS_CHECK_DIM("blockedInverse: square matrix required", m.cols(), n);
    ARCHYTAS_DCHECK(p > 0 && p <= n, "blockedInverse: bad split ", p,
                    " for dimension ", n);
    ARCHYTAS_DCHECK(&inv != &m, "blockedInverse: inv aliases m");
    const std::size_t q = n - p;
    if (q == 0) {
        diagonalInverseInto(inv, m, n);
        return;
    }

    diagonalInverseInto(work.m11_inv, m, p);
    const Matrix &m11_inv = work.m11_inv;
    copyBlock(work.m12, m, 0, p, p, q);
    copyBlock(work.m21, m, p, 0, q, p);
    copyBlock(work.m22, m, p, p, q, q);

    // S' = M22 - M21 M11^{-1} M12 is itself a D-type Schur complement.
    multiplyInto(work.t, m11_inv, work.m12);      // M11^{-1} M12 (p x q)
    multiplyInto(work.sprime, work.m21, work.t);  // M21 (M11^{-1} M12)
    work.sprime *= -1.0;
    work.sprime += work.m22;
    choleskyInverseInto(work.sprime_inv, work.sprime, work.chol);

    // Eq. 5 of the paper, assembled with destination-passing products.
    multiplyInto(work.m21_m11inv, work.m21, m11_inv); // M21 M11^{-1}
    multiplyInto(work.bl, work.sprime_inv,
                 work.m21_m11inv);                 // S'^{-1} M21 M11^{-1}
    multiplyInto(work.t_sprime_inv, work.t,
                 work.sprime_inv);                 // M11^{-1} M12 S'^{-1}
    multiplyInto(work.tl, work.t_sprime_inv,
                 work.m21_m11inv);                 // t S'^{-1} M21 M11^{-1}
    work.tl += m11_inv;

    // The four blocks cover inv, so every entry is written.
    if (inv.rows() != n || inv.cols() != n)
        inv = Matrix(n, n);
    inv.setBlock(0, 0, work.tl);
    work.t_sprime_inv *= -1.0;
    inv.setBlock(0, p, work.t_sprime_inv);
    work.bl *= -1.0;
    inv.setBlock(p, 0, work.bl);
    inv.setBlock(p, p, work.sprime_inv);
}

} // namespace archytas::linalg
