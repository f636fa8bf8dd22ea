#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "linalg/cholesky.hh"
#include "linalg/schur.hh"
#include "linalg/simd.hh"

namespace archytas::linalg {
namespace {

Matrix
randomSpd(std::size_t n, Rng &rng, double ridge)
{
    Matrix a(n, n);
    for (auto &x : a.data())
        x = rng.uniform(-1, 1);
    Matrix spd = a.transposed() * a;
    for (std::size_t i = 0; i < n; ++i)
        spd(i, i) += ridge;
    return spd;
}

/**
 * Builds a random SPD blocked system [[U, W^T], [W, V]] with diagonal U
 * and returns (u, w, v, bx, by, full, b).
 */
struct BlockedSystem
{
    Matrix u, w, v;
    Vector bx, by;
    Matrix full;
    Vector b;
};

BlockedSystem
randomBlockedSystem(std::size_t p, std::size_t q, Rng &rng)
{
    BlockedSystem s;
    s.u = Matrix(p, p);
    for (std::size_t i = 0; i < p; ++i)
        s.u(i, i) = rng.uniform(1.0, 4.0);
    s.w = Matrix(q, p);
    for (auto &x : s.w.data())
        x = rng.uniform(-0.3, 0.3);
    s.v = randomSpd(q, rng, static_cast<double>(p + q));
    s.bx = Vector(p);
    s.by = Vector(q);
    for (std::size_t i = 0; i < p; ++i)
        s.bx[i] = rng.uniform(-1, 1);
    for (std::size_t i = 0; i < q; ++i)
        s.by[i] = rng.uniform(-1, 1);

    s.full = Matrix(p + q, p + q);
    s.full.setBlock(0, 0, s.u);
    s.full.setBlock(0, p, s.w.transposed());
    s.full.setBlock(p, 0, s.w);
    s.full.setBlock(p, p, s.v);
    s.b = Vector(p + q);
    s.b.setSegment(0, s.bx);
    s.b.setSegment(p, s.by);
    return s;
}

TEST(DSchur, MatchesDirectSolve)
{
    Rng rng(17);
    const auto sys = randomBlockedSystem(12, 6, rng);

    const DSchurResult red = dSchur(sys.u, sys.w, sys.v, sys.bx, sys.by);
    const Vector y = choleskySolve(red.reduced, red.reducedRhs);
    const Vector x = dSchurBackSubstitute(sys.u, sys.w, sys.bx, y);

    const Vector direct = choleskySolve(sys.full, sys.b);
    for (std::size_t i = 0; i < 12; ++i)
        EXPECT_NEAR(x[i], direct[i], 1e-8);
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_NEAR(y[i], direct[12 + i], 1e-8);
}

TEST(DSchur, ReducedSystemIsSymmetric)
{
    Rng rng(23);
    const auto sys = randomBlockedSystem(8, 5, rng);
    const DSchurResult red = dSchur(sys.u, sys.w, sys.v, sys.bx, sys.by);
    EXPECT_TRUE(red.reduced.isSymmetric(1e-10));
}

TEST(DSchur, SingularDiagonalThrows)
{
    Matrix u = Matrix::diagonal({1.0, 0.0});
    Matrix w(1, 2);
    Matrix v = Matrix::identity(1);
    EXPECT_THROW(dSchur(u, w, v, Vector(2), Vector(1)),
                 std::runtime_error);
}

TEST(MSchur, MatchesDirectMarginalization)
{
    Rng rng(31);
    const std::size_t pm = 7, pr = 5;
    // Build a full SPD H and split it.
    const Matrix h = randomSpd(pm + pr, rng, static_cast<double>(pm + pr));
    const Matrix m = h.block(0, 0, pm, pm);
    const Matrix lambda = h.block(pm, 0, pr, pm);
    const Matrix a = h.block(pm, pm, pr, pr);
    Vector bm(pm), br(pr);
    for (std::size_t i = 0; i < pm; ++i)
        bm[i] = rng.uniform(-1, 1);
    for (std::size_t i = 0; i < pr; ++i)
        br[i] = rng.uniform(-1, 1);

    Matrix prior = a;
    Vector prior_rhs = br;
    MSchurWork work;
    subtractMSchur(prior, prior_rhs, m, lambda, bm, 0, work);

    // Reference: direct dense computation.
    const Matrix minv = choleskyInverse(m);
    const Matrix ref_h = a - lambda * minv * lambda.transposed();
    const Vector ref_r = br - lambda * (minv * bm);
    EXPECT_LT(prior.maxAbsDiff(ref_h), 1e-9);
    EXPECT_LT(prior_rhs.maxAbsDiff(ref_r), 1e-9);
}

TEST(MSchur, BlockedDiagonalPathMatchesDensePath)
{
    Rng rng(37);
    const std::size_t diag = 9, rest = 6, pr = 5;
    const std::size_t pm = diag + rest;
    // M with a diagonal leading block.
    Matrix m = randomSpd(pm, rng, static_cast<double>(pm));
    for (std::size_t r = 0; r < diag; ++r)
        for (std::size_t c = 0; c < diag; ++c)
            if (r != c)
                m(r, c) = 0.0;

    Matrix lambda(pr, pm);
    for (auto &x : lambda.data())
        x = rng.uniform(-0.5, 0.5);
    const Matrix a = randomSpd(pr, rng, 3.0);
    Vector bm(pm), br(pr);
    for (std::size_t i = 0; i < pm; ++i)
        bm[i] = rng.uniform(-1, 1);
    for (std::size_t i = 0; i < pr; ++i)
        br[i] = rng.uniform(-1, 1);

    Matrix dense = a, blocked = a;
    Vector dense_rhs = br, blocked_rhs = br;
    MSchurWork work;
    subtractMSchur(dense, dense_rhs, m, lambda, bm, 0, work);
    subtractMSchur(blocked, blocked_rhs, m, lambda, bm, diag, work);
    EXPECT_LT(dense.maxAbsDiff(blocked), 1e-8);
    EXPECT_LT(dense_rhs.maxAbsDiff(blocked_rhs), 1e-8);
}

TEST(BlockedInverse, MatchesCholeskyInverse)
{
    Rng rng(41);
    const std::size_t diag = 6, rest = 4;
    Matrix m = randomSpd(diag + rest, rng, 12.0);
    for (std::size_t r = 0; r < diag; ++r)
        for (std::size_t c = 0; c < diag; ++c)
            if (r != c)
                m(r, c) = 0.0;
    Matrix inv1;
    MSchurWork work;
    blockedInverseDiagonalM11(inv1, m, diag, work);
    const Matrix inv2 = choleskyInverse(m);
    EXPECT_LT(inv1.maxAbsDiff(inv2), 1e-9);
}

TEST(BlockedInverse, FullyDiagonalCase)
{
    const Matrix d = Matrix::diagonal({2.0, 5.0, 10.0});
    Matrix inv;
    MSchurWork work;
    blockedInverseDiagonalM11(inv, d, 3, work);
    EXPECT_NEAR(inv(0, 0), 0.5, 1e-14);
    EXPECT_NEAR(inv(2, 2), 0.1, 1e-14);
}

/** Property sweep: D-Schur equals direct solve across block splits. */
class DSchurSplitSweep
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(DSchurSplitSweep, EquivalentToDirect)
{
    const auto [p, q] = GetParam();
    Rng rng(1000 + p * 13 + q);
    const auto sys = randomBlockedSystem(p, q, rng);
    const DSchurResult red = dSchur(sys.u, sys.w, sys.v, sys.bx, sys.by);
    const Vector y = choleskySolve(red.reduced, red.reducedRhs);
    const Vector x = dSchurBackSubstitute(sys.u, sys.w, sys.bx, y);
    Vector full_x(p + q);
    full_x.setSegment(0, x);
    full_x.setSegment(p, y);
    EXPECT_LT((sys.full * full_x - sys.b).norm(), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Splits, DSchurSplitSweep,
    ::testing::Values(std::make_pair(1, 1), std::make_pair(20, 4),
                      std::make_pair(4, 20), std::make_pair(30, 15),
                      std::make_pair(50, 10)));

/**
 * A block-sparse W in the CSR-like support layout of
 * subtractBlockSparseSchur: each feature column touches a sorted-unique
 * subset of keyframe blocks; w_blocks stores the leading `segment` rows
 * of each supported block, and the other rows of W are zero.
 */
struct SparseW
{
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> blocks;
    std::vector<double> w_blocks;
    Matrix dense;   //!< The same W, zero-padded, as a dense (nk x m) matrix.
};

SparseW
randomSparseW(std::size_t n_blocks, std::size_t stride, std::size_t segment,
              std::size_t m, Rng &rng)
{
    SparseW w;
    w.dense = Matrix(n_blocks * stride, m);
    w.offsets.push_back(0);
    for (std::size_t f = 0; f < m; ++f) {
        // 1-3 supported blocks, strictly increasing anchors.
        std::size_t bi = f % n_blocks;
        const std::size_t count = 1 + (f % 3);
        for (std::size_t k = 0; k < count && bi < n_blocks; ++k, bi += 2) {
            w.blocks.push_back(static_cast<std::uint32_t>(bi));
            for (std::size_t r = 0; r < segment; ++r) {
                const double x = rng.uniform(-0.5, 0.5);
                w.w_blocks.push_back(x);
                w.dense(bi * stride + r, f) = x;
            }
        }
        w.offsets.push_back(static_cast<std::uint32_t>(w.blocks.size()));
    }
    return w;
}

/**
 * A W shaped like a sliding window's: 1-8 blocks per feature, the anchor
 * plus a random subset of the next seven blocks, so pairs of nearby
 * keyframes are shared by many features and pairs more than seven
 * blocks apart by none.
 */
SparseW
randomWindowW(std::size_t n_blocks, std::size_t stride, std::size_t segment,
              std::size_t m, Rng &rng)
{
    SparseW w;
    w.dense = Matrix(n_blocks * stride, m);
    w.offsets.push_back(0);
    for (std::size_t f = 0; f < m; ++f) {
        const std::size_t anchor = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(n_blocks) - 1));
        for (std::size_t bi = anchor; bi < std::min(anchor + 8, n_blocks);
             ++bi) {
            if (bi != anchor && !rng.bernoulli(0.6))
                continue;
            w.blocks.push_back(static_cast<std::uint32_t>(bi));
            for (std::size_t r = 0; r < segment; ++r) {
                const double x = rng.uniform(-0.5, 0.5);
                w.w_blocks.push_back(x);
                w.dense(bi * stride + r, f) = x;
            }
        }
        w.offsets.push_back(static_cast<std::uint32_t>(w.blocks.size()));
    }
    return w;
}

/** Block-sparse elimination of a random W against the dense one. */
void
expectMatchesDenseElimination(std::size_t n_blocks, std::size_t stride,
                              std::size_t segment, std::size_t m, Rng &rng)
{
    SCOPED_TRACE("stride " + std::to_string(stride) + ", segment " +
                 std::to_string(segment));
    const std::size_t nk = n_blocks * stride;
    const SparseW w = randomSparseW(n_blocks, stride, segment, m, rng);

    Vector bx(m), inv_u(m);
    for (std::size_t f = 0; f < m; ++f) {
        bx[f] = rng.uniform(-1.0, 1.0);
        inv_u[f] = 1.0 / rng.uniform(1.0, 4.0);
    }

    // Dense reference: reduced -= W diag(inv_u) W^T, rhs -= W inv_u bx.
    Matrix want = randomSpd(nk, rng, static_cast<double>(nk));
    Vector want_rhs(nk);
    for (std::size_t i = 0; i < nk; ++i)
        want_rhs[i] = rng.uniform(-1.0, 1.0);
    Matrix reduced = want;
    Vector rhs = want_rhs;
    for (std::size_t f = 0; f < m; ++f)
        for (std::size_t i = 0; i < nk; ++i) {
            want_rhs[i] -= w.dense(i, f) * inv_u[f] * bx[f];
            for (std::size_t j = 0; j < nk; ++j)
                want(i, j) -= w.dense(i, f) * inv_u[f] * w.dense(j, f);
        }

    common::Arena arena;
    subtractBlockSparseSchur(reduced, rhs, bx, inv_u.data().data(), stride,
                             segment, w.offsets, w.blocks, w.w_blocks,
                             arena);

    double dmax = 0.0;
    for (std::size_t i = 0; i < nk; ++i)
        for (std::size_t j = 0; j < nk; ++j)
            dmax = std::max(dmax, std::abs(reduced(i, j) - want(i, j)));
    EXPECT_LT(dmax, 1e-12);
    for (std::size_t i = 0; i < nk; ++i)
        EXPECT_NEAR(rhs[i], want_rhs[i], 1e-12) << "rhs[" << i << "]";

    // The commuted-mirror update keeps the result exactly symmetric.
    for (std::size_t i = 0; i < nk; ++i)
        for (std::size_t j = i + 1; j < nk; ++j)
            EXPECT_EQ(reduced(i, j), reduced(j, i))
                << "asymmetry at (" << i << "," << j << ")";
}

TEST(BlockSparseSchur, MatchesDenseElimination)
{
    Rng rng(321);
    // Full-height segments, and the window solver's shape: 6 pose rows
    // stored per 15-row keyframe block.
    expectMatchesDenseElimination(5, 3, 3, 17, rng);
    expectMatchesDenseElimination(5, 15, 6, 17, rng);
}

/** Restores the startup backend selection when a test exits. */
struct BackendGuard
{
    simd::Backend saved = simd::activeBackend();
    ~BackendGuard() { simd::setBackendForTest(saved); }
};

/**
 * The elimination as it ran before the batched block pairs: feature by
 * feature, one level-1 axpy per row of every off-diagonal block, on the
 * given table.
 */
void
sparseSchurPerRowAxpys(Matrix &reduced, Vector &rhs, const Vector &bx,
                       const double *inv_u, std::size_t block_stride,
                       std::size_t d, const SparseW &w, const simd::Ops &v)
{
    const std::size_t m = w.offsets.size() - 1;
    std::vector<double> wui_f;
    for (std::size_t f = 0; f < m; ++f) {
        const std::size_t s0 = w.offsets[f];
        const std::size_t nb = w.offsets[f + 1] - s0;
        const double *wf = w.w_blocks.data() + s0 * d;
        wui_f.assign(nb * d, 0.0);
        for (std::size_t t = 0; t < nb * d; ++t)
            wui_f[t] = wf[t] * inv_u[f];
        for (std::size_t bi = 0; bi < nb; ++bi) {
            const std::size_t rowi = w.blocks[s0 + bi] * block_stride;
            const double *wi = wf + bi * d;
            const double *wui_i = wui_f.data() + bi * d;
            v.axpy(rhs.data().data() + rowi, -bx[f], wui_i, d);
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
            for (std::size_t bj = bi + 1; bj < nb; ++bj) {
                const std::size_t rowj = w.blocks[s0 + bj] * block_stride;
                const double *wj = wf + bj * d;
                for (std::size_t r = 0; r < d; ++r)
                    v.axpy(reduced.rowPtr(rowi + r) + rowj, -wui_i[r], wj,
                           d);
                for (std::size_t c = 0; c < d; ++c)
                    v.axpy(reduced.rowPtr(rowj + c) + rowi, -wj[c], wui_i,
                           d);
            }
        }
    }
}

TEST(BlockSparseSchur, MatchesPerRowAxpyReference)
{
    const BackendGuard guard;
    std::vector<simd::Backend> backends{simd::Backend::kScalar};
    if (simd::avx2Compiled() && simd::avx2Supported())
        backends.push_back(simd::Backend::kAvx2);
    // {blocks, stride, segment, features, window-shaped}: the last is a
    // sliding window's, 11 keyframe blocks and ~150 features.
    const std::size_t shapes[][5] = {{5, 3, 3, 23, 0},
                                     {5, 15, 6, 23, 0},
                                     {8, 15, 6, 23, 0},
                                     {11, 15, 6, 150, 1}};
    for (const simd::Backend backend : backends) {
        simd::setBackendForTest(backend);
        const simd::Ops &v = simd::opsFor(backend);
        Rng rng(323);
        for (const auto &shape : shapes) {
            const std::size_t n_blocks = shape[0];
            const std::size_t stride = shape[1];
            const std::size_t segment = shape[2];
            const std::size_t nk = n_blocks * stride;
            const std::size_t m = shape[3];
            const SparseW w =
                shape[4] != 0
                    ? randomWindowW(n_blocks, stride, segment, m, rng)
                    : randomSparseW(n_blocks, stride, segment, m, rng);
            Vector bx(m), inv_u(m);
            for (std::size_t f = 0; f < m; ++f) {
                bx[f] = rng.uniform(-1.0, 1.0);
                inv_u[f] = 1.0 / rng.uniform(1.0, 4.0);
            }
            Matrix want = randomSpd(nk, rng, static_cast<double>(nk));
            Vector want_rhs(nk);
            for (std::size_t i = 0; i < nk; ++i)
                want_rhs[i] = rng.uniform(-1.0, 1.0);
            Matrix reduced = want;
            Vector rhs = want_rhs;
            sparseSchurPerRowAxpys(want, want_rhs, bx, inv_u.data().data(),
                                   stride, segment, w, v);
            common::Arena arena;
            subtractBlockSparseSchur(reduced, rhs, bx, inv_u.data().data(),
                                     stride, segment, w.offsets, w.blocks,
                                     w.w_blocks, arena);
            for (std::size_t i = 0; i < nk; ++i) {
                EXPECT_EQ(rhs[i], want_rhs[i])
                    << v.name << " stride " << stride << " rhs[" << i << "]";
                for (std::size_t j = 0; j < nk; ++j)
                    EXPECT_EQ(reduced(i, j), want(i, j))
                        << v.name << " stride " << stride << " (" << i
                        << ", " << j << ")";
            }
        }
    }
}

TEST(BlockSparseSchur, EmptySupportIsANoOp)
{
    Rng rng(322);
    Matrix reduced = randomSpd(6, rng, 6.0);
    const Matrix before = reduced;
    Vector rhs(6);
    for (std::size_t i = 0; i < 6; ++i)
        rhs[i] = rng.uniform(-1.0, 1.0);
    const Vector rhs_before = rhs;
    common::Arena arena;
    subtractBlockSparseSchur(reduced, rhs, Vector(), nullptr, 3, 3, {},
                             {}, {}, arena);
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(rhs[i], rhs_before[i]);
        for (std::size_t j = 0; j < 6; ++j)
            EXPECT_EQ(reduced(i, j), before(i, j));
    }
}

} // namespace
} // namespace archytas::linalg
