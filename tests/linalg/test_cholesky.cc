#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "linalg/cholesky.hh"
#include "linalg/simd.hh"

namespace archytas::linalg {
namespace {

/** Random SPD matrix A^T A + n I. */
Matrix
randomSpd(std::size_t n, Rng &rng)
{
    Matrix a(n, n);
    for (auto &x : a.data())
        x = rng.uniform(-1, 1);
    Matrix spd = a.transposed() * a;
    for (std::size_t i = 0; i < n; ++i)
        spd(i, i) += static_cast<double>(n);
    return spd;
}

TEST(Cholesky, Known2x2)
{
    Matrix s{{4, 2}, {2, 3}};
    const auto l = cholesky(s);
    ASSERT_TRUE(l.has_value());
    EXPECT_DOUBLE_EQ((*l)(0, 0), 2.0);
    EXPECT_DOUBLE_EQ((*l)(1, 0), 1.0);
    EXPECT_NEAR((*l)(1, 1), std::sqrt(2.0), 1e-12);
}

TEST(Cholesky, ReconstructsInput)
{
    Rng rng(3);
    const Matrix s = randomSpd(8, rng);
    const auto l = cholesky(s);
    ASSERT_TRUE(l.has_value());
    const Matrix recon = *l * l->transposed();
    EXPECT_LT(recon.maxAbsDiff(s), 1e-10);
}

TEST(Cholesky, RejectsIndefinite)
{
    Matrix s{{1, 2}, {2, 1}};   // Eigenvalues 3 and -1.
    EXPECT_FALSE(cholesky(s).has_value());
}

TEST(Cholesky, RejectsZeroMatrix)
{
    EXPECT_FALSE(cholesky(Matrix(3, 3)).has_value());
}

TEST(Cholesky, SolveMatchesDirectSubstitution)
{
    Rng rng(5);
    const Matrix s = randomSpd(6, rng);
    Vector b(6);
    for (std::size_t i = 0; i < 6; ++i)
        b[i] = rng.uniform(-3, 3);
    const Vector x = choleskySolve(s, b);
    const Vector residual = s * x - b;
    EXPECT_LT(residual.norm(), 1e-9);
}

TEST(Cholesky, SolveNonPdThrows)
{
    Matrix s{{0, 0}, {0, 0}};
    Vector b{1, 1};
    EXPECT_THROW(choleskySolve(s, b), std::runtime_error);
}

TEST(Cholesky, InverseTimesSelfIsIdentity)
{
    Rng rng(9);
    const Matrix s = randomSpd(7, rng);
    const Matrix inv = choleskyInverse(s);
    const Matrix eye = s * inv;
    EXPECT_LT(eye.maxAbsDiff(Matrix::identity(7)), 1e-9);
}

TEST(ForwardSubstitution, LowerTriangularSolve)
{
    Matrix l{{2, 0}, {1, 3}};
    Vector b{4, 7};
    const Vector y = forwardSubstitute(l, b);
    EXPECT_DOUBLE_EQ(y[0], 2.0);
    EXPECT_DOUBLE_EQ(y[1], 5.0 / 3.0);
}

TEST(BackwardSubstitution, UpperFromLowerTranspose)
{
    Matrix l{{2, 0}, {1, 3}};
    // Solve L^T x = y.
    Vector y{4, 6};
    const Vector x = backwardSubstitute(l, y);
    // L^T = [[2,1],[0,3]]; x1 = 2, x0 = (4 - 1*2)/2 = 1.
    EXPECT_DOUBLE_EQ(x[1], 2.0);
    EXPECT_DOUBLE_EQ(x[0], 1.0);
}

TEST(DiagonalInverse, Basic)
{
    const Matrix d = Matrix::diagonal({2.0, 4.0});
    const Matrix inv = diagonalInverse(d);
    EXPECT_DOUBLE_EQ(inv(0, 0), 0.5);
    EXPECT_DOUBLE_EQ(inv(1, 1), 0.25);
}

TEST(DiagonalInverse, ZeroEntryThrows)
{
    const Matrix d = Matrix::diagonal({1.0, 0.0});
    EXPECT_THROW(diagonalInverse(d), std::runtime_error);
}

/** Restores the startup backend selection when a test exits. */
struct BackendGuard
{
    simd::Backend saved = simd::activeBackend();
    ~BackendGuard() { simd::setBackendForTest(saved); }
};

/**
 * The factorization as it ran before the batched column dots: one
 * level-1 dot per sub-diagonal element, on the given backend's table.
 */
bool
choleskyPerElementDots(Matrix &l, const Matrix &s, const simd::Ops &v)
{
    const std::size_t n = s.rows();
    l = Matrix(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        double *lj = l.rowPtr(j);
        const double diag = s(j, j) - v.dot(lj, lj, j);
        if (diag <= 0.0)
            return false;
        const double ljj = std::sqrt(diag);
        lj[j] = ljj;
        const double inv_ljj = 1.0 / ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            double *li = l.rowPtr(i);
            li[j] = (s(i, j) - v.dot(li, lj, j)) * inv_ljj;
        }
    }
    return true;
}

TEST(Cholesky, BatchedColumnsMatchPerElementDots)
{
    const BackendGuard guard;
    std::vector<simd::Backend> backends{simd::Backend::kScalar};
    if (simd::avx2Compiled() && simd::avx2Supported())
        backends.push_back(simd::Backend::kAvx2);
    std::vector<std::size_t> sizes;
    for (std::size_t n = 1; n <= 40; ++n)
        sizes.push_back(n);
    sizes.push_back(150);
    for (const simd::Backend backend : backends) {
        simd::setBackendForTest(backend);
        const simd::Ops &v = simd::opsFor(backend);
        Rng rng(77);
        for (const std::size_t n : sizes) {
            const Matrix spd = randomSpd(n, rng);
            Matrix want;
            ASSERT_TRUE(choleskyPerElementDots(want, spd, v));
            // A reused destination holding stale values must factor to
            // the same bits as a fresh one.
            Matrix got(n, n);
            for (auto &x : got.data())
                x = rng.uniform(-1, 1);
            ASSERT_TRUE(choleskyInto(got, spd));
            EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                                  n * n * sizeof(double)),
                      0)
                << v.name << " n=" << n;
        }
    }
}

/** Property sweep over sizes: solve then verify to tight tolerance. */
class CholeskySizeSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(CholeskySizeSweep, SolveResidualTiny)
{
    const int n = GetParam();
    Rng rng(100 + n);
    const Matrix s = randomSpd(n, rng);
    Vector b(n);
    for (int i = 0; i < n; ++i)
        b[i] = rng.uniform(-1, 1);
    const Vector x = choleskySolve(s, b);
    EXPECT_LT((s * x - b).norm(), 1e-8 * std::max(1.0, b.norm()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizeSweep,
                         ::testing::Values(1, 2, 3, 5, 10, 20, 50, 100));

} // namespace
} // namespace archytas::linalg
