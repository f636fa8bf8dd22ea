#include <gtest/gtest.h>

#include "common/contracts.hh"
#include "common/rng.hh"
#include "linalg/matrix.hh"

namespace archytas::linalg {
namespace {

TEST(Matrix, DefaultIsEmpty)
{
    Matrix m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.rows(), 0u);
}

TEST(Matrix, ZeroInitialized)
{
    Matrix m(2, 3);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_EQ(m(r, c), 0.0);
}

TEST(Matrix, InitializerList)
{
    Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(m(0, 1), 2.0);
    EXPECT_EQ(m(1, 0), 3.0);
}

TEST(Matrix, IdentityAndDiagonal)
{
    const Matrix i = Matrix::identity(3);
    EXPECT_EQ(i(1, 1), 1.0);
    EXPECT_EQ(i(0, 1), 0.0);
    const Matrix d = Matrix::diagonal({2.0, 5.0});
    EXPECT_EQ(d(0, 0), 2.0);
    EXPECT_EQ(d(1, 1), 5.0);
    EXPECT_EQ(d(0, 1), 0.0);
}

TEST(Matrix, MultiplyKnown)
{
    Matrix a{{1, 2}, {3, 4}};
    Matrix b{{5, 6}, {7, 8}};
    const Matrix c = a * b;
    EXPECT_EQ(c(0, 0), 19.0);
    EXPECT_EQ(c(0, 1), 22.0);
    EXPECT_EQ(c(1, 0), 43.0);
    EXPECT_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyIdentityIsNoop)
{
    Matrix a{{1, 2, 3}, {4, 5, 6}};
    const Matrix out = a * Matrix::identity(3);
    EXPECT_EQ(a.maxAbsDiff(out), 0.0);
}

TEST(Matrix, TransposeInvolution)
{
    Matrix a{{1, 2, 3}, {4, 5, 6}};
    EXPECT_EQ(a.maxAbsDiff(a.transposed().transposed()), 0.0);
    EXPECT_EQ(a.transposed()(2, 1), 6.0);
}

TEST(Matrix, BlockExtractAndSet)
{
    Matrix a(4, 4);
    Matrix b{{1, 2}, {3, 4}};
    a.setBlock(1, 2, b);
    EXPECT_EQ(a(1, 2), 1.0);
    EXPECT_EQ(a(2, 3), 4.0);
    const Matrix got = a.block(1, 2, 2, 2);
    EXPECT_EQ(got.maxAbsDiff(b), 0.0);
}

TEST(Matrix, AdditionSubtraction)
{
    Matrix a{{1, 2}, {3, 4}};
    Matrix b{{4, 3}, {2, 1}};
    const Matrix s = a + b;
    EXPECT_EQ(s(0, 0), 5.0);
    EXPECT_EQ((s - b).maxAbsDiff(a), 0.0);
}

TEST(Matrix, ScalarMultiply)
{
    Matrix a{{1, -2}};
    const Matrix b = 3.0 * a;
    EXPECT_EQ(b(0, 1), -6.0);
}

TEST(Matrix, NormFrobenius)
{
    Matrix a{{3, 4}};
    EXPECT_DOUBLE_EQ(a.norm(), 5.0);
}

TEST(Matrix, SymmetryCheck)
{
    Matrix s{{1, 2}, {2, 5}};
    EXPECT_TRUE(s.isSymmetric());
    s(0, 1) = 2.1;
    EXPECT_FALSE(s.isSymmetric(1e-3));
}

TEST(Matrix, OutOfRangeAccessDies)
{
    if (!ARCHYTAS_CONTRACTS_ENABLED)
        GTEST_SKIP() << "contracts are compiled out of this build";
    Matrix a(2, 2);
    EXPECT_DEATH(a(2, 0), "out of range");
}

TEST(Matrix, ShapeMismatchDies)
{
    if (!ARCHYTAS_CONTRACTS_ENABLED)
        GTEST_SKIP() << "contracts are compiled out of this build";
    Matrix a(2, 2), b(3, 3);
    EXPECT_DEATH(a + b, "dimension mismatch");
    EXPECT_DEATH(a * b, "matmul");
}

TEST(Vector, SegmentRoundTrip)
{
    Vector v{1, 2, 3, 4, 5};
    const Vector s = v.segment(1, 3);
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0], 2.0);
    Vector w(5);
    w.setSegment(2, s);
    EXPECT_EQ(w[2], 2.0);
    EXPECT_EQ(w[4], 4.0);
}

TEST(Vector, DotAndNorm)
{
    Vector a{1, 2, 2};
    EXPECT_DOUBLE_EQ(a.dot(a), 9.0);
    EXPECT_DOUBLE_EQ(a.norm(), 3.0);
}

TEST(Vector, MatVec)
{
    Matrix a{{1, 2}, {3, 4}};
    Vector x{1, 1};
    const Vector y = a * x;
    EXPECT_EQ(y[0], 3.0);
    EXPECT_EQ(y[1], 7.0);
}

TEST(Vector, TransposeApplyMatchesExplicitTranspose)
{
    Rng rng(7);
    Matrix a(5, 3);
    Vector x(5);
    for (std::size_t r = 0; r < 5; ++r) {
        x[r] = rng.uniform(-1, 1);
        for (std::size_t c = 0; c < 3; ++c)
            a(r, c) = rng.uniform(-1, 1);
    }
    const Vector y1 = transposeApply(a, x);
    const Vector y2 = a.transposed() * x;
    EXPECT_LT(y1.maxAbsDiff(y2), 1e-14);
}

TEST(Matrix, GramianMatchesExplicitProduct)
{
    Rng rng(11);
    Matrix a(6, 4);
    for (std::size_t r = 0; r < 6; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            a(r, c) = rng.uniform(-2, 2);
    const Matrix g1 = gramian(a);
    const Matrix g2 = a.transposed() * a;
    EXPECT_LT(g1.maxAbsDiff(g2), 1e-12);
    EXPECT_TRUE(g1.isSymmetric());
}

TEST(Matrix, OuterProduct)
{
    Vector x{1, 2};
    Vector y{3, 4, 5};
    const Matrix m = outer(x, y);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m(1, 2), 10.0);
}

/** Property sweep: (A B)^T == B^T A^T across random shapes. */
class MatrixTransposeProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(MatrixTransposeProperty, ProductTranspose)
{
    const auto [m, k, n] = GetParam();
    Rng rng(m * 100 + k * 10 + n);
    Matrix a(m, k), b(k, n);
    for (auto &x : a.data())
        x = rng.uniform(-1, 1);
    for (auto &x : b.data())
        x = rng.uniform(-1, 1);
    const Matrix lhs = (a * b).transposed();
    const Matrix rhs = b.transposed() * a.transposed();
    EXPECT_LT(lhs.maxAbsDiff(rhs), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatrixTransposeProperty,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(5, 5, 5), std::make_tuple(7, 2, 9),
                      std::make_tuple(10, 1, 10)));

} // namespace
} // namespace archytas::linalg
