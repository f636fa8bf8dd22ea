#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hh"
#include "linalg/kernels.hh"
#include "linalg/matrix.hh"

namespace archytas::linalg {
namespace {

Matrix
randomMatrix(std::size_t rows, std::size_t cols, Rng &rng)
{
    Matrix a(rows, cols);
    for (auto &x : a.data())
        x = rng.uniform(-1.0, 1.0);
    return a;
}

double
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    double d = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            d = std::max(d, std::abs(a(i, j) - b(i, j)));
    return d;
}

TEST(Kernels, MultiplyIntoMatchesOperator)
{
    Rng rng(11);
    const Matrix a = randomMatrix(9, 13, rng);
    const Matrix b = randomMatrix(13, 7, rng);
    Matrix out;
    multiplyInto(out, a, b);
    EXPECT_LT(maxAbsDiff(out, a * b), 1e-12);
}

TEST(Kernels, MultiplyIntoReusesDestination)
{
    Rng rng(12);
    const Matrix a = randomMatrix(6, 6, rng);
    const Matrix b = randomMatrix(6, 6, rng);
    Matrix out = randomMatrix(6, 6, rng);   // Stale same-shape contents.
    multiplyInto(out, a, b);
    EXPECT_LT(maxAbsDiff(out, a * b), 1e-12);
}

TEST(Kernels, MultiplyIntoVectorMatchesOperator)
{
    Rng rng(14);
    const Matrix a = randomMatrix(8, 5, rng);
    Vector x(5);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = rng.uniform(-1.0, 1.0);
    Vector out;
    multiplyInto(out, a, x);
    const Vector want = a * x;
    ASSERT_EQ(out.size(), want.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_NEAR(out[i], want[i], 1e-12);
}

TEST(Kernels, SubtractMultiplyMatchesOperators)
{
    Rng rng(15);
    const Matrix a = randomMatrix(8, 5, rng);
    Vector x(5), out(8);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = rng.uniform(-1.0, 1.0);
    const Vector want = out - a * x;
    subtractMultiply(out, a, x);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_NEAR(out[i], want[i], 1e-12);
}

TEST(Kernels, SubtractSymmetricProductMatchesNaive)
{
    // a b^T is symmetric by construction: a = m d, b = m with d diagonal
    // (so a b^T = m d m^T).
    Rng rng(16);
    const std::size_t n = 12, k = 9;
    const Matrix m = randomMatrix(n, k, rng);
    Matrix a = m;
    for (std::size_t j = 0; j < k; ++j) {
        const double d = rng.uniform(0.5, 2.0);
        for (std::size_t i = 0; i < n; ++i)
            a(i, j) *= d;
    }
    Matrix c = randomMatrix(n, n, rng);
    // Symmetrize c so the mirrored update keeps it exactly symmetric.
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < i; ++j)
            c(i, j) = c(j, i);

    const Matrix want = c - a * m.transposed();
    subtractSymmetricProduct(c, a, m);
    EXPECT_LT(maxAbsDiff(c, want), 1e-12);

    // Exact (bitwise) symmetry: both triangles receive the same
    // subtrahend, not two independently rounded ones.
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            EXPECT_EQ(c(i, j), c(j, i));
}

TEST(Kernels, AddOuterProductTransposedAccumulatesBlock)
{
    Rng rng(18);
    const Matrix a = randomMatrix(2, 3, rng);   // Residual-dim 2.
    const Matrix b = randomMatrix(2, 4, rng);
    const double wt = 1.7;
    Matrix h(6, 8);
    addOuterProductTransposed(h, 2, 3, a, b, wt);
    const Matrix block = a.transposed() * b;
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 8; ++j) {
            const bool inside = i >= 2 && i < 5 && j >= 3 && j < 7;
            const double want =
                inside ? wt * block(i - 2, j - 3) : 0.0;
            EXPECT_NEAR(h(i, j), want, 1e-12)
                << "at (" << i << ", " << j << ")";
        }
}

TEST(Kernels, SubtractTransposeApplyScaledMatchesNaive)
{
    Rng rng(19);
    const Matrix a = randomMatrix(2, 5, rng);
    const double res[2] = {0.3, -1.2};
    const double wt = 2.5;
    Vector g(9);
    subtractTransposeApplyScaled(g, 3, a, res, wt);
    for (std::size_t i = 0; i < 5; ++i) {
        const double want =
            -wt * (a(0, i) * res[0] + a(1, i) * res[1]);
        EXPECT_NEAR(g[3 + i], want, 1e-12);
    }
    EXPECT_EQ(g[0], 0.0);
    EXPECT_EQ(g[8], 0.0);
}

} // namespace
} // namespace archytas::linalg
