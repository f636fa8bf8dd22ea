/**
 * @file
 * Death tests for the runtime dimension/bounds contracts
 * (common/contracts.hh): shape mismatches and out-of-range accesses must
 * abort loudly at the call site instead of corrupting a solve. These
 * tests require a build with contracts enabled (the default for every
 * build type except Release).
 */

#include <gtest/gtest.h>

#include "common/contracts.hh"
#include "linalg/cholesky.hh"
#include "linalg/matrix.hh"
#include "linalg/schur.hh"
#include "linalg/smatrix.hh"

namespace {

using archytas::linalg::CompactSMatrix;
using archytas::linalg::Matrix;
using archytas::linalg::Vector;

#if !ARCHYTAS_CONTRACTS_ENABLED

// Release builds compile contracts out; the aborts below cannot fire.
TEST(ContractsDeathTest, RequiresContractsEnabled)
{
    GTEST_SKIP() << "contracts disabled in this build; configure with "
                    "-DARCHYTAS_CONTRACTS=ON to run the death tests";
}

#else

TEST(ContractsDeathTest, MatrixAccessOutOfBounds)
{
    Matrix m(3, 4);
    EXPECT_DEATH(m(3, 0), "row.*out of range");
    EXPECT_DEATH(m(0, 4), "col.*out of range");
    const Matrix &cm = m;
    EXPECT_DEATH(cm(7, 0), "row.*out of range");
}

TEST(ContractsDeathTest, VectorAccessOutOfBounds)
{
    Vector v(5);
    EXPECT_DEATH(v[5], "out of range");
    const Vector &cv = v;
    EXPECT_DEATH(cv[100], "out of range");
}

TEST(ContractsDeathTest, MatrixAddShapeMismatch)
{
    Matrix a(2, 3);
    const Matrix b(3, 2);
    EXPECT_DEATH(a += b, "dimension mismatch");
}

TEST(ContractsDeathTest, MatmulInnerDimensionMismatch)
{
    const Matrix a(2, 3);
    const Matrix b(4, 2);
    EXPECT_DEATH(a * b, "matmul.*dimension mismatch");
}

TEST(ContractsDeathTest, CholeskyRequiresSquare)
{
    const Matrix rect(3, 4);
    EXPECT_DEATH(archytas::linalg::cholesky(rect),
                 "cholesky.*dimension mismatch");
}

TEST(ContractsDeathTest, ForwardSubstituteRhsMismatch)
{
    const Matrix l = Matrix::identity(3);
    const Vector b(4);
    EXPECT_DEATH(archytas::linalg::forwardSubstitute(l, b),
                 "forwardSubstitute.*dimension mismatch");
}

TEST(ContractsDeathTest, DSchurShapeMismatches)
{
    const Matrix u = Matrix::identity(3);
    const Matrix v = Matrix::identity(2);
    const Matrix w_bad(2, 4);   // should be 2 x 3
    const Vector bx(3), by(2);
    EXPECT_DEATH(archytas::linalg::dSchur(u, w_bad, v, bx, by),
                 "dSchur.*dimension mismatch");

    const Matrix w(2, 3);
    const Vector bx_bad(5);
    EXPECT_DEATH(archytas::linalg::dSchur(u, w, v, bx_bad, by),
                 "dSchur.*dimension mismatch");
}

TEST(ContractsDeathTest, MSchurShapeMismatch)
{
    const Matrix m = Matrix::identity(4);
    Matrix a = Matrix::identity(3);
    const Matrix lambda_bad(3, 5);   // should be 3 x 4
    const Vector bm(4);
    Vector br(3);
    archytas::linalg::MSchurWork work;
    EXPECT_DEATH(archytas::linalg::subtractMSchur(a, br, m, lambda_bad, bm,
                                                  0, work),
                 "mSchur.*dimension mismatch");
}

TEST(ContractsDeathTest, SMatrixBlockContracts)
{
    CompactSMatrix s(15, 4);
    const Matrix wrong(14, 15);
    EXPECT_DEATH(s.setImuDiagBlock(0, wrong), "dimension mismatch");
    const Matrix ok(15, 15);
    EXPECT_DEATH(s.setImuDiagBlock(4, ok), "out of range");
    const Matrix cam_wrong(5, 6);
    EXPECT_DEATH(s.setCameraBlock(0, 1, cam_wrong), "dimension mismatch");
}

#endif // ARCHYTAS_CONTRACTS_ENABLED

TEST(Contracts, PassingChecksAreSideEffectFree)
{
    Matrix a(2, 2);
    a(0, 0) = 1.0;
    a(1, 1) = 4.0;
    const auto l = archytas::linalg::cholesky(a);
    ASSERT_TRUE(l.has_value());
    EXPECT_NEAR((*l)(0, 0), 1.0, 1e-12);
    EXPECT_NEAR((*l)(1, 1), 2.0, 1e-12);
}

} // namespace
