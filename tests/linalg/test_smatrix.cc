#include <gtest/gtest.h>

#include "common/contracts.hh"
#include "common/rng.hh"
#include "linalg/smatrix.hh"
#include "linalg/sparse.hh"

namespace archytas::linalg {
namespace {

/** Fills a CompactSMatrix with random structured content. */
CompactSMatrix
randomSMatrix(std::size_t k, std::size_t b, Rng &rng)
{
    CompactSMatrix s(k, b);
    for (std::size_t i = 0; i < b; ++i) {
        Matrix diag(k, k);
        for (auto &x : diag.data())
            x = rng.uniform(-1, 1);
        s.setImuDiagBlock(i, diag);
        if (i + 1 < b) {
            Matrix off(k, k);
            for (auto &x : off.data())
                x = rng.uniform(-1, 1);
            s.setImuOffDiagBlock(i, off);
        }
        for (std::size_t j = i; j < b; ++j) {
            Matrix cam(6, 6);
            for (auto &x : cam.data())
                x = rng.uniform(-1, 1);
            s.setCameraBlock(i, j, cam);
        }
    }
    return s;
}

TEST(SMatrix, DenseReconstructionIsSymmetric)
{
    Rng rng(3);
    const CompactSMatrix s = randomSMatrix(15, 5, rng);
    EXPECT_TRUE(s.toDense().isSymmetric(1e-12));
}

TEST(SMatrix, ImuSparsityPattern)
{
    Rng rng(5);
    CompactSMatrix s(15, 4);
    Matrix diag(15, 15);
    for (auto &x : diag.data())
        x = rng.uniform(-1, 1);
    s.setImuDiagBlock(0, diag);
    Matrix off(15, 15);
    for (auto &x : off.data())
        x = rng.uniform(-1, 1);
    s.setImuOffDiagBlock(1, off);

    const Matrix d = s.toDense();
    // Blocks (0,2), (0,3), (2,0) must stay zero: IMU couples only
    // adjacent keyframes.
    for (std::size_t r = 0; r < 15; ++r)
        for (std::size_t c = 0; c < 15; ++c) {
            EXPECT_EQ(d(r, 30 + c), 0.0);
            EXPECT_EQ(d(r, 45 + c), 0.0);
        }
}

TEST(SMatrix, CameraContributionOnlyInPoseSubBlocks)
{
    CompactSMatrix s(15, 3);
    Matrix cam(6, 6);
    for (std::size_t r = 0; r < 6; ++r)
        for (std::size_t c = 0; c < 6; ++c)
            cam(r, c) = 1.0;
    s.setCameraBlock(0, 2, cam);
    const Matrix d = s.toDense();
    // Non-pose rows of the (2, 0) block must be zero.
    for (std::size_t r = 6; r < 15; ++r)
        for (std::size_t c = 0; c < 15; ++c)
            EXPECT_EQ(d(30 + r, c), 0.0);
    // Pose sub-block present and mirrored.
    EXPECT_EQ(d(30 + 2, 3), 1.0);
    EXPECT_EQ(d(3, 30 + 2), 1.0);
}

TEST(SMatrix, ApplyMatchesDenseMatVec)
{
    Rng rng(7);
    const CompactSMatrix s = randomSMatrix(15, 6, rng);
    const Matrix d = s.toDense();
    Vector x(s.dim());
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = rng.uniform(-1, 1);
    EXPECT_LT((s.apply(x) - d * x).norm(), 1e-10);
}

TEST(SMatrix, AddCameraBlockAccumulates)
{
    CompactSMatrix s(15, 2);
    Matrix cam(6, 6);
    cam(1, 2) = 2.0;
    cam(2, 1) = 2.0;
    s.addCameraBlock(0, 0, cam);
    s.addCameraBlock(0, 0, cam);
    EXPECT_EQ(s.at(1, 2), 4.0);
    EXPECT_EQ(s.at(2, 1), 4.0);
}

TEST(SMatrix, PaperStorageSavingAtK15B15)
{
    // Sec. 3.3: 78% saving at k = 15, b = 15.
    const std::size_t dense = CompactSMatrix::denseDoubles(15, 15);
    const std::size_t model = CompactSMatrix::paperModelDoubles(15, 15);
    EXPECT_EQ(dense, 50625u);
    EXPECT_EQ(model, 18u * 225u + 2u * 15u * 225u);
    const double saving =
        1.0 - static_cast<double>(model) / static_cast<double>(dense);
    EXPECT_NEAR(saving, 0.78, 0.01);
}

TEST(SMatrix, ActualStorageCloseToPaperModel)
{
    CompactSMatrix s(15, 15);
    const double actual = static_cast<double>(s.storageDoubles());
    const double model =
        static_cast<double>(CompactSMatrix::paperModelDoubles(15, 15));
    // Our packed-triangle Sc is slightly tighter than the paper's 18 b^2
    // approximation; agreement within 10%.
    EXPECT_NEAR(actual / model, 1.0, 0.1);
}

TEST(SMatrix, BeatsCsrOnTypicalWindow)
{
    // Sec. 3.3: the compact layout consumes ~17.8% less than CSR on the
    // structured S. Verify the direction of the claim on a dense-block
    // instance.
    Rng rng(11);
    const CompactSMatrix s = randomSMatrix(15, 15, rng);
    const CsrMatrix csr = CsrMatrix::fromDense(s.toDense(), 0.0);
    const double compact_bytes =
        static_cast<double>(s.storageDoubles() * sizeof(double));
    EXPECT_LT(compact_bytes, static_cast<double>(csr.storageBytes()));
}

TEST(SMatrix, RejectsWrongBlockShapes)
{
    if (!ARCHYTAS_CONTRACTS_ENABLED)
        GTEST_SKIP() << "contracts are compiled out of this build";
    CompactSMatrix s(15, 3);
    EXPECT_DEATH(s.setImuDiagBlock(0, Matrix(6, 6)), "dimension mismatch");
    EXPECT_DEATH(s.setCameraBlock(0, 1, Matrix(15, 15)),
                 "dimension mismatch");
    EXPECT_DEATH(s.setImuOffDiagBlock(2, Matrix(15, 15)), "out of range");
}

/** Property: storage saving grows with k for fixed b. */
class SMatrixStorageSweep
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(SMatrixStorageSweep, CompactBeatsDense)
{
    const auto [k, b] = GetParam();
    CompactSMatrix s(k, b);
    EXPECT_LT(s.storageDoubles(),
              CompactSMatrix::denseDoubles(k, b));
    // And beats even symmetric-half dense storage once the window holds
    // enough keyframes for the block-tridiagonal saving to dominate.
    if (b >= 6) {
        EXPECT_LT(s.storageDoubles(),
                  CompactSMatrix::symmetricDenseDoubles(k, b));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SMatrixStorageSweep,
    ::testing::Values(std::make_pair(15, 4), std::make_pair(15, 10),
                      std::make_pair(15, 15), std::make_pair(15, 30),
                      std::make_pair(9, 10), std::make_pair(21, 12)));

} // namespace
} // namespace archytas::linalg
