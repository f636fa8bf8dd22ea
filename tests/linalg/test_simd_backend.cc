/**
 * @file
 * The SIMD backend contract (linalg/simd.hh), kernel by kernel:
 *
 *  - each backend's primitives match a plain reference implementation
 *    (the scalar backend bit-exactly, AVX2 to rounding tolerance);
 *  - within a backend, every destination-passing kernel and the
 *    Cholesky path are bit-identical at any pool thread count;
 *  - across backends the results agree to tolerance only (the AVX2
 *    reductions associate differently) -- that cross-check is skipped
 *    gracefully on hosts without AVX2+FMA.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "linalg/cholesky.hh"
#include "linalg/kernels.hh"
#include "linalg/matrix.hh"
#include "linalg/simd.hh"

namespace archytas::linalg {
namespace {

/** Restores the startup backend selection and pool size on exit. */
struct BackendGuard
{
    simd::Backend saved = simd::activeBackend();
    ~BackendGuard()
    {
        simd::setBackendForTest(saved);
        parallel::setThreadCount(0);
    }
};

std::vector<simd::Backend>
availableBackends()
{
    std::vector<simd::Backend> backends{simd::Backend::kScalar};
    if (simd::avx2Compiled() && simd::avx2Supported())
        backends.push_back(simd::Backend::kAvx2);
    return backends;
}

Matrix
randomMatrix(std::size_t rows, std::size_t cols, Rng &rng)
{
    Matrix a(rows, cols);
    for (auto &x : a.data())
        x = rng.uniform(-1.0, 1.0);
    return a;
}

Matrix
randomSpd(std::size_t n, Rng &rng)
{
    const Matrix a = randomMatrix(n, n, rng);
    Matrix spd = a.transposed() * a;
    for (std::size_t i = 0; i < n; ++i)
        spd(i, i) += static_cast<double>(n);
    return spd;
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

double
maxAbsDiff(const Vector &a, const Vector &b)
{
    EXPECT_EQ(a.size(), b.size());
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        d = std::max(d, std::abs(a[i] - b[i]));
    return d;
}

// -------------------------------------------------------------------
// Primitive table: dot / axpy per backend vs. plain references.
// -------------------------------------------------------------------

/** Lengths straddling the vector width so remainder lanes are hit. */
const std::size_t kSpanLengths[] = {0, 1, 2, 3, 4, 5, 7, 8,
                                    9, 15, 16, 17, 64, 100};

std::vector<double>
randomSpan(std::size_t n, Rng &rng)
{
    std::vector<double> xs(n);
    for (auto &x : xs)
        x = rng.uniform(-2.0, 2.0);
    return xs;
}

TEST(SimdPrimitives, DotMatchesReferencePerBackend)
{
    Rng rng(101);
    for (const simd::Backend backend : availableBackends()) {
        const simd::Ops &ops = simd::opsFor(backend);
        for (const std::size_t n : kSpanLengths) {
            const auto a = randomSpan(n, rng);
            const auto b = randomSpan(n, rng);
            double want = 0.0;
            for (std::size_t i = 0; i < n; ++i)
                want += a[i] * b[i];
            const double got = ops.dot(a.data(), b.data(), n);
            if (backend == simd::Backend::kScalar) {
                // The scalar backend IS the left-to-right reference.
                EXPECT_EQ(got, want) << "n=" << n;
            } else {
                EXPECT_NEAR(got, want,
                            1e-13 * static_cast<double>(n + 1))
                    << ops.name << " n=" << n;
            }
        }
    }
}

TEST(SimdPrimitives, AxpyMatchesReferencePerBackend)
{
    Rng rng(102);
    for (const simd::Backend backend : availableBackends()) {
        const simd::Ops &ops = simd::opsFor(backend);
        for (const std::size_t n : kSpanLengths) {
            const auto x = randomSpan(n, rng);
            auto y = randomSpan(n, rng);
            auto want = y;
            const double alpha = rng.uniform(-3.0, 3.0);
            for (std::size_t i = 0; i < n; ++i)
                want[i] += alpha * x[i];
            ops.axpy(y.data(), alpha, x.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_NEAR(y[i], want[i], 1e-14)
                    << ops.name << " n=" << n << " i=" << i;
        }
    }
}

TEST(SimdPrimitives, AxpyElementsIndependentOfSpanLength)
{
    // The window solver relies on this: an element's result must not
    // depend on whether it falls in a 4-wide lane or in the scalar tail,
    // so a 6-long pose-row axpy gives the bits of the first 6 elements of
    // the 15-long keyframe-row one.
    if (!simd::avx2Compiled() || !simd::avx2Supported())
        GTEST_SKIP() << "AVX2+FMA unavailable on this build/host";
    const simd::Ops &ops = simd::opsFor(simd::Backend::kAvx2);
    Rng rng(107);
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {6, 15}, {1, 15}, {3, 8}, {5, 9}, {7, 13}};
    for (const auto &[k, n] : shapes) {
        const auto x = randomSpan(n, rng);
        const auto y0 = randomSpan(n, rng);
        const double alpha = rng.uniform(-2.0, 2.0);
        std::vector<double> full = y0;
        std::vector<double> head = y0;
        ops.axpy(full.data(), alpha, x.data(), n);
        ops.axpy(head.data(), alpha, x.data(), k);
        for (std::size_t i = 0; i < k; ++i)
            EXPECT_EQ(head[i], full[i]) << "k=" << k << " n=" << n
                                        << " element " << i;
        for (std::size_t i = k; i < n; ++i)
            EXPECT_EQ(head[i], y0[i]) << "k=" << k << " wrote past " << i;
    }
}

TEST(SimdPrimitives, DotsMatchDotPerRowPerBackend)
{
    // Every row of the batched dot is the level-1 dot of that row, bit
    // for bit: every tail length (n < 20), every row count up to 9 (the
    // AVX2 version works four rows at a time), strided rows.
    Rng rng(108);
    for (const simd::Backend backend : availableBackends()) {
        const simd::Ops &ops = simd::opsFor(backend);
        for (std::size_t n = 0; n < 20; ++n)
            for (std::size_t rows = 0; rows < 10; ++rows) {
                const std::size_t lda = n + 3;
                const auto a = randomSpan(rows * lda + 1, rng);
                const auto b = randomSpan(n + 1, rng);
                std::vector<double> out(rows + 1, -7.0);
                ops.dots(out.data(), a.data(), lda, rows, b.data(), n);
                for (std::size_t r = 0; r < rows; ++r)
                    EXPECT_EQ(out[r], ops.dot(a.data() + r * lda, b.data(), n))
                        << ops.name << " n=" << n << " rows=" << rows
                        << " r=" << r;
                EXPECT_EQ(out[rows], -7.0) << ops.name << " wrote past";
            }
    }
}

TEST(SimdPrimitives, RankUpdateMatchesAxpysPerTermPerBackend)
{
    // The rank-k update is one level-1 axpy per row and term, terms in
    // order, bit for bit: every register tile (6 x 6, 1 x 6, 15-wide
    // rows in pairs and a single) and the per-term fallback, at every
    // term count, row count and tail length, with strided rows whose
    // gaps stay untouched. At k = 1 this is the row-batched axpy.
    Rng rng(110);
    for (const simd::Backend backend : availableBackends()) {
        const simd::Ops &ops = simd::opsFor(backend);
        for (std::size_t k = 0; k <= 20; ++k)
            for (std::size_t rows = 0; rows <= 16; ++rows)
                for (std::size_t n = 0; n < 20; ++n) {
                    const std::size_t ldh = n + 3;
                    std::vector<std::vector<double>> alpha, x;
                    std::vector<const double *> alpha_p, x_p;
                    for (std::size_t t = 0; t < k; ++t) {
                        alpha.push_back(randomSpan(rows, rng));
                        x.push_back(randomSpan(n, rng));
                    }
                    for (std::size_t t = 0; t < k; ++t) {
                        alpha_p.push_back(alpha[t].data());
                        x_p.push_back(x[t].data());
                    }
                    auto h = randomSpan(rows * ldh + 1, rng);
                    auto want = h;
                    ops.rankUpdate(h.data(), ldh, alpha_p.data(), x_p.data(),
                                   k, rows, n);
                    for (std::size_t t = 0; t < k; ++t)
                        for (std::size_t r = 0; r < rows; ++r)
                            ops.axpy(want.data() + r * ldh, alpha[t][r],
                                     x[t].data(), n);
                    for (std::size_t i = 0; i < h.size(); ++i)
                        EXPECT_EQ(h[i], want[i])
                            << ops.name << " k=" << k << " rows=" << rows
                            << " n=" << n << " element " << i;
                }
    }
}

TEST(SimdPrimitives, SetBackendForTestInstallsAndReports)
{
    BackendGuard guard;
    EXPECT_EQ(simd::setBackendForTest(simd::Backend::kScalar),
              simd::Backend::kScalar);
    EXPECT_EQ(simd::activeBackend(), simd::Backend::kScalar);
    const simd::Backend got =
        simd::setBackendForTest(simd::Backend::kAvx2);
    if (simd::avx2Compiled() && simd::avx2Supported()) {
        EXPECT_EQ(got, simd::Backend::kAvx2);
        EXPECT_EQ(simd::activeBackend(), simd::Backend::kAvx2);
    } else {
        // Unavailable request falls back to scalar instead of crashing.
        EXPECT_EQ(got, simd::Backend::kScalar);
    }
    EXPECT_STREQ(simd::backendName(simd::Backend::kScalar), "scalar");
    EXPECT_STREQ(simd::backendName(simd::Backend::kAvx2), "avx2");
}

// -------------------------------------------------------------------
// Whole-kernel results under one backend, for bit-identity checks.
// -------------------------------------------------------------------

/** One result per destination-passing kernel plus the Cholesky chain. */
struct KernelSuiteResults
{
    Matrix mm;          //!< multiplyInto(Matrix, Matrix, Matrix)
    Vector mv;          //!< multiplyInto(Vector, Matrix, Vector)
    Vector sub;         //!< subtractMultiply
    Matrix sym;         //!< subtractSymmetricProduct
    Matrix outer;       //!< addOuterProductTransposed (Matrix dst)
    Matrix outer_view;  //!< addOuterProductTransposed (view dst)
    Vector grad;        //!< subtractTransposeApplyScaled (Vector dst)
    Vector grad_raw;    //!< raw-segment overload
    Matrix chol;        //!< choleskyInto factor
    Vector fwd;         //!< forwardSubstituteInto
    Vector bwd;         //!< backwardSubstituteInto
};

/**
 * Runs every kernel on deterministic inputs (fixed seeds) under the
 * *currently installed* backend and pool size. The kernels run serially
 * (linalg/kernels.hh), so comparing pool sizes pins that no kernel's
 * result depends on the thread count.
 */
KernelSuiteResults
runKernelSuite()
{
    KernelSuiteResults r;
    Rng rng(7);
    const Matrix a = randomMatrix(48, 52, rng);
    const Matrix b = randomMatrix(52, 44, rng);
    multiplyInto(r.mm, a, b);

    Vector x(52);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = rng.uniform(-1.0, 1.0);
    multiplyInto(r.mv, a, x);

    r.sub = Vector(48);
    for (std::size_t i = 0; i < r.sub.size(); ++i)
        r.sub[i] = rng.uniform(-1.0, 1.0);
    subtractMultiply(r.sub, a, x);

    const Matrix wa = randomMatrix(60, 40, rng);
    const Matrix wb = randomMatrix(60, 40, rng);
    r.sym = randomSpd(60, rng);
    subtractSymmetricProduct(r.sym, wa, wb);

    const Matrix ja = randomMatrix(2, 6, rng);
    const Matrix jb = randomMatrix(2, 6, rng);
    r.outer = Matrix(12, 12);
    addOuterProductTransposed(r.outer, 3, 5, ja, jb, 1.7);

    r.outer_view = Matrix(12, 12);
    MatrixView view(r.outer_view.data().data(), 12, 12);
    addOuterProductTransposed(view, 3, 5, ja, jb, 1.7);

    const double residual[2] = {0.31, -0.64};
    r.grad = Vector(12);
    subtractTransposeApplyScaled(r.grad, 4, ja, residual, 2.3);

    r.grad_raw = Vector(12);
    subtractTransposeApplyScaled(r.grad_raw.data().data(), r.grad_raw.size(),
                                 4, ja, residual, 2.3);

    const Matrix spd = randomSpd(40, rng);
    Vector rhs(40);
    for (std::size_t i = 0; i < rhs.size(); ++i)
        rhs[i] = rng.uniform(-1.0, 1.0);
    EXPECT_TRUE(choleskyInto(r.chol, spd));
    forwardSubstituteInto(r.fwd, r.chol, rhs);
    backwardSubstituteInto(r.bwd, r.chol, r.fwd);
    return r;
}

void
expectBitIdentical(const KernelSuiteResults &a,
                   const KernelSuiteResults &b, const std::string &what)
{
    EXPECT_EQ(maxAbsDiff(a.mm, b.mm), 0.0) << what << ": multiplyInto";
    EXPECT_EQ(maxAbsDiff(a.mv, b.mv), 0.0) << what << ": matvec";
    EXPECT_EQ(maxAbsDiff(a.sub, b.sub), 0.0)
        << what << ": subtractMultiply";
    EXPECT_EQ(maxAbsDiff(a.sym, b.sym), 0.0)
        << what << ": subtractSymmetricProduct";
    EXPECT_EQ(maxAbsDiff(a.outer, b.outer), 0.0)
        << what << ": addOuterProductTransposed";
    EXPECT_EQ(maxAbsDiff(a.outer_view, b.outer_view), 0.0)
        << what << ": addOuterProductTransposed into a view";
    EXPECT_EQ(maxAbsDiff(a.grad, b.grad), 0.0)
        << what << ": subtractTransposeApplyScaled";
    EXPECT_EQ(maxAbsDiff(a.grad_raw, b.grad_raw), 0.0)
        << what << ": raw-segment subtractTransposeApplyScaled";
    EXPECT_EQ(maxAbsDiff(a.chol, b.chol), 0.0) << what << ": cholesky";
    EXPECT_EQ(maxAbsDiff(a.fwd, b.fwd), 0.0) << what << ": fwd subst";
    EXPECT_EQ(maxAbsDiff(a.bwd, b.bwd), 0.0) << what << ": bwd subst";
}

TEST(SimdBackend, EveryKernelBitIdenticalAcrossThreadCountsPerBackend)
{
    BackendGuard guard;
    for (const simd::Backend backend : availableBackends()) {
        simd::setBackendForTest(backend);
        parallel::setThreadCount(1);
        const KernelSuiteResults base = runKernelSuite();
        for (const std::size_t threads : {2, 5, 8}) {
            parallel::setThreadCount(threads);
            expectBitIdentical(base, runKernelSuite(),
                               std::string(simd::backendName(backend)) +
                                   " @" + std::to_string(threads) + "t");
        }
    }
}

TEST(SimdBackend, RepeatedRunsBitIdenticalPerBackend)
{
    BackendGuard guard;
    for (const simd::Backend backend : availableBackends()) {
        simd::setBackendForTest(backend);
        expectBitIdentical(runKernelSuite(), runKernelSuite(),
                           std::string(simd::backendName(backend)) +
                               " repeat");
    }
}

TEST(SimdBackend, ScalarAndAvx2AgreeToTolerance)
{
    if (!simd::avx2Compiled() || !simd::avx2Supported())
        GTEST_SKIP() << "AVX2+FMA unavailable on this build/host";
    BackendGuard guard;
    simd::setBackendForTest(simd::Backend::kScalar);
    const KernelSuiteResults scalar = runKernelSuite();
    simd::setBackendForTest(simd::Backend::kAvx2);
    const KernelSuiteResults avx2 = runKernelSuite();

    // Different association order, same algebra: everything agrees to
    // a few ulps of the accumulated magnitudes.
    const double tol = 1e-10;
    EXPECT_LT(maxAbsDiff(scalar.mm, avx2.mm), tol);
    EXPECT_LT(maxAbsDiff(scalar.mv, avx2.mv), tol);
    EXPECT_LT(maxAbsDiff(scalar.sub, avx2.sub), tol);
    EXPECT_LT(maxAbsDiff(scalar.sym, avx2.sym), tol);
    EXPECT_LT(maxAbsDiff(scalar.outer, avx2.outer), tol);
    EXPECT_LT(maxAbsDiff(scalar.outer_view, avx2.outer_view), tol);
    EXPECT_LT(maxAbsDiff(scalar.grad, avx2.grad), tol);
    EXPECT_LT(maxAbsDiff(scalar.grad_raw, avx2.grad_raw), tol);
    EXPECT_LT(maxAbsDiff(scalar.chol, avx2.chol), tol);
    EXPECT_LT(maxAbsDiff(scalar.fwd, avx2.fwd), tol);
    EXPECT_LT(maxAbsDiff(scalar.bwd, avx2.bwd), tol);
}

} // namespace
} // namespace archytas::linalg
