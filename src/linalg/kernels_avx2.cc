/**
 * @file
 * AVX2/FMA primitive table behind linalg::simd::ops(). This is the only
 * translation unit compiled with -mavx2 -mfma (see src/linalg/
 * CMakeLists.txt); everything else dispatches through the function
 * pointers so a non-AVX2 host never executes these instructions.
 *
 * Determinism: every loop below has a data-independent structure -- a
 * fixed number of 4-wide lanes, a fixed-order horizontal reduction, and
 * a tail of fused multiply-adds (one rounding, like the lanes) -- so
 * for a given input the bit pattern of the result never varies across
 * calls or thread counts. The batched primitives run each row through
 * the same per-row arithmetic as dot/axpy; they only share loads.
 * Nothing here writes a multiply and an add as separate operations:
 * this TU is built with FMA enabled, and GCC's default
 * -ffp-contract=fast would fuse them. The lane-wise association
 * differs from the scalar backend's left-to-right order, which is why
 * cross-backend comparisons are tolerance-based.
 */

#include "linalg/simd.hh"

#if defined(ARCHYTAS_HAVE_AVX2)

#include <cmath>

#include <immintrin.h>

namespace archytas::linalg::simd::detail {

namespace {

/**
 * avx2Dot's fixed reduce: the two lane chains added, the lanes summed
 * pairwise, then the fused scalar tail from element i on. avx2Dot and
 * avx2Dots both finish through here, so their rows agree bit for bit.
 */
inline double
finishDot(__m256d acc0, __m256d acc1, const double *a, const double *b,
          std::size_t i, std::size_t n)
{
    const __m256d acc = _mm256_add_pd(acc0, acc1);
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (; i < n; ++i)
        sum = std::fma(a[i], b[i], sum);
    return sum;
}

double
avx2Dot(const double *a, const double *b, std::size_t n)
{
    // Two independent FMA chains hide the 4-cycle FMA latency; the
    // unroll-by-8 structure and the final reduce order are fixed.
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i),
                               _mm256_loadu_pd(b + i), acc0);
        acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                               _mm256_loadu_pd(b + i + 4), acc1);
    }
    if (i + 4 <= n) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i),
                               _mm256_loadu_pd(b + i), acc0);
        i += 4;
    }
    return finishDot(acc0, acc1, a, b, i, n);
}

void
avx2Dots(double *out, const double *a, std::size_t lda, std::size_t rows,
         const double *b, std::size_t n)
{
    // Four rows at a time share every load of b. Each row keeps
    // avx2Dot's two chains, unroll, lane order and reduce, so out[r] is
    // avx2Dot(a + r lda, b, n) bit for bit.
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4) {
        const double *a0 = a + r * lda;
        const double *a1 = a0 + lda;
        const double *a2 = a1 + lda;
        const double *a3 = a2 + lda;
        __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
        __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
        __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
        __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
        std::size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            const __m256d b0 = _mm256_loadu_pd(b + i);
            const __m256d b1 = _mm256_loadu_pd(b + i + 4);
            c00 = _mm256_fmadd_pd(_mm256_loadu_pd(a0 + i), b0, c00);
            c01 = _mm256_fmadd_pd(_mm256_loadu_pd(a0 + i + 4), b1, c01);
            c10 = _mm256_fmadd_pd(_mm256_loadu_pd(a1 + i), b0, c10);
            c11 = _mm256_fmadd_pd(_mm256_loadu_pd(a1 + i + 4), b1, c11);
            c20 = _mm256_fmadd_pd(_mm256_loadu_pd(a2 + i), b0, c20);
            c21 = _mm256_fmadd_pd(_mm256_loadu_pd(a2 + i + 4), b1, c21);
            c30 = _mm256_fmadd_pd(_mm256_loadu_pd(a3 + i), b0, c30);
            c31 = _mm256_fmadd_pd(_mm256_loadu_pd(a3 + i + 4), b1, c31);
        }
        if (i + 4 <= n) {
            const __m256d b0 = _mm256_loadu_pd(b + i);
            c00 = _mm256_fmadd_pd(_mm256_loadu_pd(a0 + i), b0, c00);
            c10 = _mm256_fmadd_pd(_mm256_loadu_pd(a1 + i), b0, c10);
            c20 = _mm256_fmadd_pd(_mm256_loadu_pd(a2 + i), b0, c20);
            c30 = _mm256_fmadd_pd(_mm256_loadu_pd(a3 + i), b0, c30);
            i += 4;
        }
        out[r] = finishDot(c00, c01, a0, b, i, n);
        out[r + 1] = finishDot(c10, c11, a1, b, i, n);
        out[r + 2] = finishDot(c20, c21, a2, b, i, n);
        out[r + 3] = finishDot(c30, c31, a3, b, i, n);
    }
    for (; r < rows; ++r)
        out[r] = avx2Dot(a + r * lda, b, n);
}

inline void
avx2Axpy(double *y, double alpha, const double *x, std::size_t n)
{
    const __m256d va = _mm256_set1_pd(alpha);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vy = _mm256_loadu_pd(y + i);
        _mm256_storeu_pd(y + i,
                         _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i), vy));
    }
    // The tail fuses like the lanes (a 2-wide FMA, then std::fma), so
    // every element is one rounding of alpha * x[i] + y[i] wherever it
    // falls: the first k results of an n-long axpy equal a k-long one
    // bit for bit.
    if (i + 2 <= n) {
        _mm_storeu_pd(y + i, _mm_fmadd_pd(_mm256_castpd256_pd128(va),
                                          _mm_loadu_pd(x + i),
                                          _mm_loadu_pd(y + i)));
        i += 2;
    }
    if (i < n)
        y[i] = std::fma(alpha, x[i], y[i]);
}

void
avx2Axpys(double *h, std::size_t ldh, const double *alpha,
          std::size_t rows, const double *x, std::size_t n)
{
    for (std::size_t r = 0; r < rows; ++r)
        avx2Axpy(h + r * ldh, alpha[r], x, n);
}

constexpr Ops kAvx2Ops = {"avx2", avx2Dot, avx2Axpy, avx2Dots,
                          avx2Axpys};

} // namespace

const Ops &
avx2Ops()
{
    return kAvx2Ops;
}

} // namespace archytas::linalg::simd::detail

#endif // ARCHYTAS_HAVE_AVX2
