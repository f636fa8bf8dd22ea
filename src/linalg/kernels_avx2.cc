/**
 * @file
 * AVX2/FMA primitive table behind linalg::simd::ops(). This is the only
 * translation unit compiled with -mavx2 -mfma (see src/linalg/
 * CMakeLists.txt); everything else dispatches through the function
 * pointers so a non-AVX2 host never executes these instructions.
 *
 * Determinism: every loop below has a data-independent structure -- a
 * fixed number of 4-wide lanes, a fixed-order horizontal reduction, and
 * a scalar tail written as std::fma (one rounding, like the lanes) -- so
 * for a given input the bit pattern of the result never varies across
 * calls or thread counts. The lane-wise association
 * differs from the scalar backend's left-to-right order, which is why
 * cross-backend comparisons are tolerance-based.
 */

#include "linalg/simd.hh"

#if defined(ARCHYTAS_HAVE_AVX2)

#include <cmath>

#include <immintrin.h>

namespace archytas::linalg::simd::detail {

namespace {

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
    const __m256d acc = _mm256_add_pd(acc0, acc1);
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (; i < n; ++i)
        sum = std::fma(a[i], b[i], sum);
    return sum;
}

void
avx2Axpy(double *y, double alpha, const double *x, std::size_t n)
{
    const __m256d va = _mm256_set1_pd(alpha);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vy = _mm256_loadu_pd(y + i);
        _mm256_storeu_pd(y + i,
                         _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i), vy));
    }
    // The tail fuses like the lanes, so every element is one rounding of
    // alpha * x[i] + y[i] wherever it falls: the first k results of an
    // n-long axpy equal a k-long one bit for bit.
    for (; i < n; ++i)
        y[i] = std::fma(alpha, x[i], y[i]);
}

constexpr Ops kAvx2Ops = {"avx2", avx2Dot, avx2Axpy};

} // namespace

const Ops &
avx2Ops()
{
    return kAvx2Ops;
}

} // namespace archytas::linalg::simd::detail

#endif // ARCHYTAS_HAVE_AVX2
