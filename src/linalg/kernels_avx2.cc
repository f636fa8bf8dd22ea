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
 * the same per-row arithmetic as dot/axpy; they only share loads, keep
 * output tiles in registers, or run several rows' reductions side by
 * side in the lanes of one vector. Every axpy element is one fused
 * multiply-add whatever lane width carries it, so any split of a row
 * into 4-wide, 2-wide and scalar lanes gives the same bits.
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
        // finishDot for the four rows at once: each row's two chains
        // added, the 4 x 4 lane block transposed so that vector l holds
        // lane l of every row, then finishDot's (l0 + l1) + (l2 + l3)
        // as vector adds and its fused tail as one vector FMA per
        // element. Each output lane is its row's finishDot, bit for bit.
        const __m256d s0 = _mm256_add_pd(c00, c01);
        const __m256d s1 = _mm256_add_pd(c10, c11);
        const __m256d s2 = _mm256_add_pd(c20, c21);
        const __m256d s3 = _mm256_add_pd(c30, c31);
        const __m256d t0 = _mm256_unpacklo_pd(s0, s1);
        const __m256d t1 = _mm256_unpackhi_pd(s0, s1);
        const __m256d t2 = _mm256_unpacklo_pd(s2, s3);
        const __m256d t3 = _mm256_unpackhi_pd(s2, s3);
        const __m256d l0 = _mm256_permute2f128_pd(t0, t2, 0x20);
        const __m256d l1 = _mm256_permute2f128_pd(t1, t3, 0x20);
        const __m256d l2 = _mm256_permute2f128_pd(t0, t2, 0x31);
        const __m256d l3 = _mm256_permute2f128_pd(t1, t3, 0x31);
        __m256d sum =
            _mm256_add_pd(_mm256_add_pd(l0, l1), _mm256_add_pd(l2, l3));
        for (; i < n; ++i)
            sum = _mm256_fmadd_pd(_mm256_set_pd(a3[i], a2[i], a1[i], a0[i]),
                                  _mm256_set1_pd(b[i]), sum);
        _mm256_storeu_pd(out + r, sum);
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

/** One axpy per row of h, row r scaled by alpha[r]. */
void
avx2Axpys(double *h, std::size_t ldh, const double *alpha,
          std::size_t rows, const double *x, std::size_t n)
{
    for (std::size_t r = 0; r < rows; ++r)
        avx2Axpy(h + r * ldh, alpha[r], x, n);
}

/**
 * An R x N tile of h (rows of alpha scales from a0 on) held in registers
 * across all k terms: element (r, c) takes fma(alpha[t][a0 + r],
 * x[t][c], h(r, c)) for t in order, avx2Axpy's one rounding per term.
 * Each row is N / 4 four-wide lanes, a two-wide lane when N % 4 >= 2
 * and a scalar lane when N is odd.
 */
template <std::size_t R, std::size_t N>
inline void
rankTile(double *h, std::size_t ldh, const double *const *alpha,
         std::size_t a0, const double *const *x, std::size_t k)
{
    constexpr std::size_t kQuads = N / 4;
    constexpr bool kPair = N % 4 >= 2;
    constexpr bool kSingle = N % 2 == 1;
    constexpr std::size_t kPairAt = 4 * kQuads;
    __m256d quad[R][kQuads > 0 ? kQuads : 1];
    __m128d pair[R];
    __m128d single[R];
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
        const double *hr = h + r * ldh;
#pragma GCC unroll 4
        for (std::size_t q = 0; q < kQuads; ++q)
            quad[r][q] = _mm256_loadu_pd(hr + 4 * q);
        if constexpr (kPair)
            pair[r] = _mm_loadu_pd(hr + kPairAt);
        if constexpr (kSingle)
            single[r] = _mm_load_sd(hr + N - 1);
    }
    for (std::size_t t = 0; t < k; ++t) {
        const double *xt = x[t];
        const double *at = alpha[t] + a0;
        __m256d xq[kQuads > 0 ? kQuads : 1];
#pragma GCC unroll 4
        for (std::size_t q = 0; q < kQuads; ++q)
            xq[q] = _mm256_loadu_pd(xt + 4 * q);
        __m128d xp = _mm_setzero_pd();
        __m128d xs = _mm_setzero_pd();
        if constexpr (kPair)
            xp = _mm_loadu_pd(xt + kPairAt);
        if constexpr (kSingle)
            xs = _mm_load_sd(xt + N - 1);
#pragma GCC unroll 8
        for (std::size_t r = 0; r < R; ++r) {
            const __m256d va = _mm256_broadcast_sd(at + r);
#pragma GCC unroll 4
            for (std::size_t q = 0; q < kQuads; ++q)
                quad[r][q] = _mm256_fmadd_pd(va, xq[q], quad[r][q]);
            if constexpr (kPair)
                pair[r] = _mm_fmadd_pd(_mm256_castpd256_pd128(va), xp,
                                       pair[r]);
            if constexpr (kSingle)
                single[r] = _mm_fmadd_sd(_mm256_castpd256_pd128(va), xs,
                                         single[r]);
        }
    }
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
        double *hr = h + r * ldh;
#pragma GCC unroll 4
        for (std::size_t q = 0; q < kQuads; ++q)
            _mm256_storeu_pd(hr + 4 * q, quad[r][q]);
        if constexpr (kPair)
            _mm_storeu_pd(hr + kPairAt, pair[r]);
        if constexpr (kSingle)
            _mm_store_sd(hr + N - 1, single[r]);
    }
}

void
avx2RankUpdate(double *h, std::size_t ldh, const double *const *alpha,
               const double *const *x, std::size_t k, std::size_t rows,
               std::size_t n)
{
    // Register tiles for the solver's shapes: the 6 x 6 pose blocks and
    // 6-entry rhs segments of the visual factors and the Schur
    // elimination, and the IMU's 15-wide rows two at a time. Any other
    // shape runs term by term.
    if (n == 6 && rows == 6) {
        rankTile<6, 6>(h, ldh, alpha, 0, x, k);
        return;
    }
    if (n == 6 && rows == 1) {
        rankTile<1, 6>(h, ldh, alpha, 0, x, k);
        return;
    }
    if (n == 15) {
        std::size_t r = 0;
        for (; r + 2 <= rows; r += 2)
            rankTile<2, 15>(h + r * ldh, ldh, alpha, r, x, k);
        if (r < rows)
            rankTile<1, 15>(h + r * ldh, ldh, alpha, r, x, k);
        return;
    }
    for (std::size_t t = 0; t < k; ++t)
        avx2Axpys(h, ldh, alpha[t], rows, x[t], n);
}

constexpr Ops kAvx2Ops = {"avx2", avx2Dot, avx2Axpy, avx2Dots,
                          avx2RankUpdate};

} // namespace

const Ops &
avx2Ops()
{
    return kAvx2Ops;
}

} // namespace archytas::linalg::simd::detail

#endif // ARCHYTAS_HAVE_AVX2
