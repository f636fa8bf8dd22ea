/**
 * @file
 * SIMD backend selection for the dense hot-path kernels
 * (docs/PERFORMANCE.md). The kernels in kernels.cc / cholesky.cc /
 * schur.cc and the window assembly express their inner loops through two
 * contiguous-span primitives (dot and axpy), the row-batched dot (dots)
 * and one ordered rank-k update (rankUpdate: one axpy per row and term
 * on one tile); this header publishes the primitive table and the
 * once-at-startup backend selection that fills it.
 *
 * Selection happens exactly once per process, from the `ARCHYTAS_SIMD`
 * environment variable ("auto"/unset, "avx2", "off"/"scalar") gated by a
 * runtime CPUID check -- callers never branch on the backend per call.
 *
 * Determinism contract: each backend's primitives use a fixed arithmetic
 * order that is independent of thread count and data values, so results
 * are bit-identical at any `ARCHYTAS_THREADS` *within* a backend. The
 * AVX2 reductions associate differently from the scalar ones, so
 * cross-backend comparisons are tolerance-based (see
 * tests/linalg/test_simd_backend.cc). Within a backend, each row of
 * dots is bit for bit dot on that row, and rankUpdate is bit for bit
 * one axpy per row and term, terms in order: the batch shares loads and
 * keeps outputs in registers, never changes an element's arithmetic, so
 * routing a per-row or per-term loop through dots or rankUpdate cannot
 * move a result.
 */

#ifndef ARCHYTAS_LINALG_SIMD_HH
#define ARCHYTAS_LINALG_SIMD_HH

#include <cstddef>

namespace archytas::linalg::simd {

/** Kernel backend identities, in telemetry-gauge encoding order. */
enum class Backend
{
    kScalar = 0,
    kAvx2 = 1,
};

/**
 * Table of contiguous-span primitives the dense kernels are built from.
 * All pointers must be non-null. dot only reads, so a may equal b;
 * axpy's y must not overlap x. The batched forms take a row-major
 * operand with leading dimension lda/ldh (at least n): their outputs
 * must not overlap any input, and rankUpdate's rows must not overlap
 * each other.
 */
struct Ops
{
    const char *name;
    /** sum_i a[i] * b[i], fixed reduction order per backend. */
    double (*dot)(const double *a, const double *b, std::size_t n);
    /** y[i] += alpha * x[i]. */
    void (*axpy)(double *y, double alpha, const double *x, std::size_t n);
    /** out[r] = dot(a + r * lda, b, n) for r < rows. */
    void (*dots)(double *out, const double *a, std::size_t lda,
                 std::size_t rows, const double *b, std::size_t n);
    /**
     * axpy(h + r * ldh, alpha[t][r], x[t], n) for r < rows, for t < k
     * in term order: the rows x n tile at h takes k rank-1 terms, each
     * alpha[t] holding rows scales and each x[t] n entries. Neither may
     * overlap the tile.
     */
    void (*rankUpdate)(double *h, std::size_t ldh,
                       const double *const *alpha, const double *const *x,
                       std::size_t k, std::size_t rows, std::size_t n);
};

/**
 * The active primitive table. First call performs the environment /
 * CPUID selection; every later call is one atomic load.
 */
const Ops &ops();

/** Backend behind ops(). */
Backend activeBackend();

/**
 * Table for a specific backend regardless of the active selection
 * (cross-backend tolerance tests). Requesting kAvx2 on a build or host
 * without AVX2 returns the scalar table.
 */
const Ops &opsFor(Backend backend);

/** Human-readable backend name ("scalar", "avx2"). */
const char *backendName(Backend backend);

/** True when this binary carries the AVX2 translation unit. */
bool avx2Compiled();

/** True when the running CPU supports AVX2+FMA (independent of build). */
bool avx2Supported();

/**
 * Test hook: force the active backend (same spirit as
 * parallel::setThreadCount). Requesting an unavailable backend falls
 * back to scalar; returns the backend actually installed. Not for
 * production code -- selection there is once at startup.
 */
Backend setBackendForTest(Backend backend);

} // namespace archytas::linalg::simd

#endif // ARCHYTAS_LINALG_SIMD_HH
