#include "linalg/simd.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "common/telemetry.hh"

namespace archytas::linalg::simd {

#if defined(ARCHYTAS_HAVE_AVX2)
namespace detail {
// Defined in kernels_avx2.cc (the only TU built with -mavx2 -mfma).
const Ops &avx2Ops();
} // namespace detail
#endif

namespace {

double
scalarDot(const double *a, const double *b, std::size_t n)
{
    // Strict left-to-right accumulation: the scalar backend's reduction
    // order is the reference order for its determinism contract.
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

void
scalarAxpy(double *y, double alpha, const double *x, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] += alpha * x[i];
}

void
scalarDots(double *out, const double *a, std::size_t lda, std::size_t rows,
           const double *b, std::size_t n)
{
    for (std::size_t r = 0; r < rows; ++r)
        out[r] = scalarDot(a + r * lda, b, n);
}

/** One axpy per row of h, row r scaled by alpha[r]. */
void
scalarAxpys(double *h, std::size_t ldh, const double *alpha,
            std::size_t rows, const double *x, std::size_t n)
{
    for (std::size_t r = 0; r < rows; ++r)
        scalarAxpy(h + r * ldh, alpha[r], x, n);
}

void
scalarRankUpdate(double *h, std::size_t ldh, const double *const *alpha,
                 const double *const *x, std::size_t k, std::size_t rows,
                 std::size_t n)
{
    for (std::size_t t = 0; t < k; ++t)
        scalarAxpys(h, ldh, alpha[t], rows, x[t], n);
}

constexpr Ops kScalarOps = {"scalar", scalarDot, scalarAxpy, scalarDots,
                            scalarRankUpdate};

// archytas-analyzer: allow(global-state) -- the once-per-process backend
// selection the header documents: written exactly once at startup (or by
// the test hook), then read-only; the pointed-to tables are immutable.
std::atomic<const Ops *> g_active{nullptr};

bool
envRequestsScalar(const char *env)
{
    return std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
           std::strcmp(env, "0") == 0;
}

bool
envRequestsAvx2(const char *env)
{
    return std::strcmp(env, "avx2") == 0 || std::strcmp(env, "on") == 0;
}

/** Environment + CPUID policy; runs once, from ops(). */
const Ops &
selectOps()
{
    const bool usable = avx2Compiled() && avx2Supported();
    const char *env = std::getenv("ARCHYTAS_SIMD");
    if (env != nullptr && envRequestsScalar(env))
        return kScalarOps;
    if (env != nullptr && envRequestsAvx2(env)) {
        if (usable)
            return opsFor(Backend::kAvx2);
        // Graceful skip for non-AVX2 runners: honor the spirit of the
        // request without crashing on an illegal instruction.
        ARCHYTAS_WARN("ARCHYTAS_SIMD=", env, " requested but AVX2 is ",
                      avx2Compiled() ? "not supported by this CPU"
                                     : "not compiled in",
                      "; falling back to the scalar backend");
        return kScalarOps;
    }
    if (env != nullptr && std::strcmp(env, "auto") != 0 &&
        env[0] != '\0') {
        ARCHYTAS_WARN("unknown ARCHYTAS_SIMD value '", env,
                      "'; using auto selection");
    }
    return usable ? opsFor(Backend::kAvx2) : kScalarOps;
}

void
publishGauge(const Ops &table)
{
    ARCHYTAS_GAUGE_SET("kernels.backend",
                       &table == &kScalarOps
                           ? static_cast<long>(Backend::kScalar)
                           : static_cast<long>(Backend::kAvx2));
}

} // namespace

const Ops &
ops()
{
    const Ops *p = g_active.load(std::memory_order_acquire);
    if (p != nullptr)
        return *p;
    const Ops &selected = selectOps();
    // Benign race: concurrent first calls compute the same selection
    // (environment and CPUID are stable), so either store wins.
    g_active.store(&selected, std::memory_order_release);
    publishGauge(selected);
    return selected;
}

Backend
activeBackend()
{
    return &ops() == &kScalarOps ? Backend::kScalar : Backend::kAvx2;
}

const Ops &
opsFor(Backend backend)
{
#if defined(ARCHYTAS_HAVE_AVX2)
    if (backend == Backend::kAvx2 && avx2Supported())
        return detail::avx2Ops();
#else
    static_cast<void>(backend);
#endif
    return kScalarOps;
}

const char *
backendName(Backend backend)
{
    return backend == Backend::kAvx2 ? "avx2" : "scalar";
}

bool
avx2Compiled()
{
#if defined(ARCHYTAS_HAVE_AVX2)
    return true;
#else
    return false;
#endif
}

bool
avx2Supported()
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

Backend
setBackendForTest(Backend backend)
{
    const Ops &table = opsFor(backend);
    g_active.store(&table, std::memory_order_release);
    publishGauge(table);
    return &table == &kScalarOps ? Backend::kScalar : Backend::kAvx2;
}

} // namespace archytas::linalg::simd
