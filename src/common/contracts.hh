/**
 * @file
 * Runtime dimension/bounds contracts for the numerical kernels.
 *
 * Every result -- software estimate and accelerator model alike -- comes
 * from one numeric solve path, so a silent shape mismatch or out-of-range
 * access in `linalg`/`hw` corrupts a solve without any visible failure.
 * These macros make such errors fail loudly at the call site in checked
 * builds, and compile to nothing in Release builds so the hot kernels pay
 * no cost in production.
 *
 * Contract checks are on by default and disabled when the build defines
 * ARCHYTAS_DISABLE_CONTRACTS (the top-level CMakeLists does this for
 * CMAKE_BUILD_TYPE=Release, overridable with -DARCHYTAS_CONTRACTS=ON/OFF).
 *
 * Contract violations are bugs in the caller, never user errors, so all
 * three macros panic (abort) through ARCHYTAS_PANIC rather than throw.
 */

#ifndef ARCHYTAS_COMMON_CONTRACTS_HH
#define ARCHYTAS_COMMON_CONTRACTS_HH

#include "common/logging.hh"

#ifdef ARCHYTAS_DISABLE_CONTRACTS
#define ARCHYTAS_CONTRACTS_ENABLED 0
#else
#define ARCHYTAS_CONTRACTS_ENABLED 1
#endif

#if ARCHYTAS_CONTRACTS_ENABLED

/**
 * Debug-mode invariant check: like ARCHYTAS_ASSERT but compiled out in
 * Release. Use for preconditions on hot paths where the always-on assert
 * would dominate the kernel's runtime.
 */
#define ARCHYTAS_DCHECK(cond, ...)                                           \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ARCHYTAS_PANIC("contract violated: " #cond " ", ##__VA_ARGS__); \
        }                                                                    \
    } while (0)

/**
 * Checks that two dimension expressions agree, reporting both values.
 * `what` names the operation (e.g. "cholesky", "Matrix::operator+=").
 */
#define ARCHYTAS_CHECK_DIM(what, actual, expected)                           \
    do {                                                                     \
        const auto archytas_dim_actual_ = (actual);                          \
        const auto archytas_dim_expected_ = (expected);                      \
        if (archytas_dim_actual_ != archytas_dim_expected_) {                \
            ARCHYTAS_PANIC(what, ": dimension mismatch, got ",               \
                           archytas_dim_actual_, ", expected ",              \
                           archytas_dim_expected_);                          \
        }                                                                    \
    } while (0)

/**
 * Checks that `idx` is a valid index into a container of size `limit`
 * (i.e. idx < limit), reporting both on failure.
 */
#define ARCHYTAS_CHECK_BOUNDS(what, idx, limit)                              \
    do {                                                                     \
        const auto archytas_bounds_idx_ = (idx);                             \
        const auto archytas_bounds_limit_ = (limit);                         \
        if (!(archytas_bounds_idx_ < archytas_bounds_limit_)) {              \
            ARCHYTAS_PANIC(what, ": index ", archytas_bounds_idx_,           \
                           " out of range [0, ", archytas_bounds_limit_,     \
                           ")");                                             \
        }                                                                    \
    } while (0)

#else // !ARCHYTAS_CONTRACTS_ENABLED

// The sizeof-based expansions keep operands syntactically alive (no
// unused-variable warnings under -Werror) without evaluating them.
#define ARCHYTAS_DCHECK(cond, ...)                                           \
    static_cast<void>(sizeof((cond) ? 1 : 0))
#define ARCHYTAS_CHECK_DIM(what, actual, expected)                           \
    static_cast<void>(sizeof((actual) == (expected) ? 1 : 0))
#define ARCHYTAS_CHECK_BOUNDS(what, idx, limit)                              \
    static_cast<void>(sizeof((idx) < (limit) ? 1 : 0))

#endif // ARCHYTAS_CONTRACTS_ENABLED

#endif // ARCHYTAS_COMMON_CONTRACTS_HH
