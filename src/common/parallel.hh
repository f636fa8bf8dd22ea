/**
 * @file
 * Deterministic parallel execution layer (docs/PERFORMANCE.md).
 *
 * A process-wide std::thread pool sized from the ARCHYTAS_THREADS
 * environment variable (default: hardware concurrency) behind two
 * primitives with a hard *determinism contract*: results are
 * bit-identical at any thread count, including 1.
 *
 *  - parallelFor / parallelForChunks: each index (or chunk) must write
 *    disjoint state. Because no two tasks touch the same output, the
 *    scheduling order cannot influence the result and determinism is
 *    automatic.
 *  - mapReduceOrdered: reductions. The range is cut into fixed-size
 *    chunks whose boundaries depend only on the range and the caller's
 *    grain -- never on the thread count -- each chunk accumulates into
 *    its own zero-initialized partial, and partials are merged
 *    *sequentially in chunk order* on the calling thread. Floating-point
 *    accumulation therefore always associates identically.
 *
 * Interleaved sessions must reproduce solo serial runs bit for bit, so
 * this contract is non-negotiable; tests/slam/test_determinism.cc holds
 * it down. Raw std::thread/std::async are banned outside this file by
 * the `raw-thread` lint rule (tools/archytas_lint.py).
 *
 * Nested parallel regions are guarded: a parallel primitive invoked from
 * inside a pool task runs inline on the calling thread (same chunking,
 * same merge order), so composing parallel layers can never deadlock the
 * pool and never changes results.
 *
 * Exceptions thrown by tasks are captured and rethrown to the caller;
 * when several chunks throw, the exception of the lowest-indexed chunk
 * wins, so the reported failure is deterministic too.
 */

#ifndef ARCHYTAS_COMMON_PARALLEL_HH
#define ARCHYTAS_COMMON_PARALLEL_HH

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace archytas::parallel {

/** Compute threads the pool currently targets (>= 1). */
std::size_t threadCount();

/**
 * Overrides the pool size (test hook and programmatic control); 0
 * restores the ARCHYTAS_THREADS / hardware-concurrency default. Existing
 * workers are joined before the new size takes effect. Must not be
 * called from inside a parallel region.
 */
void setThreadCount(std::size_t n);

/** True while the calling thread executes inside a pool task. */
bool inParallelRegion();

/**
 * Executes task(0) .. task(n-1) across the pool (the calling thread
 * participates). Scheduling order is unspecified; tasks must write
 * disjoint state. Blocks until every task finished; rethrows the
 * lowest-indexed captured exception, if any. Runs inline when the pool
 * has one thread, when n <= 1, or when called from inside a region.
 */
void runTasks(std::size_t n, const std::function<void(std::size_t)> &task);

/**
 * Parallel loop over [begin, end). `body(i)` must only write state no
 * other index writes; under that contract the result is independent of
 * the schedule and therefore deterministic at any thread count.
 */
void parallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)> &body);

/**
 * Chunked parallel loop: `body(b, e)` receives half-open sub-ranges of
 * [begin, end) of at most `grain` indices. Chunk boundaries depend only
 * on (begin, end, grain). Same disjoint-writes contract as parallelFor.
 */
void parallelForChunks(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)> &body);

/**
 * Deterministic chunked map-reduce over [begin, end).
 *
 *  - make() produces a zero partial (one per chunk);
 *  - accumulate(partial, i) folds index i into its chunk's partial;
 *  - merge(std::move(partial)) is invoked on the *calling* thread,
 *    sequentially, in increasing chunk order.
 *
 * Chunk boundaries depend only on (begin, end, grain), so the exact
 * association of every floating-point sum -- and hence the result bit
 * pattern -- is identical at any thread count.
 */
template <typename MakeFn, typename AccumulateFn, typename MergeFn>
void
mapReduceOrdered(std::size_t begin, std::size_t end, std::size_t grain,
                 MakeFn &&make, AccumulateFn &&accumulate, MergeFn &&merge)
{
    ARCHYTAS_ASSERT(grain > 0, "mapReduceOrdered: grain must be positive");
    if (begin >= end)
        return;
    using Partial = std::decay_t<decltype(make())>;
    const std::size_t n = end - begin;
    const std::size_t chunks = (n + grain - 1) / grain;
    std::vector<std::optional<Partial>> parts(chunks);
    runTasks(chunks, [&](std::size_t c) {
        Partial p = make();
        const std::size_t b = begin + c * grain;
        const std::size_t e = std::min(end, b + grain);
        for (std::size_t i = b; i < e; ++i)
            accumulate(p, i);
        parts[c].emplace(std::move(p));
    });
    for (std::size_t c = 0; c < chunks; ++c)
        merge(std::move(*parts[c]));
}

} // namespace archytas::parallel

#endif // ARCHYTAS_COMMON_PARALLEL_HH
