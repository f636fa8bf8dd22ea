/**
 * @file
 * Deterministic parallel execution layer (docs/PERFORMANCE.md).
 *
 * A process-wide std::thread pool sized from the ARCHYTAS_THREADS
 * environment variable (default: hardware concurrency) behind two
 * primitives with a hard *determinism contract*: results are
 * bit-identical at any thread count, including 1.
 *
 *  - runTasks / parallelFor: each task (or index) must write disjoint
 *    state. Because no two tasks touch the same output, the scheduling
 *    order cannot influence the result and determinism is automatic.
 *
 * There is no reduction primitive. A window's shared floating-point sums
 * (V's pose blocks, the rhs, the cost) run serially inside its session
 * in one fixed order; a caller that does reduce across tasks (the
 * baseline mini solver's residual chunks) fixes its chunk boundaries
 * itself and merges the chunk partials in chunk order.
 *
 * Interleaved sessions must reproduce solo serial runs bit for bit, so
 * this contract is non-negotiable; tests/slam/test_determinism.cc holds
 * it down. Raw std::thread/std::async are banned outside this file by
 * the `raw-thread` lint rule (tools/archytas_lint.py).
 *
 * Nested parallel regions are guarded: a parallel primitive invoked from
 * inside a pool task runs inline on the calling thread, so composing
 * parallel layers can never deadlock the pool and never changes results.
 *
 * Exceptions thrown by tasks are captured and rethrown to the caller;
 * when several tasks throw, the exception of the lowest-indexed task
 * wins, so the reported failure is deterministic too.
 */

#ifndef ARCHYTAS_COMMON_PARALLEL_HH
#define ARCHYTAS_COMMON_PARALLEL_HH

#include <cstddef>
#include <functional>

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

} // namespace archytas::parallel

#endif // ARCHYTAS_COMMON_PARALLEL_HH
