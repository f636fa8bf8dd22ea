#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hh"

namespace archytas::parallel {
namespace {

/** Restores the default pool size when a test exits early. */
struct PoolSizeGuard
{
    ~PoolSizeGuard() { setThreadCount(0); }
};

TEST(Parallel, ThreadCountSetterAndDefault)
{
    PoolSizeGuard guard;
    const std::size_t def = threadCount();
    EXPECT_GE(def, 1u);

    setThreadCount(3);
    EXPECT_EQ(threadCount(), 3u);

    setThreadCount(0);
    EXPECT_EQ(threadCount(), def);
}

TEST(Parallel, EmptyRangesRunNothing)
{
    PoolSizeGuard guard;
    setThreadCount(4);
    std::atomic<int> calls{0};
    parallelFor(5, 5, [&](std::size_t) { ++calls; });
    parallelFor(7, 2, [&](std::size_t) { ++calls; });
    runTasks(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(Parallel, ParallelForCoversEveryIndexExactlyOnce)
{
    PoolSizeGuard guard;
    setThreadCount(8);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(0, n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Parallel, RunTasksCoversEveryTaskExactlyOnce)
{
    PoolSizeGuard guard;
    setThreadCount(4);
    const std::size_t n = 37;
    std::vector<std::atomic<int>> hits(n);
    runTasks(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(Parallel, ExceptionPropagatesLowestTaskIndex)
{
    PoolSizeGuard guard;
    setThreadCount(4);
    const auto task = [](std::size_t i) {
        if (i >= 3)
            throw std::runtime_error("task " + std::to_string(i));
    };
    for (int repeat = 0; repeat < 4; ++repeat) {
        try {
            runTasks(16, task);
            FAIL() << "expected runTasks to rethrow";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "task 3");
        }
    }
}

TEST(Parallel, PoolSurvivesAfterException)
{
    PoolSizeGuard guard;
    setThreadCount(4);
    EXPECT_THROW(
        runTasks(8, [](std::size_t) { throw std::runtime_error("boom"); }),
        std::runtime_error);
    std::atomic<int> sum{0};
    parallelFor(0, 100, [&](std::size_t i) {
        sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 4950);
}

TEST(Parallel, NestedParallelRunsInline)
{
    PoolSizeGuard guard;
    setThreadCount(4);
    EXPECT_FALSE(inParallelRegion());
    std::vector<std::atomic<int>> hits(64);
    parallelFor(0, 8, [&](std::size_t outer) {
        EXPECT_TRUE(inParallelRegion());
        // The nested region must execute inline on this worker; every
        // inner index still runs exactly once.
        parallelFor(0, 8, [&](std::size_t inner) {
            EXPECT_TRUE(inParallelRegion());
            ++hits[outer * 8 + inner];
        });
    });
    EXPECT_FALSE(inParallelRegion());
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
}

} // namespace
} // namespace archytas::parallel
