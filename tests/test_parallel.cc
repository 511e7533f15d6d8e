/** The shared parallel substrate: chunked loops, reductions, the
 *  determinism contract across pool sizes, nested-call safety,
 *  exception propagation, and the bounded queue. */

#include <array>
#include <atomic>
#include <numeric>
#include <thread>

#include <gtest/gtest.h>

#include "gnnbench/core/parallel.h"
#include "gnnbench/core/rng.h"

namespace gnnbench {
namespace core {
namespace parallel {
namespace {

/** Run fn under each pool size and restore the original setting. */
template <typename Fn>
void
withThreadCounts(std::initializer_list<int> counts, Fn &&fn)
{
    const int restore = numThreads();
    for (int t : counts) {
        setNumThreads(t);
        fn(t);
    }
    setNumThreads(restore);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    withThreadCounts({1, 4}, [](int) {
        std::vector<int> hits(1000, 0);
        parallelFor(0, 1000, 7, [&](int64_t b, int64_t e) {
            for (int64_t i = b; i < e; ++i)
                hits[i] += 1;
        });
        for (int h : hits)
            ASSERT_EQ(h, 1);
    });
}

TEST(ParallelFor, EmptyAndSingleElementRanges)
{
    withThreadCounts({1, 4}, [](int) {
        int calls = 0;
        parallelFor(5, 5, 8, [&](int64_t, int64_t) { ++calls; });
        EXPECT_EQ(calls, 0);
        std::vector<int> one(1, 0);
        parallelFor(0, 1, 8,
                    [&](int64_t b, int64_t e) { one[b] = int(e); });
        EXPECT_EQ(one[0], 1);
    });
}

TEST(ParallelForChunks, ChunkDecompositionIndependentOfPoolSize)
{
    // The determinism contract: chunk (index, begin, end) triples
    // depend only on (begin, end, grain) — never on the pool size.
    auto collect = [] {
        std::vector<std::array<int64_t, 3>> chunks(
            static_cast<size_t>(detail::chunkCount(3, 1003, 17)));
        parallelForChunks(3, 1003, 17,
                          [&](int64_t c, int64_t b, int64_t e) {
                              chunks[static_cast<size_t>(c)] = {c, b,
                                                                e};
                          });
        return chunks;
    };
    std::vector<std::vector<std::array<int64_t, 3>>> seen;
    withThreadCounts({1, 2, 4}, [&](int) { seen.push_back(collect()); });
    EXPECT_EQ(seen[0], seen[1]);
    EXPECT_EQ(seen[0], seen[2]);
}

TEST(ParallelFor, ChunkSeededRngIdenticalAcrossPoolSizes)
{
    // Randomized callers derive one Rng per chunk: outputs must be
    // bit-identical for any thread count.
    auto draw = [] {
        std::vector<uint64_t> out(512);
        const uint64_t base = 0xfeedf00dULL;
        parallelForChunks(0, 512, 19,
                          [&](int64_t c, int64_t b, int64_t e) {
                              Rng rng(chunkSeed(base, 7, c));
                              for (int64_t i = b; i < e; ++i)
                                  out[i] = rng.next();
                          });
        return out;
    };
    std::vector<std::vector<uint64_t>> seen;
    withThreadCounts({1, 4}, [&](int) { seen.push_back(draw()); });
    EXPECT_EQ(seen[0], seen[1]);
}

TEST(ParallelReduce, SumMatchesSerialAndIsDeterministic)
{
    std::vector<double> values(10000);
    Rng rng(99);
    for (auto &v : values)
        v = rng.uniform() - 0.5;

    auto reduce = [&] {
        return parallelReduce(
            0, static_cast<int64_t>(values.size()), 64, 0.0,
            [&](int64_t b, int64_t e) {
                double s = 0.0;
                for (int64_t i = b; i < e; ++i)
                    s += values[i];
                return s;
            },
            [](double a, double b) { return a + b; });
    };
    std::vector<double> results;
    withThreadCounts({1, 2, 4},
                     [&](int) { results.push_back(reduce()); });
    // Bit-identical across pool sizes (in-order combine), and close
    // to the serial sum.
    EXPECT_EQ(results[0], results[1]);
    EXPECT_EQ(results[0], results[2]);
    const double serial =
        std::accumulate(values.begin(), values.end(), 0.0);
    EXPECT_NEAR(results[0], serial, 1e-9);
}

TEST(ParallelReduce, EmptyRangeReturnsInit)
{
    EXPECT_EQ(parallelReduce(
                  10, 10, 4, int64_t{42},
                  [](int64_t, int64_t) { return int64_t{1}; },
                  [](int64_t a, int64_t b) { return a + b; }),
              42);
}

TEST(ParallelFor, NestedCallsRunSeriallyAndCorrectly)
{
    withThreadCounts({1, 4}, [](int) {
        std::vector<int64_t> out(64 * 64, 0);
        parallelFor(0, 64, 4, [&](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; ++r)
                parallelFor(0, 64, 8, [&](int64_t c0, int64_t c1) {
                    for (int64_t c = c0; c < c1; ++c)
                        out[r * 64 + c] = r * 64 + c;
                });
        });
        for (int64_t i = 0; i < 64 * 64; ++i)
            ASSERT_EQ(out[i], i);
    });
}

TEST(ParallelFor, WorkerThreadScopeForcesSerialExecution)
{
    EXPECT_FALSE(inWorkerThread());
    WorkerThreadScope scope;
    EXPECT_TRUE(inWorkerThread());
    // All chunks execute on this thread.
    const auto self = std::this_thread::get_id();
    parallelFor(0, 100, 3, [&](int64_t, int64_t) {
        EXPECT_EQ(std::this_thread::get_id(), self);
    });
}

TEST(ParallelFor, ExceptionPropagatesToCaller)
{
    withThreadCounts({1, 4}, [](int) {
        EXPECT_THROW(
            parallelFor(0, 1000, 8,
                        [&](int64_t b, int64_t) {
                            if (b >= 500)
                                throw std::runtime_error("boom");
                        }),
            std::runtime_error);
    });
}

TEST(ParallelFor, UsableAgainAfterException)
{
    withThreadCounts({4}, [](int) {
        try {
            parallelFor(0, 100, 4, [&](int64_t, int64_t) {
                throw std::runtime_error("first");
            });
            FAIL() << "expected throw";
        } catch (const std::runtime_error &) {
        }
        std::atomic<int64_t> sum{0};
        parallelFor(0, 100, 4, [&](int64_t b, int64_t e) {
            sum += e - b;
        });
        EXPECT_EQ(sum.load(), 100);
    });
}

// A fatal error exits with code 1 once the pool's worker threads
// exist: a forked death-test child has the pool object but not its
// threads, so fatal() must not run the pool's destructor.
TEST(ParallelFatal, ExitsCleanlyAfterPoolIsBuilt)
{
    withThreadCounts({4}, [](int) {
        parallelFor(0, 64, 1, [](int64_t, int64_t) {});
        EXPECT_EXIT(GNNBENCH_CHECK(false, "bad input after pool"),
                    ::testing::ExitedWithCode(1),
                    "bad input after pool");
    });
}

TEST(ParallelFatal, ExitsCleanlyFromInsideParallelRegion)
{
    withThreadCounts({4}, [](int) {
        parallelFor(0, 64, 1, [](int64_t, int64_t) {});
        EXPECT_EXIT(parallelFor(0, 64, 1,
                                [](int64_t b, int64_t) {
                                    GNNBENCH_CHECK(b != 17, "chunk ", b,
                                                   " rejected");
                                }),
                    ::testing::ExitedWithCode(1), "chunk 17 rejected");
    });
}

TEST(BoundedQueue, FifoWithinCapacity)
{
    BoundedQueue<int> q(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(q.push(i));
    EXPECT_EQ(q.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        auto v = q.pop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
}

TEST(BoundedQueue, PushBlocksUntilPopThenCloseDrains)
{
    BoundedQueue<int> q(1);
    EXPECT_TRUE(q.push(0));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(q.push(1)); // blocks until the consumer pops
        pushed = true;
    });
    EXPECT_EQ(q.pop().value(), 0);
    producer.join();
    EXPECT_TRUE(pushed.load());
    q.close();
    EXPECT_FALSE(q.push(2));          // closed: rejected
    EXPECT_EQ(q.pop().value(), 1);    // drains buffered item
    EXPECT_FALSE(q.pop().has_value()); // then reports closed
}

TEST(BoundedQueue, CloseWakesBlockedConsumer)
{
    BoundedQueue<int> q(2);
    std::thread consumer([&] {
        EXPECT_FALSE(q.pop().has_value()); // woken by close()
    });
    q.close();
    consumer.join();
}

TEST(Parallel, NumThreadsPositiveAndAdjustable)
{
    const int restore = numThreads();
    EXPECT_GE(restore, 1);
    setNumThreads(3);
    EXPECT_EQ(numThreads(), 3);
    setNumThreads(restore);
}

} // namespace
} // namespace parallel
} // namespace core
} // namespace gnnbench
