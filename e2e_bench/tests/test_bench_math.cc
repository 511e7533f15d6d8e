/**
 * @file
 * Fixed-input tests of the benchmark's own arithmetic (bench_math.h):
 * percentile selection, open-loop latency, backlog, the capacity
 * rung decision and search, and the trace residual.
 */

#include <gtest/gtest.h>

#include <set>

#include "bench_math.h"

using namespace e2e;

namespace {

std::vector<double>
oneToN(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i)  // unsorted on purpose
        v.push_back(i);
    return v;
}

RungOutcome
cleanRung()
{
    RungOutcome r;
    r.offeredQps = 4000.0;
    r.sent = 2000;
    r.p99Seconds = 0.010;
    r.backlogMid = 12;
    r.backlogEnd = 15;
    return r;
}

} // namespace

TEST(Percentile, NearestRankOnUnsortedInput)
{
    const auto v = oneToN(1000);
    EXPECT_EQ(percentile(v, 0.5), 500.0);
    EXPECT_EQ(percentile(v, 0.99), 990.0);
    EXPECT_EQ(percentile(v, 1.0), 1000.0);
    EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
    EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
}

TEST(Percentile, InfiniteSamplesSortLast)
{
    std::vector<double> v = oneToN(100);
    v[0] = kInf;  // one request never answered
    EXPECT_EQ(percentile(v, 1.0), kInf);
    EXPECT_EQ(percentile(v, 0.99), 99.0);
}

TEST(Percentile, NeedsTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(1000, 0.99), 10);
    EXPECT_TRUE(percentileReportable(1000, 0.99));
    EXPECT_FALSE(percentileReportable(999, 0.99));
    EXPECT_TRUE(percentileReportable(100, 0.9));
    EXPECT_FALSE(percentileReportable(99, 0.9));
    EXPECT_TRUE(percentileReportable(20, 0.5));
    EXPECT_FALSE(percentileReportable(19, 0.5));
    EXPECT_FALSE(percentileReportable(0, 0.5));
}

TEST(Median, OddEvenEmpty)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_TRUE(std::isnan(median({})));
}

TEST(Latency, MeasuredFromScheduledSendTime)
{
    // Request 1 was due at 1.0 but the generator only submitted it at
    // 1.4 (a stall); the server answered 0.1 after submission.  Its
    // latency is 0.5, not 0.1: the stall is charged to the request.
    const std::vector<double> scheduled = {0.0, 1.0, 2.0};
    const std::vector<double> done = {0.05, 1.5, -1.0};
    const auto lat = latencyFromSchedule(scheduled, done);
    ASSERT_EQ(lat.size(), 3u);
    EXPECT_DOUBLE_EQ(lat[0], 0.05);
    EXPECT_DOUBLE_EQ(lat[1], 0.5);
    EXPECT_EQ(lat[2], kInf);  // unanswered misses every limit
}

TEST(Backlog, CountsScheduledButUnanswered)
{
    const std::vector<double> scheduled = {0.0, 1.0, 2.0, 3.0};
    const std::vector<double> done = {0.5, 2.5, -1.0, 3.1};
    EXPECT_EQ(backlogAt(0.2, scheduled, done), 1);
    EXPECT_EQ(backlogAt(1.0, scheduled, done), 1);
    EXPECT_EQ(backlogAt(2.0, scheduled, done), 2);
    EXPECT_EQ(backlogAt(3.0, scheduled, done), 2);
    EXPECT_EQ(backlogAt(4.0, scheduled, done), 1);
}

TEST(Rung, CleanRungPasses)
{
    EXPECT_TRUE(rungPasses(cleanRung(), 0.050));
}

TEST(Rung, TailOverSloFails)
{
    RungOutcome r = cleanRung();
    r.p99Seconds = 0.0501;
    EXPECT_FALSE(rungPasses(r, 0.050));
    r.p99Seconds = kInf;
    EXPECT_FALSE(rungPasses(r, 0.050));
}

TEST(Rung, AnyShedOrUnansweredFails)
{
    RungOutcome r = cleanRung();
    r.shed = 1;
    EXPECT_FALSE(rungPasses(r, 0.050));
    r = cleanRung();
    r.unanswered = 1;
    EXPECT_FALSE(rungPasses(r, 0.050));
}

TEST(Rung, GrowingBacklogFails)
{
    // 4000 QPS x 50 ms / 2 = 100 requests of tolerated growth.
    RungOutcome r = cleanRung();
    r.backlogEnd = r.backlogMid + 100;
    EXPECT_TRUE(rungPasses(r, 0.050));
    r.backlogEnd = r.backlogMid + 101;
    EXPECT_FALSE(rungPasses(r, 0.050));
}

TEST(Rung, TooFewSamplesForP99Fails)
{
    RungOutcome r = cleanRung();
    r.sent = 999;
    EXPECT_FALSE(rungPasses(r, 0.050));
}

TEST(Ladder, GeometricRates)
{
    EXPECT_DOUBLE_EQ(ladderRate(0, 1000.0, 1.05), 1000.0);
    EXPECT_NEAR(ladderRate(2, 1000.0, 1.05), 1102.5, 1e-9);
}

TEST(Ladder, SearchFindsMonotoneBoundary)
{
    // Boundaries above, at and below the starting rung 42.
    for (int boundary : {-1, 0, 1, 7, 33, 34, 41, 42, 43, 50, 84, 98, 99}) {
        std::set<int> probed;
        const int got = searchCapacity(42, 99, 8, [&](int i) {
            EXPECT_TRUE(i >= 0 && i <= 99) << "probed rung " << i;
            probed.insert(i);
            return i <= boundary;
        });
        EXPECT_EQ(got, boundary) << "boundary " << boundary;
        EXPECT_LE(probed.size(), 12u) << "boundary " << boundary;
    }
    EXPECT_EQ(searchCapacity(0, 0, 8, [](int) { return true; }), 0);
    EXPECT_EQ(searchCapacity(7, 0, 8, [](int) { return false; }), -1);
}

namespace {

/** Run @p probes steps of a staircase against a pass/fail rule. */
Staircase
walk(int start, int probes, const std::function<bool(int)> &passes)
{
    Staircase s(start, 196, 16);
    for (int i = 0; i < probes; ++i)
        s.record(passes(s.rung()));
    return s;
}

} // namespace

TEST(Ladder, StaircaseStepsGrowAndShrink)
{
    // Three moves one way double the step; a reversal halves it.
    const Staircase s = walk(10, 7, [](int i) { return i < 22; });
    EXPECT_EQ(s.probed(), (std::vector<int>{10, 11, 12, 14, 16, 18, 22}));
    EXPECT_EQ(s.rung(), 20);  // failed at 22, stepped down by 4 / 2
    EXPECT_EQ(walk(0, 3, [](int) { return false; }).rung(), 0);
    EXPECT_EQ(walk(196, 3, [](int) { return true; }).rung(), 196);
    EXPECT_DOUBLE_EQ(Staircase(5, 196, 16).estimate(), -1.0);
}

TEST(Ladder, StaircaseSettlesOnHighestPassingRung)
{
    auto below = [](int b) { return [b](int i) { return i <= b; }; };
    // At, far below (a search misled by a stall) and far above.
    EXPECT_DOUBLE_EQ(walk(140, 30, below(140)).estimate(), 140.0);
    EXPECT_DOUBLE_EQ(walk(110, 36, below(145)).estimate(), 145.0);
    EXPECT_DOUBLE_EQ(walk(180, 36, below(145)).estimate(), 145.0);

    // One stall fails the boundary rung once mid-run (odd probes sit
    // on rung 140): the estimate moves by a fraction of a rung instead
    // of dropping to the stall.
    int calls = 0;
    const Staircase s = walk(140, 30, [&](int i) {
        return ++calls != 21 && i <= 140;
    });
    EXPECT_GT(s.estimate(), 139.0);
    EXPECT_LT(s.estimate(), 140.0);
}

TEST(Ladder, FractionalRungInterpolates)
{
    EXPECT_NEAR(ladderRate(0.5, 1000.0, 1.21), 1100.0, 1e-9);
}

TEST(Residual, ShareNotCoveredByChildren)
{
    EXPECT_NEAR(residualFraction(2.0, 1.9), 0.05, 1e-12);
    EXPECT_NEAR(residualFraction(2.0, 2.2), -0.1, 1e-12);  // overlap
    EXPECT_DOUBLE_EQ(residualFraction(2.0, 2.0), 0.0);
    EXPECT_DOUBLE_EQ(residualFraction(0.0, 0.0), 0.0);
}
