/**
 * @file
 * The benchmark's own arithmetic: order statistics, the serving
 * latency and backlog accounting, the capacity-ladder decision and
 * search, and the trace residual.  Pure functions over plain vectors,
 * so tests/test_bench_math.cc pins every rule on fixed inputs.
 */

#ifndef E2E_BENCH_BENCH_MATH_H
#define E2E_BENCH_BENCH_MATH_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace e2e {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Samples strictly above the nearest-rank @p q percentile of @p n. */
inline int64_t
samplesBeyond(int64_t n, double q)
{
    const auto rank = static_cast<int64_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    return n - std::max<int64_t>(rank, 1);
}

/**
 * A percentile is reportable only when at least ten samples lie
 * beyond it: p99 needs 1000 samples, p90 needs 100.
 */
inline bool
percentileReportable(int64_t n, double q)
{
    return n > 0 && samplesBeyond(n, q) >= 10;
}

/** Nearest-rank percentile (q in (0, 1]); NaN for no samples.
 *  Infinite samples (shed or unanswered requests) sort last. */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<int64_t>(
        std::ceil(q * static_cast<double>(v.size()) - 1e-9));
    return v[static_cast<size_t>(std::clamp<int64_t>(
        rank - 1, 0, static_cast<int64_t>(v.size()) - 1))];
}

/** Median (mean of the middle pair for even sizes); NaN if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/**
 * Open-loop latency of each request: from the time it was scheduled
 * to be sent (not when the generator got round to submitting it) to
 * the time its response arrived.  A request with no response
 * (done < 0: shed or unanswered) counts as missing every limit.
 */
inline std::vector<double>
latencyFromSchedule(const std::vector<double> &scheduled,
                    const std::vector<double> &done)
{
    std::vector<double> lat(scheduled.size(), kInf);
    for (size_t i = 0; i < scheduled.size(); ++i)
        if (i < done.size() && done[i] >= 0.0)
            lat[i] = done[i] - scheduled[i];
    return lat;
}

/** Requests scheduled by time @p t and not yet answered at @p t. */
inline int64_t
backlogAt(double t, const std::vector<double> &scheduled,
          const std::vector<double> &done)
{
    int64_t out = 0;
    for (size_t i = 0; i < scheduled.size(); ++i)
        if (scheduled[i] <= t &&
            !(i < done.size() && done[i] >= 0.0 && done[i] <= t))
            ++out;
    return out;
}

/** What one rung of the capacity ladder observed. */
struct RungOutcome
{
    double offeredQps = 0.0;
    int64_t sent = 0;
    int64_t shed = 0;
    int64_t unanswered = 0;
    double p99Seconds = kInf;
    /** Backlog at the midpoint and at the end of the send window. */
    int64_t backlogMid = 0;
    int64_t backlogEnd = 0;
};

/**
 * The three tests of a rung: p99 within the SLO (with enough samples
 * to report a p99 at all), nothing shed or left unanswered, and no
 * backlog growth over the second half of the send window beyond the
 * arrivals of half an SLO — a queue that grows by more than that
 * would push later requests past the SLO if the rung ran longer.
 */
inline bool
rungPasses(const RungOutcome &r, double slo_seconds)
{
    if (!percentileReportable(r.sent, 0.99))
        return false;
    if (r.shed > 0 || r.unanswered > 0)
        return false;
    if (!(r.p99Seconds <= slo_seconds))
        return false;
    const double tolerance = r.offeredQps * slo_seconds * 0.5;
    return static_cast<double>(r.backlogEnd - r.backlogMid) <=
           tolerance;
}

/** Offered rate of rung @p i of the geometric ladder (a fractional
 *  rung interpolates geometrically). */
inline double
ladderRate(double i, double base_qps, double ratio)
{
    return base_qps * std::pow(ratio, i);
}

/**
 * Highest passing rung in [0, top], -1 when rung 0 fails.  Probes
 * @p start, then strides of @p stride rungs up while rungs pass (or
 * down while they fail) to bracket the boundary, then bisects between
 * the last pass and the first failure.  @p probe runs one rung.
 */
inline int
searchCapacity(int start, int top, int stride,
               const std::function<bool(int)> &probe)
{
    start = std::clamp(start, 0, top);
    int pass = -1;
    int fail = top + 1;
    if (probe(start)) {
        pass = start;
        while (pass < top) {
            const int next = std::min(pass + stride, top);
            if (!probe(next)) {
                fail = next;
                break;
            }
            pass = next;
        }
        if (pass == top)
            return top;
    } else {
        fail = start;
        while (fail > 0) {
            const int next = std::max(fail - stride, 0);
            if (probe(next)) {
                pass = next;
                break;
            }
            fail = next;
        }
        if (pass < 0)
            return -1;
    }
    while (fail - pass > 1) {
        const int mid = pass + (fail - pass) / 2;
        if (probe(mid))
            pass = mid;
        else
            fail = mid;
    }
    return pass;
}

/**
 * Up-down staircase over the ladder: up after a pass, down after a
 * fail.  The step starts at one rung, doubles (up to @p maxStep) after
 * three moves in the same direction, so a start misplaced by a stall
 * is left quickly, and halves at every reversal.  It settles where a
 * rung passes about half the time, alternating between the highest
 * rung that passes and the one above it.
 */
class Staircase
{
  public:
    Staircase(int start, int top, int max_step)
        : rung_(std::clamp(start, 0, top)), top_(top), maxStep_(max_step)
    {
    }

    /** The rung to probe next. */
    int rung() const { return rung_; }

    /** Record the outcome of probing rung() and move. */
    void
    record(bool passed)
    {
        probed_.push_back(rung_);
        passed_.push_back(passed);
        const int dir = passed ? 1 : -1;
        if (dir == lastDir_) {
            if (++sameDir_ >= 3) {
                step_ = std::min(step_ * 2, maxStep_);
                sameDir_ = 0;
            }
        } else {
            if (lastDir_ != 0)
                step_ = std::max(step_ / 2, 1);
            sameDir_ = 1;
        }
        lastDir_ = dir;
        rung_ = std::clamp(rung_ + dir * step_, 0, top_);
    }

    const std::vector<int> &probed() const { return probed_; }

    /**
     * Capacity rung: the mean of the rungs that passed in the second
     * half of the probes (the first half is the walk to the boundary),
     * or of all passing rungs if none passed there.  Once settled that
     * is the highest rung that passes; a rare stall moves it by a
     * fraction of a rung, and the mean is not tied to the ladder's
     * grid.  -1 when no probe passed.
     */
    double
    estimate() const
    {
        for (size_t from : {probed_.size() / 2, size_t{0}}) {
            double sum = 0.0;
            int n = 0;
            for (size_t i = from; i < probed_.size(); ++i)
                if (passed_[i]) {
                    sum += probed_[i];
                    ++n;
                }
            if (n > 0)
                return sum / n;
        }
        return -1.0;
    }

  private:
    int rung_;
    int top_;
    int maxStep_;
    int step_ = 1;
    int lastDir_ = 0;
    int sameDir_ = 0;
    std::vector<int> probed_;
    std::vector<bool> passed_;
};

/** Share of a parent span not covered by its children. */
inline double
residualFraction(double parent_seconds, double children_seconds)
{
    return parent_seconds > 0.0
               ? 1.0 - children_seconds / parent_seconds
               : 0.0;
}

} // namespace e2e

#endif // E2E_BENCH_BENCH_MATH_H
