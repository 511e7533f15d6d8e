/**
 * @file
 * Shared plumbing of the end-to-end benchmark: the wall clock, the
 * in-memory span recorder of the traced run, the metric report with
 * provenance tags, and the workload entry points.
 */

#ifndef E2E_BENCH_COMMON_H
#define E2E_BENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/** Monotonic wall seconds (steady_clock, arbitrary epoch). */
inline double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Peak resident set of this process so far, in MiB. */
double peakRssMiB();

/**
 * Machine-wide CPU time from /proc/stat: the share a hypervisor stole
 * from the CPUs between two readings tells whether a run
 * competed with other guests for the host.
 */
struct CpuTimes
{
    double steal = 0.0;
    double total = 0.0;

    /** Current counters (zeros when /proc/stat is unreadable). */
    static CpuTimes read();

    /** Stolen share of CPU time since @p earlier. */
    double
    stealSince(const CpuTimes &earlier) const
    {
        const double dt = total - earlier.total;
        return dt > 0.0 ? (steal - earlier.steal) / dt : 0.0;
    }
};

/** Where a number comes from. */
enum class Tag { Measured, Modeled, Count };

/**
 * Every metric the run produced, by name.  Each line printed carries
 * the unit and the measured/modeled/count tag, and the last stdout
 * line is one JSON object holding all of them plus the outcome of the
 * correctness checks.
 */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit, Tag tag,
             const std::string &note = "");

    /** Record @p failed of @p attempted operations. */
    void
    count(int64_t attempted, int64_t failed)
    {
        attempted_ += attempted;
        failed_ += failed;
    }

    /** A failed correctness check: printed now, fails the run. */
    void fail(const std::string &what);

    bool correct() const { return failures_ == 0; }

    bool has(const std::string &name) const
    {
        return metrics_.count(name) > 0;
    }

    double
    failedFraction() const
    {
        return attempted_ > 0 ? static_cast<double>(failed_) / attempted_
                              : 0.0;
    }

    /** Print the metric lines and the final JSON line. */
    void print() const;

  private:
    struct Entry
    {
        double value;
        std::string unit;
        Tag tag;
        std::string note;
    };
    std::map<std::string, Entry> metrics_;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
    int64_t failures_ = 0;
};

/**
 * Spans of the traced run, kept in memory and written out once at the
 * end.  Single-threaded: the traced replays run on one thread.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int64_t parent = -1;  ///< index of the enclosing span
        int64_t id = -1;      ///< batch index or request id
    };

    /** Opens a span on construction and closes it on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, std::string name, int64_t id = -1);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        int64_t index_;
        int64_t prevOpen_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations of every span called @p name, in record order. */
    std::vector<double> durations(const std::string &name) const;

    /** Summed duration of the direct children of spans named
     *  @p parent_name. */
    double childSeconds(const std::string &parent_name) const;

    /** Write the spans as Chrome trace-event JSON. */
    void write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    int64_t open_ = -1;
};

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the span file of a traced run. */
    std::string outDir = ".";
};

/** Workload entry points (one per BENCHMARK.json workload). */
void runSage(const Options &opt, Report &report, SpanRecorder &spans);
void runSaint(const Options &opt, Report &report, SpanRecorder &spans);
void runServe(const Options &opt, Report &report, SpanRecorder &spans);
void runDist(const Options &opt, Report &report, SpanRecorder &spans);

} // namespace e2e

#endif // E2E_BENCH_COMMON_H
