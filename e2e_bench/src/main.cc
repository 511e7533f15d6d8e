/**
 * @file
 * gnnbench_e2e: one workload of the end-to-end benchmark per
 * process.
 *
 *   gnnbench_e2e --workload sage|saint|serve|dist --seed N
 *                --seconds S --trace 0|1 [--out-dir D] [--revision R]
 *
 * Prints a provenance header, one line per metric (value, unit,
 * measured/modeled/count tag) and, last, a JSON object with every
 * metric and the outcome of the output checks.  Exits non-zero when
 * any check failed.  e2e_bench/run.py builds this binary and selects
 * the metrics BENCHMARK.json names.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"
#include "gnnbench/core/parallel.h"
#include "gnnbench/kernels/kernels.h"

using namespace e2e;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "gnnbench_e2e: %s\nusage: gnnbench_e2e --workload "
                 "sage|saint|serve|dist --seed N --seconds S "
                 "--trace 0|1 [--out-dir D] [--revision R]\n",
                 why.c_str());
    std::exit(2);
}

const char *
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? v : fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string revision = "unknown";
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = val;
            have_workload = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end)
                usage("--seed must be an unsigned integer");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end || !(opt.seconds > 0.0))
                usage("--seconds must be a positive number");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace must be 0 or 1");
            opt.trace = val == "1";
        } else if (arg == "--out-dir") {
            opt.outDir = val;
        } else if (arg == "--revision") {
            revision = val;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!have_workload)
        usage("--workload is required");

    std::printf("# gnnbench e2e: workload=%s seed=%llu seconds=%g "
                "trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::printf("# nproc=%u pool_threads=%d GNNBENCH_NUM_THREADS=%s "
                "OMP_NUM_THREADS=%s kernel_variant=%s revision=%s\n",
                std::thread::hardware_concurrency(),
                gnnbench::core::parallel::numThreads(),
                envOr("GNNBENCH_NUM_THREADS", "unset"),
                envOr("OMP_NUM_THREADS", "unset"),
                gnnbench::kernels::resolvedVariantLabel().c_str(),
                revision.c_str());
    std::fflush(stdout);

    Report report;
    SpanRecorder spans;
    const CpuTimes cpu_start = CpuTimes::read();
    if (opt.workload == "sage")
        runSage(opt, report, spans);
    else if (opt.workload == "saint")
        runSaint(opt, report, spans);
    else if (opt.workload == "serve")
        runServe(opt, report, spans);
    else if (opt.workload == "dist")
        runDist(opt, report, spans);
    else
        usage("unknown workload " + opt.workload);

    report.add("host.steal_frac", CpuTimes::read().stealSince(cpu_start),
               "ratio", Tag::Measured,
               "CPU time stolen by the hypervisor during the run");
    report.add("failed_frac", report.failedFraction(), "ratio",
               Tag::Count, "failed / attempted operations");
    if (!report.has("peak_rss_mb"))
        report.add("peak_rss_mb", peakRssMiB(), "MiB", Tag::Measured,
                   "peak resident set of the workload process");
    if (opt.trace) {
        const std::string path = opt.outDir + "/trace-" +
                                 opt.workload + "-" +
                                 std::to_string(opt.seed) + ".json";
        spans.write(path);
        std::printf("# spans: %zu written to %s\n",
                    spans.spans().size(), path.c_str());
    }
    report.print();
    return report.correct() ? 0 : 1;
}
