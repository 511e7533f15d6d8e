/**
 * @file
 * The `dist` workload: partition-parallel full-batch GraphSAGE at 4
 * modeled ranks, one epoch per dist::trainDistributedSage call.  Wall
 * time is measured; the trainer's modeled seconds are reported only
 * as modeled.* per-layer values.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_math.h"
#include "common.h"
#include "gnnbench/dist/shard.h"
#include "gnnbench/dist/trainer.h"
#include "gnnbench/graph/convert.h"
#include "gnnbench/graph/datasets.h"
#include "gnnbench/graph/partition.h"

namespace e2e {

namespace {

using namespace gnnbench;

/** flickr at a tenth of its nodes: one epoch is a few hundred ms, so
 *  a run holds enough calls for a stable median. */
constexpr double kScale = 0.1;
constexpr int kRanks = 4;
constexpr int64_t kHidden = 64;
constexpr int kSetups = 3;

bool
sameBits(const std::vector<core::Tensor> &a,
         const std::vector<core::Tensor> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].rows() != b[i].rows() || a[i].cols() != b[i].cols() ||
            std::memcmp(a[i].data(), b[i].data(),
                        static_cast<size_t>(a[i].numel()) *
                            sizeof(float)) != 0)
            return false;
    return true;
}

} // namespace

void
runDist(const Options &opt, Report &report, SpanRecorder &spans)
{
    graph::Dataset ds;
    std::vector<double> setup;
    for (int i = 0; i < kSetups; ++i) {
        const double t0 = wallNow();
        ds = graph::loadDataset("flickr", kScale, opt.seed);
        setup.push_back(wallNow() - t0);
    }
    std::printf("# dataset flickr x%g: %lld nodes, %lld edges\n", kScale,
                static_cast<long long>(ds.numNodes()),
                static_cast<long long>(ds.numEdges()));

    dist::DistConfig cfg;
    cfg.numRanks = kRanks;
    cfg.epochs = 1;
    cfg.hiddenDim = kHidden;
    cfg.seed = opt.seed;

    // Every call must end with the first call's weights, bit for bit.
    std::vector<core::Tensor> reference;
    auto call = [&](dist::DistResult *out) {
        const double t0 = wallNow();
        dist::DistResult r = dist::trainDistributedSage(ds, cfg);
        const double secs = wallNow() - t0;
        bool ok = r.epochs.size() == 1 &&
                  std::isfinite(r.epochs[0].loss);
        if (reference.empty())
            reference = r.weights;
        else
            ok = ok && sameBits(r.weights, reference);
        if (!ok)
            report.fail("dist epoch call: non-finite loss or weights "
                        "differing from the first call");
        report.count(1, ok ? 0 : 1);
        if (out)
            *out = std::move(r);
        return secs;
    };

    call(nullptr);  // warm-up
    std::vector<double> wall;
    dist::DistResult last;
    const double start = wallNow();
    while (wall.size() < 5 || wallNow() - start < opt.seconds)
        wall.push_back(call(&last));

    const double epoch = median(wall);
    report.add("setup_s", median(setup), "s", Tag::Measured,
               "dataset generation, median of " +
                   std::to_string(kSetups));
    report.add("latency_ms", epoch * 1e3, "ms", Tag::Measured,
               "single-epoch 4-rank call, median of " +
                   std::to_string(wall.size()));
    report.add("throughput_per_s",
               static_cast<double>(ds.trainIdx.size()) / epoch, "1/s",
               Tag::Measured, "training nodes per second");
    report.add("graph.load_s", median(setup), "s", Tag::Measured);
    report.add("dist.epoch_s", epoch, "s", Tag::Measured);
    report.add("modeled.epoch_s.dist", last.modeledSeconds, "s",
               Tag::Modeled, "DistResult::modeledSeconds");
    report.add("modeled.comm_s.dist", last.commSeconds, "s",
               Tag::Modeled, "DistResult::commSeconds");
    report.add("dist.wall_over_modeled", epoch / last.modeledSeconds,
               "ratio", Tag::Measured, "measured / modeled epoch");
    report.add("dist.halo_mb", static_cast<double>(last.haloBytes) / 1e6,
               "MB", Tag::Count);
    report.add("dist.allreduce_mb",
               static_cast<double>(last.allreduceBytes) / 1e6, "MB",
               Tag::Count);
    report.add("dist.cut_edges", static_cast<double>(last.cutEdges),
               "count", Tag::Count);
    report.add("dist.store_hit_rate", last.datastoreHitRate, "ratio",
               Tag::Count);
    if (!opt.trace)
        return;

    // Traced run: the partitioner and the sharder at the trainer's
    // options and RNG stream, then a traced epoch whose weights must
    // equal the untraced ones.
    graph::CsrGraph csr;
    graph::CsrGraph csc;
    {
        SpanRecorder::Scope s(spans, "graph.convert");
        csr = graph::cooToCsr(ds.graph);
        csc = graph::cooToCsc(ds.graph);
    }
    auto partition_rng = [&] {
        core::Rng rng(cfg.seed);
        rng.fork();  // the trainer's weight stream
        return rng.fork();
    };
    {
        core::Rng prng = partition_rng();
        SpanRecorder::Scope s(spans, "graph.partition");
        graph::partitionGraph(csr, kRanks, prng, cfg.partition);
    }
    {
        core::Rng prng = partition_rng();
        SpanRecorder::Scope s(spans, "dist.shard");
        dist::partitionAndShard(csr, csc, kRanks, prng, cfg.partition);
    }
    double traced = 0.0;
    {
        SpanRecorder::Scope s(spans, "dist.epoch");
        traced = call(nullptr);
    }
    report.add("graph.partition_s",
               spans.durations("graph.partition").front(), "s",
               Tag::Measured, "graph::partitionGraph");
    report.add("dist.shard_s", spans.durations("dist.shard").front(),
               "s", Tag::Measured,
               "dist::partitionAndShard (includes partitioning)");
    report.add("trace.overhead_frac", traced / epoch - 1.0, "ratio",
               Tag::Measured, "traced vs untraced epoch call");
}

} // namespace e2e
