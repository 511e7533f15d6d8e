/**
 * @file
 * The `sage` and `saint` workloads: single-epoch training calls of
 * both frameworks, timed from outside the library, and a traced
 * replay of one epoch per framework through the same public calls
 * the training loops make (models/graphsage.cc, models/graphsaint.cc,
 * CPU mode), so the replayed losses equal the untraced ones bit for
 * bit.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_math.h"
#include "common.h"
#include "gnnbench/core/ops.h"
#include "gnnbench/core/optim.h"
#include "gnnbench/device/session.h"
#include "gnnbench/dglx/dataloader.h"
#include "gnnbench/dglx/nn.h"
#include "gnnbench/graph/datasets.h"
#include "gnnbench/kernels/kernels.h"
#include "gnnbench/models/graphsage.h"
#include "gnnbench/models/graphsaint.h"
#include "gnnbench/models/induced_step.h"
#include "gnnbench/pygx/dataloader.h"
#include "gnnbench/pygx/nn.h"

namespace e2e {

namespace {

using namespace gnnbench;
namespace ag = core::ag;
using models::Framework;

enum class Model { Sage, Saint };

/**
 * Input sizes.  GraphSAGE runs flickr at a quarter of its nodes so a
 * run holds several epochs of both frameworks; per-batch work (batch
 * 512, fanouts 25/10, hidden 256) is the paper's.  GraphSAINT batches
 * are 3000-root walks whatever the graph size, so half of flickr keeps
 * the per-batch shape and shortens the epoch.
 */
double
datasetScale(Model m)
{
    return m == Model::Sage ? 0.25 : 0.5;
}

/** Set-ups per run; setup_s reports their median. */
constexpr int kSetups = 3;

const char *
fwName(Framework fw)
{
    return fw == Framework::Dglx ? "dglx" : "pygx";
}

uint64_t
bitsOf(double v)
{
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Accumulates one replayed epoch's loss the way EpochStats does. */
struct EpochLoss
{
    double sum = 0.0;
    int64_t total = 0;

    double value() const { return sum / std::max<int64_t>(total, 1); }
};

/** A batch adjacency and its input rows, kept for the SpMM probe. */
struct SpmmCase
{
    graph::CsrGraph adj;
    core::Tensor x;
};

/** A batch edge list and its input rows, kept for the message probe. */
struct MsgCase
{
    std::vector<NodeId> src;
    std::vector<NodeId> dst;
    NodeId outRows = 0;
    core::Tensor x;
};

/** Batches of each kind kept for the kernel probes. */
constexpr size_t kProbeBatches = 4;

/** Per-batch counts gathered during the replay. */
struct BatchCounts
{
    std::vector<double> edges;
    std::vector<double> inputNodes;
    std::vector<double> gatherMb;
    std::vector<double> msgMb;
};

/** Labels of @p nodes in order. */
std::vector<int32_t>
labelsOf(const std::vector<int32_t> &labels,
         const std::vector<NodeId> &nodes)
{
    std::vector<int32_t> out(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i)
        out[i] = labels[nodes[i]];
    return out;
}

/** Loss of one batch (inside the forward span): log-softmax + NLL
 *  over @p rows (all rows when empty). */
ag::Var
batchLoss(const ag::Var &out, std::vector<int32_t> labels,
          const std::vector<NodeId> &rows, EpochLoss &acc)
{
    const auto n = static_cast<int64_t>(rows.empty() ? labels.size()
                                                     : rows.size());
    ag::Var loss =
        ag::nllLoss(ag::logSoftmax(out), std::move(labels), rows);
    acc.sum += loss->value(0, 0) * static_cast<double>(n);
    acc.total += n;
    return loss;
}

void
backwardAndStep(SpanRecorder &spans, const char *fw, core::Adam &opt,
                const ag::Var &loss)
{
    {
        SpanRecorder::Scope s(spans, std::string(fw) + ".backward");
        opt.zeroGrad();
        ag::backward(loss);
    }
    SpanRecorder::Scope s(spans, "optim.step");
    opt.step();
}

core::Tensor
gatherTraced(SpanRecorder &spans, const core::Tensor &features,
             const std::vector<NodeId> &nodes, BatchCounts &counts)
{
    SpanRecorder::Scope s(spans, "ops.gather");
    core::Tensor x = core::ops::gatherRows(features, nodes);
    counts.gatherMb.push_back(static_cast<double>(x.bytes()) / 1e6);
    counts.inputNodes.push_back(static_cast<double>(nodes.size()));
    return x;
}

/** Replay of models::trainGraphSage's dglx CPU epoch. */
double
replaySageDglx(const graph::Dataset &ds, const models::TrainConfig &cfg,
               SpanRecorder &spans, BatchCounts &counts,
               std::vector<SpmmCase> &probes)
{
    SpanRecorder::Scope epoch(spans, "dglx.epoch");
    device::Session session;
    core::Rng rng(cfg.seed);
    dglx::LoadedData ld;
    {
        SpanRecorder::Scope s(spans, "dglx.load");
        ld = dglx::DataLoader::load(ds);
    }
    dglx::KernelCtx ctx{&session, device::DeviceType::CPU,
                        dglx::Costs{}};
    core::Rng wrng = rng.fork();
    dglx::SageConv l1(ds.info.numFeatures, cfg.hiddenDim, wrng);
    dglx::SageConv l2(cfg.hiddenDim, ds.info.numClasses, wrng);
    std::vector<ag::Var> params = l1.params();
    params.insert(params.end(), l2.params().begin(), l2.params().end());
    core::Adam opt(params, cfg.lr);
    core::Rng srng = rng.fork();
    dglx::NeighborSampler sampler(*ld.graph, cfg.fanouts, srng);
    auto batches = models::makeBatches(ld.trainIdx, cfg.batchSize, rng);
    dglx::NeighborLoader loader(sampler, rng, batches, 0,
                                cfg.prefetchDepth);
    EpochLoss acc;
    for (size_t b = 0; b < batches.size(); ++b) {
        SpanRecorder::Scope step(spans, "dglx.step",
                                 static_cast<int64_t>(b));
        sampling::NeighborSample smp;
        {
            SpanRecorder::Scope s(spans, "dglx.sample");
            smp = *loader.next();
        }
        double edges = 0.0;
        for (const auto &blk : smp.blocks)
            edges += static_cast<double>(blk.csc.numEdges());
        counts.edges.push_back(edges);
        core::Tensor x =
            gatherTraced(spans, ld.features, smp.inputNodes(), counts);
        if (probes.size() < kProbeBatches)
            probes.push_back({smp.blocks[0].csc, x});
        ag::Var loss;
        {
            SpanRecorder::Scope s(spans, "dglx.forward");
            ag::Var h = ag::relu(l1.forwardBlock(
                smp.blocks[0], ag::leaf(std::move(x), false), ctx));
            ag::Var out = l2.forwardBlock(smp.blocks[1], h, ctx);
            loss = batchLoss(out, labelsOf(ld.labels, batches[b]), {},
                             acc);
        }
        backwardAndStep(spans, "dglx", opt, loss);
    }
    return acc.value();
}

/** Replay of models::trainGraphSage's pygx CPU epoch. */
double
replaySagePygx(const graph::Dataset &ds, const models::TrainConfig &cfg,
               SpanRecorder &spans, BatchCounts &counts,
               std::vector<MsgCase> &probes)
{
    SpanRecorder::Scope epoch(spans, "pygx.epoch");
    device::Session session;
    core::Rng rng(cfg.seed);
    pygx::LoadedData ld;
    {
        SpanRecorder::Scope s(spans, "pygx.load");
        ld = pygx::DataLoader::load(ds);
    }
    pygx::KernelCtx ctx{&session, device::DeviceType::CPU,
                        pygx::Costs{}, 1.0 / ds.scale};
    core::Rng wrng = rng.fork();
    pygx::SageConv l1(ds.info.numFeatures, cfg.hiddenDim, wrng);
    pygx::SageConv l2(cfg.hiddenDim, ds.info.numClasses, wrng);
    std::vector<ag::Var> params = l1.params();
    params.insert(params.end(), l2.params().begin(), l2.params().end());
    core::Adam opt(params, cfg.lr);
    pygx::NeighborSampler sampler(*ld.data, cfg.fanouts, rng.fork(),
                                  &session);
    auto batches = models::makeBatches(ld.trainIdx, cfg.batchSize, rng);
    pygx::NeighborLoader loader(sampler, rng, batches, 0,
                                cfg.prefetchDepth, &session);
    EpochLoss acc;
    const auto feat = static_cast<double>(ds.info.numFeatures);
    for (size_t b = 0; b < batches.size(); ++b) {
        SpanRecorder::Scope step(spans, "pygx.step",
                                 static_cast<int64_t>(b));
        pygx::NeighborBatch batch;
        {
            SpanRecorder::Scope s(spans, "pygx.sample");
            batch = *loader.next();
        }
        double edges = 0.0;
        for (const auto &layer : batch.layers)
            edges += static_cast<double>(layer.eSrc.size());
        counts.edges.push_back(edges);
        const auto &l0 = batch.layers[0];
        counts.msgMb.push_back(static_cast<double>(l0.eSrc.size()) *
                               feat * 4.0 / 1e6);
        core::Tensor x =
            gatherTraced(spans, ld.features, batch.inputNodes(), counts);
        if (probes.size() < kProbeBatches)
            probes.push_back({l0.eSrc, l0.eDst,
                              static_cast<NodeId>(l0.dstNodes.size()),
                              x});
        ag::Var loss;
        {
            SpanRecorder::Scope s(spans, "pygx.forward");
            ag::Var h = ag::relu(l1.forwardLayer(
                batch.layers[0], ag::leaf(std::move(x), false), ctx));
            ag::Var out = l2.forwardLayer(batch.layers[1], h, ctx);
            loss = batchLoss(out, labelsOf(ld.labels, batches[b]), {},
                             acc);
        }
        backwardAndStep(spans, "pygx", opt, loss);
    }
    return acc.value();
}

/** The root count models::trainGraphSaint clamps to. */
int32_t
saintRoots(const models::TrainConfig &cfg, NodeId num_nodes)
{
    return std::min<int32_t>(cfg.saintRoots,
                             std::max<NodeId>(1, num_nodes / 4));
}

/** Replay of models::trainGraphSaint's dglx CPU epoch. */
double
replaySaintDglx(const graph::Dataset &ds,
                const models::TrainConfig &cfg, SpanRecorder &spans,
                BatchCounts &counts, std::vector<SpmmCase> &probes)
{
    SpanRecorder::Scope epoch(spans, "dglx.epoch");
    device::Session session;
    core::Rng rng(cfg.seed);
    dglx::LoadedData ld;
    {
        SpanRecorder::Scope s(spans, "dglx.load");
        ld = dglx::DataLoader::load(ds);
    }
    dglx::KernelCtx ctx{&session, device::DeviceType::CPU,
                        dglx::Costs{}};
    core::Rng wrng = rng.fork();
    dglx::GcnConv l1(ds.info.numFeatures, cfg.hiddenDim, wrng);
    dglx::GcnConv l2(cfg.hiddenDim, ds.info.numClasses, wrng);
    std::vector<ag::Var> params = l1.params();
    params.insert(params.end(), l2.params().begin(), l2.params().end());
    core::Adam opt(params, cfg.lr);
    const int32_t roots = saintRoots(cfg, ds.numNodes());
    dglx::SaintRwSampler sampler(*ld.graph, roots, cfg.saintWalkLength,
                                 rng.fork());
    const int nb = models::saintBatchesPerEpoch(ds.numNodes(), roots,
                                                cfg.saintWalkLength);
    const auto mask = models::trainMask(ds.numNodes(), ld.trainIdx);
    auto loader = dglx::makeSaintRwLoader(sampler, rng, nb, 0,
                                          cfg.prefetchDepth);
    EpochLoss acc;
    for (int b = 0; b < nb; ++b) {
        SpanRecorder::Scope step(spans, "dglx.step", b);
        sampling::InducedSample smp;
        {
            SpanRecorder::Scope s(spans, "dglx.sample");
            smp = *loader.next();
        }
        counts.edges.push_back(static_cast<double>(smp.adj.numEdges()));
        core::Tensor x = gatherTraced(spans, ld.features, smp.nodes,
                                      counts);
        const auto sup =
            models::localSupervision(smp.nodes, ld.labels, mask);
        if (sup.lossRows.empty())
            continue;
        if (probes.size() < kProbeBatches)
            probes.push_back({smp.adj, x});
        // The tape reads the normalizations during backward.
        std::vector<float> norm;
        std::vector<float> self;
        ag::Var loss;
        {
            SpanRecorder::Scope s(spans, "dglx.forward");
            norm = dglx::computeGcnNorm(smp.adj);
            self = dglx::computeSelfScale(smp.adj);
            ag::Var h = ag::relu(
                l1.forwardInduced(smp.adj, norm, self,
                                  ag::leaf(std::move(x), false), ctx));
            ag::Var out = l2.forwardInduced(smp.adj, norm, self, h, ctx);
            loss = batchLoss(out, sup.labels, sup.lossRows, acc);
        }
        backwardAndStep(spans, "dglx", opt, loss);
    }
    return acc.value();
}

/** Replay of models::trainGraphSaint's pygx CPU epoch. */
double
replaySaintPygx(const graph::Dataset &ds,
                const models::TrainConfig &cfg, SpanRecorder &spans,
                BatchCounts &counts, std::vector<MsgCase> &probes)
{
    SpanRecorder::Scope epoch(spans, "pygx.epoch");
    device::Session session;
    core::Rng rng(cfg.seed);
    pygx::LoadedData ld;
    {
        SpanRecorder::Scope s(spans, "pygx.load");
        ld = pygx::DataLoader::load(ds);
    }
    pygx::KernelCtx ctx{&session, device::DeviceType::CPU,
                        pygx::Costs{}, 1.0 / ds.scale};
    core::Rng wrng = rng.fork();
    pygx::GcnConv l1(ds.info.numFeatures, cfg.hiddenDim, wrng);
    pygx::GcnConv l2(cfg.hiddenDim, ds.info.numClasses, wrng);
    std::vector<ag::Var> params = l1.params();
    params.insert(params.end(), l2.params().begin(), l2.params().end());
    core::Adam opt(params, cfg.lr);
    const int32_t roots = saintRoots(cfg, ds.numNodes());
    pygx::SaintRwSampler sampler(*ld.data, roots, cfg.saintWalkLength,
                                 rng.fork(), &session);
    const int nb = models::saintBatchesPerEpoch(ds.numNodes(), roots,
                                                cfg.saintWalkLength);
    const auto mask = models::trainMask(ds.numNodes(), ld.trainIdx);
    auto loader = pygx::makeSaintRwLoader(sampler, rng, nb, 0,
                                          cfg.prefetchDepth, &session);
    EpochLoss acc;
    const auto feat = static_cast<double>(ds.info.numFeatures);
    for (int b = 0; b < nb; ++b) {
        SpanRecorder::Scope step(spans, "pygx.step", b);
        pygx::EdgeBatch batch;
        {
            SpanRecorder::Scope s(spans, "pygx.sample");
            batch = *loader.next();
        }
        counts.edges.push_back(static_cast<double>(batch.numEdges()));
        counts.msgMb.push_back(static_cast<double>(batch.numEdges()) *
                               feat * 4.0 / 1e6);
        core::Tensor x = gatherTraced(spans, ld.features, batch.nodes,
                                      counts);
        const auto sup =
            models::localSupervision(batch.nodes, ld.labels, mask);
        if (sup.lossRows.empty())
            continue;
        if (probes.size() < kProbeBatches)
            probes.push_back({batch.src, batch.dst, batch.numNodes(), x});
        ag::Var loss;
        {
            SpanRecorder::Scope s(spans, "pygx.forward");
            ag::Var h = ag::relu(l1.forwardBatch(
                batch, ag::leaf(std::move(x), false), ctx));
            ag::Var out = l2.forwardBatch(batch, h, ctx);
            loss = batchLoss(out, sup.labels, sup.lossRows, acc);
        }
        backwardAndStep(spans, "pygx", opt, loss);
    }
    return acc.value();
}

/** Computed bytes per second of kernels::spmm over the kept batches. */
double
spmmGbps(const std::vector<SpmmCase> &cases)
{
    double bytes = 0.0;
    double secs = 0.0;
    for (const SpmmCase &c : cases) {
        for (int rep = 0; rep < 3; ++rep) {
            kernels::KernelStats st;
            const double t0 = wallNow();
            core::Tensor out = kernels::spmm(c.adj, c.x,
                                             kernels::ReduceOp::Sum,
                                             nullptr,
                                             kernels::KernelVariant::Auto,
                                             &st);
            secs += wallNow() - t0;
            bytes += st.cost.bytes;
        }
    }
    return secs > 0.0 ? bytes / secs / 1e9 : 0.0;
}

/** Computed bytes per second of the materialized message path:
 *  kernels::gatherRows per edge, then kernels::scatterSum. */
double
msgGbps(const std::vector<MsgCase> &cases)
{
    double bytes = 0.0;
    double secs = 0.0;
    for (const MsgCase &c : cases) {
        for (int rep = 0; rep < 3; ++rep) {
            kernels::KernelStats gs;
            kernels::KernelStats ss;
            const double t0 = wallNow();
            core::Tensor msg = kernels::gatherRows(
                c.x, c.src, kernels::KernelVariant::Auto, &gs);
            core::Tensor out = kernels::scatterSum(
                msg, c.dst, c.outRows, kernels::KernelVariant::Auto, &ss);
            secs += wallNow() - t0;
            bytes += gs.cost.bytes + ss.cost.bytes;
        }
    }
    return secs > 0.0 ? bytes / secs / 1e9 : 0.0;
}

/** GFLOP/s of one dense product, repeated for about 0.15 s. */
double
gemmGflops(const std::function<core::Tensor()> &op, double flops)
{
    int reps = 0;
    const double t0 = wallNow();
    double t = t0;
    while (reps < 3 || t - t0 < 0.15) {
        core::Tensor out = op();
        ++reps;
        t = wallNow();
    }
    return flops * reps / (t - t0) / 1e9;
}

void
runTraining(Model model, const Options &opt, Report &report,
            SpanRecorder &spans)
{
    const double scale = datasetScale(model);
    graph::Dataset ds;
    std::vector<double> setup;
    for (int i = 0; i < kSetups; ++i) {
        const double t0 = wallNow();
        ds = graph::loadDataset("flickr", scale, opt.seed);
        setup.push_back(wallNow() - t0);
    }
    std::printf("# dataset flickr x%g: %lld nodes, %lld edges, %zu "
                "train\n",
                scale, static_cast<long long>(ds.numNodes()),
                static_cast<long long>(ds.numEdges()),
                ds.trainIdx.size());

    models::TrainConfig cfg;
    cfg.mode = models::RunMode::CPU;
    cfg.epochs = 1;
    cfg.seed = opt.seed;
    auto train = [&](Framework fw) {
        cfg.framework = fw;
        return model == Model::Sage ? models::trainGraphSage(ds, cfg)
                                    : models::trainGraphSaint(ds, cfg);
    };

    // Every call of a framework must reproduce the first call's loss
    // bit for bit, with a finite loss and no OOM.
    double first_loss[2] = {0.0, 0.0};
    bool have_first[2] = {false, false};
    std::vector<double> wall[2];
    std::vector<double> modeled[2];
    auto call = [&](Framework fw, bool timed) {
        const int f = fw == Framework::Dglx ? 0 : 1;
        const double t0 = wallNow();
        models::TrainResult r = train(fw);
        const double secs = wallNow() - t0;
        bool ok = !r.oom && r.epochs.size() == 1 &&
                  std::isfinite(r.epochs[0].loss);
        if (ok && !have_first[f]) {
            first_loss[f] = r.epochs[0].loss;
            have_first[f] = true;
        } else if (ok) {
            ok = bitsOf(r.epochs[0].loss) == bitsOf(first_loss[f]);
        }
        if (!ok)
            report.fail(std::string(fwName(fw)) +
                        " epoch call: oom, non-finite loss or a loss "
                        "differing from the first call");
        report.count(1, ok ? 0 : 1);
        if (timed) {
            wall[f].push_back(secs);
            modeled[f].push_back(r.totalSeconds());
        }
        return secs;
    };

    // Warm-up pair: lazy set-up inside the library (thread pool,
    // first-touch of the feature matrix) is not charged to an epoch.
    call(Framework::Dglx, false);
    call(Framework::Pygx, false);

    std::vector<double> pair_s;
    const double start = wallNow();
    while (pair_s.size() < 3 || wallNow() - start < opt.seconds) {
        const double d = call(Framework::Dglx, true);
        const double p = call(Framework::Pygx, true);
        pair_s.push_back(d + p);
    }

    for (int f = 0; f < 2; ++f) {
        std::printf("# %s epoch calls (s):", f == 0 ? "dglx" : "pygx");
        for (double s : wall[f])
            std::printf(" %.3f", s);
        std::printf("\n");
    }
    const double pair_med = median(pair_s);
    const std::string n_note =
        "median of " + std::to_string(pair_s.size()) + " pairs";
    report.add("setup_s", median(setup), "s", Tag::Measured,
               "dataset generation, median of " +
                   std::to_string(kSetups));
    report.add("latency_ms", pair_med * 1e3, "ms", Tag::Measured,
               "one dglx + one pygx single-epoch call, " + n_note);
    report.add("throughput_per_s",
               2.0 * static_cast<double>(ds.trainIdx.size()) / pair_med,
               "1/s", Tag::Measured,
               "training nodes per second over the epoch pair");
    report.add("graph.load_s", median(setup), "s", Tag::Measured);
    for (Framework fw : {Framework::Dglx, Framework::Pygx}) {
        const int f = fw == Framework::Dglx ? 0 : 1;
        const std::string n = fwName(fw);
        report.add(n + ".epoch_s", median(wall[f]), "s", Tag::Measured,
                   "single-epoch call, " + n_note);
        report.add("modeled.epoch_s." + n, median(modeled[f]), "s",
                   Tag::Modeled, "TrainResult::totalSeconds");
    }
    if (!opt.trace)
        return;

    // Traced replay: one epoch per framework, spans around every
    // public call.  Kernel probes and GEMM rates run after the epochs.
    BatchCounts counts;
    std::vector<SpmmCase> spmm_cases;
    std::vector<MsgCase> msg_cases;
    cfg.framework = Framework::Dglx;
    const double dglx_loss =
        model == Model::Sage
            ? replaySageDglx(ds, cfg, spans, counts, spmm_cases)
            : replaySaintDglx(ds, cfg, spans, counts, spmm_cases);
    const double pygx_loss =
        model == Model::Sage
            ? replaySagePygx(ds, cfg, spans, counts, msg_cases)
            : replaySaintPygx(ds, cfg, spans, counts, msg_cases);
    const double replayed[2] = {dglx_loss, pygx_loss};
    for (int f = 0; f < 2; ++f) {
        const bool same = bitsOf(replayed[f]) == bitsOf(first_loss[f]);
        report.count(1, same ? 0 : 1);
        if (!same) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "%s traced replay loss %.17g differs from the "
                          "untraced epoch call's %.17g",
                          f == 0 ? "dglx" : "pygx", replayed[f],
                          first_loss[f]);
            report.fail(buf);
        }
    }

    auto ms_median = [&](const std::string &name) {
        return median(spans.durations(name)) * 1e3;
    };
    auto first_span = [&](const std::string &name) {
        return spans.durations(name).front();
    };
    for (const char *fw : {"dglx", "pygx"}) {
        const std::string n = fw;
        report.add(n + ".load_s", first_span(n + ".load"), "s",
                   Tag::Measured, "DataLoader::load");
        report.add(n + ".sample_ms", ms_median(n + ".sample"), "ms",
                   Tag::Measured, "per batch, median");
        report.add(n + ".fwd_ms", ms_median(n + ".forward"), "ms",
                   Tag::Measured, "conv layers + relu + loss, per batch");
        report.add(n + ".bwd_ms", ms_median(n + ".backward"), "ms",
                   Tag::Measured, "ag::backward, per batch");
    }
    report.add("optim.step_ms", ms_median("optim.step"), "ms",
               Tag::Measured, "Adam::step, per batch");
    report.add("ops.gather_ms", ms_median("ops.gather"), "ms",
               Tag::Measured, "feature gather, per batch");
    report.add("ops.gather_mb", median(counts.gatherMb), "MB",
               Tag::Count, "gathered feature bytes, per batch");
    report.add("sampling.edges", median(counts.edges), "count",
               Tag::Count, "sampled edges, per batch");
    report.add("sampling.input_nodes", median(counts.inputNodes),
               "count", Tag::Count, "input rows, per batch");
    report.add("pygx.msg_mb", median(counts.msgMb), "MB", Tag::Count,
               "materialized layer-1 messages, per batch");
    report.add("kernels.spmm_gbps", spmmGbps(spmm_cases), "GB/s",
               Tag::Measured, "computed bytes / wall, batch adjacency");
    report.add("kernels.msg_gbps", msgGbps(msg_cases), "GB/s",
               Tag::Measured, "gatherRows + scatterSum over edges");

    // Dense GEMM at the layer-1 shapes: n input rows x F features x H.
    const auto n_rows = static_cast<int64_t>(median(counts.inputNodes));
    const int64_t F = ds.info.numFeatures;
    const int64_t H = cfg.hiddenDim;
    core::Rng grng(opt.seed);
    const core::Tensor X = core::Tensor::randn(n_rows, F, grng);
    const core::Tensor W = core::Tensor::randn(F, H, grng);
    const core::Tensor G = core::Tensor::randn(n_rows, H, grng);
    const double flops = 2.0 * static_cast<double>(n_rows * F * H);
    report.add("ops.matmul_gflops",
               gemmGflops([&] { return core::ops::matmul(X, W); }, flops),
               "GFLOP/s", Tag::Measured, "X[n,F] * W[F,H]");
    report.add("ops.matmul_ta_gflops",
               gemmGflops([&] { return core::ops::matmulTa(X, G); },
                          flops),
               "GFLOP/s", Tag::Measured, "X^T * G (weight gradient)");
    report.add("ops.matmul_tb_gflops",
               gemmGflops([&] { return core::ops::matmulTb(G, W); },
                          flops),
               "GFLOP/s", Tag::Measured, "G * W^T (input gradient)");

    double step_total = 0.0;
    double child_total = 0.0;
    double traced_epochs = 0.0;
    for (const char *fw : {"dglx", "pygx"}) {
        const std::string n = fw;
        for (double d : spans.durations(n + ".step"))
            step_total += d;
        child_total += spans.childSeconds(n + ".step");
        traced_epochs += first_span(n + ".epoch");
    }
    const double untraced = median(wall[0]) + median(wall[1]);
    report.add("trace.residual_frac",
               residualFraction(step_total, child_total), "ratio",
               Tag::Measured, "1 - sum(child spans) / sum(step spans)");
    report.add("trace.overhead_frac", traced_epochs / untraced - 1.0,
               "ratio", Tag::Measured,
               "traced replay epochs vs untraced epoch calls");
}

} // namespace

void
runSage(const Options &opt, Report &report, SpanRecorder &spans)
{
    runTraining(Model::Sage, opt, report, spans);
}

void
runSaint(const Options &opt, Report &report, SpanRecorder &spans)
{
    runTraining(Model::Saint, opt, report, spans);
}

} // namespace e2e
