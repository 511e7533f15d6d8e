/**
 * @file
 * The `serve` workload: serve::Server at its defaults on ppi, driven
 * by the benchmark's own open-loop Poisson generator.  Latency runs
 * from each request's scheduled send time to the moment its response
 * reaches the setOnResponse callback, so a generator that falls behind
 * or a stalled server is charged to the requests that waited.  A new
 * weight version is published on a fixed period throughout.
 *
 * Phases, each on a fresh server: a warm-up, 500 QPS (batches mostly
 * flush on the deadline-slack timer), 4000 QPS (batches flush on
 * size), then the capacity ladder.  Request k of every phase asks for
 * the same node and version v is always the same weight set, so any
 * two answers with the same (request id, version) must carry
 * bit-identical logits.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_math.h"
#include "common.h"
#include "gnnbench/core/ops.h"
#include "gnnbench/core/parallel.h"
#include "gnnbench/dglx/dataloader.h"
#include "gnnbench/dglx/sampler.h"
#include "gnnbench/graph/datasets.h"
#include "gnnbench/serve/inference.h"
#include "gnnbench/serve/server.h"

namespace e2e {

namespace {

using namespace gnnbench;

constexpr double kLowQps = 500.0;
constexpr double kHighQps = 4000.0;
/** Requests per fixed-rate phase: enough for a reportable p99. */
constexpr int64_t kLowRequests = 1200;
constexpr int64_t kHighRequests = 12000;
constexpr int64_t kWarmupRequests = 1000;
constexpr double kWarmupQps = 2000.0;
/** Capacity ladder: 500 QPS x 1.025^i, so one rung is far finer than
 *  the bound on the capacity metric.  The search starts at the fixed
 *  high rate's rung and strides from there. */
constexpr double kLadderBase = 500.0;
constexpr double kLadderRatio = 1.025;
constexpr int kLadderTop = 196;    // ~63 k QPS
constexpr int kLadderStart = 84;   // ~4000 QPS
constexpr int kLadderStride = 16;  // x1.48 per probe while bracketing
constexpr double kRungSeconds = 0.3;
/** Staircase probes per run at the least, whatever --seconds says. */
constexpr size_t kMinStaircase = 6;
constexpr double kPublishPeriod = 0.25;
constexpr int kWeightBank = 8;
constexpr int kTenants = 4;
constexpr int64_t kHidden = 64;
constexpr int kSetups = 3;
constexpr uint64_t kNodeSalt = 0x6e6f6465;     // "node"
constexpr uint64_t kArrivalSalt = 0x61727276;  // "arrv"
constexpr uint64_t kReplaySalt = 0x72706c79;   // "rply"

/** Node asked for by request index @p k (the same in every phase). */
NodeId
requestNode(uint64_t seed, int64_t k, int64_t num_nodes)
{
    return static_cast<NodeId>(
        core::parallel::chunkSeed(seed, kNodeSalt,
                                  static_cast<uint64_t>(k)) %
        static_cast<uint64_t>(num_nodes));
}

/** Sleep until @p clock reads @p t.  The generator never spins: a
 *  spinning generator would take a core from the server it measures;
 *  the wake-up delay it pays instead is reported as lateness. */
void
waitUntil(const serve::Clock &clock, double t)
{
    const double d = t - clock.now();
    if (d > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

uint64_t
hashLogits(const std::vector<float> &logits)
{
    uint64_t h = 1469598103934665603ULL;
    for (float f : logits) {
        uint32_t b = 0;
        std::memcpy(&b, &f, sizeof b);
        h = (h ^ b) * 1099511628211ULL;
    }
    return h;
}

/** Checks every answer; remembers logits by (request id, version). */
class AnswerCheck
{
  public:
    AnswerCheck(uint64_t seed, int64_t num_nodes, int64_t classes)
        : seed_(seed), numNodes_(num_nodes), classes_(classes)
    {
    }

    /** True when @p r is a valid answer to request index id-1. */
    bool
    ok(const serve::Response &r, uint64_t versions_published)
    {
        if (r.id == 0 ||
            r.node != requestNode(seed_, static_cast<int64_t>(r.id) - 1,
                                  numNodes_) ||
            static_cast<int64_t>(r.logits.size()) != classes_ ||
            r.weightVersion == 0 ||
            r.weightVersion > versions_published)
            return false;
        size_t best = 0;
        for (size_t c = 0; c < r.logits.size(); ++c) {
            if (!std::isfinite(r.logits[c]))
                return false;
            if (r.logits[c] > r.logits[best])
                best = c;
        }
        if (r.predicted != static_cast<int32_t>(best))
            return false;
        // Only ids every phase sends are worth remembering; keeping
        // the rest would grow the harness with the ladder's rates.
        if (r.id > static_cast<uint64_t>(kHighRequests))
            return true;
        const uint64_t key = r.id * 1000003ULL + r.weightVersion;
        const uint64_t h = hashLogits(r.logits);
        auto [it, fresh] = seen_.emplace(key, h);
        if (!fresh)
            ++repeats_;
        return fresh || it->second == h;
    }

    int64_t repeats() const { return repeats_; }

  private:
    uint64_t seed_;
    int64_t numNodes_;
    int64_t classes_;
    std::unordered_map<uint64_t, uint64_t> seen_;
    int64_t repeats_ = 0;
};

/** Everything one phase observed, times relative to its start. */
struct PhaseRun
{
    double offeredQps = 0.0;
    std::vector<double> scheduled;
    std::vector<double> submitted;
    std::vector<double> done;  ///< -1 until answered
    std::vector<double> deliverLag;
    std::vector<serve::Response> responses;
    std::vector<double> publishSeconds;
    int64_t shed = 0;
    int64_t unanswered = 0;
    int64_t wrong = 0;
    size_t queuePeak = 0;

    int64_t sent() const { return static_cast<int64_t>(scheduled.size()); }

    std::vector<double>
    latencies() const
    {
        return latencyFromSchedule(scheduled, done);
    }

    RungOutcome
    outcome() const
    {
        RungOutcome o;
        o.offeredQps = offeredQps;
        o.sent = sent();
        o.shed = shed;
        o.unanswered = unanswered;
        o.p99Seconds = percentile(latencies(), 0.99);
        const double end = scheduled.empty() ? 0.0 : scheduled.back();
        o.backlogMid = backlogAt(end / 2, scheduled, done);
        o.backlogEnd = backlogAt(end, scheduled, done);
        return o;
    }
};

struct ServeEnv
{
    const dglx::LoadedData &data;
    serve::ServeConfig config;
    std::vector<serve::ModelWeights> bank;
    uint64_t seed;
    AnswerCheck &check;
};

/**
 * One open-loop phase on a fresh server: @p n Poisson arrivals at
 * @p qps drawn from the arrival stream @p stream.
 */
PhaseRun
runPhase(ServeEnv &env, double qps, int64_t n, uint64_t stream)
{
    PhaseRun run;
    run.offeredQps = qps;
    core::Rng arrivals(
        core::parallel::chunkSeed(env.seed, kArrivalSalt, stream));
    double t = 0.0;
    run.scheduled.resize(static_cast<size_t>(n));
    for (auto &s : run.scheduled) {
        t += -std::log(1.0 - arrivals.uniform()) / qps;
        s = t;
    }
    run.submitted.assign(static_cast<size_t>(n), -1.0);
    run.done.assign(static_cast<size_t>(n), -1.0);
    run.deliverLag.assign(static_cast<size_t>(n), -1.0);

    serve::RealClock clock;
    serve::Server server(env.data, env.config, clock);
    server.setOnResponse([&run, &clock](const serve::Response &r) {
        const double now = clock.now();
        const size_t i = static_cast<size_t>(r.id) - 1;
        if (r.id >= 1 && i < run.done.size()) {
            run.done[i] = now;
            run.deliverLag[i] = now - r.finish;
        }
    });
    uint64_t published = server.publish(env.bank[0]);
    const int64_t nodes = server.numNodes();
    const double t0 = clock.now() + 2e-3;
    double next_publish = kPublishPeriod;
    for (int64_t k = 0; k < n; ++k) {
        const double due = run.scheduled[static_cast<size_t>(k)];
        while (next_publish <= due) {
            waitUntil(clock, t0 + next_publish);
            const double p0 = clock.now();
            published = server.publish(
                env.bank[published % env.bank.size()]);
            run.publishSeconds.push_back(clock.now() - p0);
            next_publish += kPublishPeriod;
        }
        waitUntil(clock, t0 + due);
        run.submitted[static_cast<size_t>(k)] = clock.now() - t0;
        auto id = server.submit(static_cast<int32_t>(k % kTenants),
                                requestNode(env.seed, k, nodes));
        if (!id)
            ++run.shed;
        else if (*id != static_cast<uint64_t>(k) + 1)
            ++run.wrong;  // ids must follow submission order
    }
    server.drain();
    server.shutdown();
    run.queuePeak = server.queuePeakDepth();
    run.responses = server.takeResponses();
    for (auto &d : run.done)
        if (d >= 0.0)
            d -= t0;
    int64_t answered = 0;
    for (const serve::Response &r : run.responses) {
        ++answered;
        if (!env.check.ok(r, published))
            ++run.wrong;
    }
    run.unanswered = n - run.shed - answered;
    return run;
}

/** Values of @p v for indices where @p v is non-negative. */
std::vector<double>
answeredOnly(const std::vector<double> &v)
{
    std::vector<double> out;
    for (double x : v)
        if (x >= 0.0)
            out.push_back(x);
    return out;
}

/** Per request: spread of scheduled send times within its batch. */
std::vector<double>
batchFillSeconds(const PhaseRun &run)
{
    std::unordered_map<uint64_t, std::pair<double, double>> span;
    for (const serve::Response &r : run.responses) {
        const double s = run.scheduled[r.id - 1];
        auto [it, fresh] = span.emplace(r.batchId, std::pair{s, s});
        if (!fresh) {
            it->second.first = std::min(it->second.first, s);
            it->second.second = std::max(it->second.second, s);
        }
    }
    std::vector<double> out;
    for (const serve::Response &r : run.responses) {
        const auto &[lo, hi] = span[r.batchId];
        out.push_back(hi - lo);
    }
    return out;
}

/**
 * Percentile in ms.  Shed or unanswered requests sort last as missing
 * every limit; when they reach the percentile (so it is infinite), the
 * percentile of the answered requests is reported instead — the
 * missing ones are already counted in `failed`.
 */
double
msPercentile(const std::vector<double> &seconds, double q)
{
    const double p = percentile(seconds, q);
    if (!std::isinf(p))
        return p * 1e3;
    std::vector<double> answered;
    for (double s : seconds)
        if (std::isfinite(s))
            answered.push_back(s);
    return percentile(answered, q) * 1e3;
}

} // namespace

void
runServe(const Options &opt, Report &report, SpanRecorder &spans)
{
    // Set-up: dataset, framework load, server start and first publish.
    graph::Dataset ds;
    dglx::LoadedData data;
    std::vector<double> setup;
    std::vector<double> load_s;
    std::vector<double> fw_load_s;
    serve::ServeConfig config;
    config.seed = opt.seed;
    serve::ModelWeights first;
    for (int i = 0; i < kSetups; ++i) {
        const double t0 = wallNow();
        ds = graph::loadDataset("ppi", 1.0, opt.seed);
        const double t1 = wallNow();
        data = dglx::DataLoader::load(ds);
        const double t2 = wallNow();
        first = serve::makeSageWeights(ds.info.numFeatures, kHidden,
                                       ds.info.numClasses,
                                       opt.seed * 1000);
        serve::RealClock clock;
        serve::Server server(data, config, clock);
        server.publish(first);
        setup.push_back(wallNow() - t0);
        load_s.push_back(t1 - t0);
        fw_load_s.push_back(t2 - t1);
    }
    std::printf("# dataset ppi x1: %lld nodes, %lld edges\n",
                static_cast<long long>(ds.numNodes()),
                static_cast<long long>(ds.numEdges()));

    AnswerCheck check(opt.seed, ds.numNodes(), ds.info.numClasses);
    ServeEnv env{data, config, {}, opt.seed, check};
    env.bank.push_back(first);
    for (int v = 1; v < kWeightBank; ++v)
        env.bank.push_back(serve::makeSageWeights(
            ds.info.numFeatures, kHidden, ds.info.numClasses,
            opt.seed * 1000 + static_cast<uint64_t>(v)));

    int64_t attempted = 0;
    int64_t failed = 0;
    int64_t shed_total = 0;
    std::vector<double> publish_s;
    std::vector<double> late_s;
    uint64_t stream = 0;
    auto account = [&](const PhaseRun &run, bool fixed_rate) {
        attempted += run.sent();
        failed += run.wrong +
                  (fixed_rate ? run.shed + run.unanswered : 0);
        shed_total += run.shed;
        publish_s.insert(publish_s.end(), run.publishSeconds.begin(),
                         run.publishSeconds.end());
        if (run.wrong > 0)
            report.fail(std::to_string(run.wrong) +
                        " wrong answers at " +
                        std::to_string(run.offeredQps) + " QPS");
        // Shedding is a failed operation, not a wrong output: it is
        // counted, and the run's outputs stay correct.
        if (fixed_rate && run.shed + run.unanswered > 0)
            std::printf("# %lld requests shed or unanswered at %.0f QPS\n",
                        static_cast<long long>(run.shed + run.unanswered),
                        run.offeredQps);
    };

    account(runPhase(env, kWarmupQps, kWarmupRequests, stream++), true);
    const PhaseRun low = runPhase(env, kLowQps, kLowRequests, stream++);
    account(low, true);
    const PhaseRun high = runPhase(env, kHighQps, kHighRequests, stream++);
    account(high, true);
    // Memory is taken before the ladder: overloaded rungs hold as many
    // responses as their rate sends, which the search decides.
    report.add("peak_rss_mb", peakRssMiB(), "MiB", Tag::Measured,
               "peak resident set through the fixed-rate phases");
    for (const PhaseRun *run : {&low, &high})
        for (size_t k = 0; k < run->scheduled.size(); ++k)
            late_s.push_back(run->submitted[k] - run->scheduled[k]);

    // Capacity: a ladder search finds the boundary, then an up-down
    // staircase re-probes around it until the run's time is spent.
    const double start = wallNow();
    auto probe = [&](int rung) {
        const double qps = ladderRate(rung, kLadderBase, kLadderRatio);
        const auto n = std::max<int64_t>(
            1200, static_cast<int64_t>(qps * kRungSeconds));
        const PhaseRun run = runPhase(env, qps, n, stream++);
        account(run, false);
        const RungOutcome o = run.outcome();
        const bool pass = rungPasses(o, config.sloSeconds);
        std::printf("# rung %2d %8.0f QPS: p99 %8.2f ms, shed %lld, "
                    "backlog %lld -> %lld: %s\n",
                    rung, qps, o.p99Seconds * 1e3,
                    static_cast<long long>(o.shed),
                    static_cast<long long>(o.backlogMid),
                    static_cast<long long>(o.backlogEnd),
                    pass ? "pass" : "fail");
        return pass;
    };
    const int searched = searchCapacity(kLadderStart, kLadderTop,
                                        kLadderStride, probe);
    Staircase stairs(std::max(searched, 0), kLadderTop, kLadderStride);
    while (stairs.probed().size() < kMinStaircase ||
           wallNow() - start < opt.seconds)
        stairs.record(probe(stairs.rung()));
    const double cap_rung = stairs.estimate();
    const double capacity =
        cap_rung < 0 ? 0.0
                     : ladderRate(cap_rung, kLadderBase, kLadderRatio);
    if (capacity <= 0.0)
        report.fail("no ladder rung passed");
    report.count(attempted, failed);

    const auto low_lat = low.latencies();
    const auto high_lat = high.latencies();
    if (!percentileReportable(low.sent(), 0.99) ||
        !percentileReportable(high.sent(), 0.99))
        report.fail("too few requests for a p99");
    report.add("setup_s", median(setup), "s", Tag::Measured,
               "dataset + DataLoader::load + server start + first "
               "publish, median of " + std::to_string(kSetups));
    // The gated latency is the SLO percentile at the low fixed rate: it
    // is set by the batcher's size and deadline-slack flushes and the
    // response path, and it stays readable on a host whose hypervisor
    // steals CPU time, where the 4000 QPS figures (per-layer) swing
    // by orders of magnitude with the OpenMP stalls.
    report.add("latency_ms", msPercentile(low_lat, 0.99), "ms",
               Tag::Measured,
               "p99 at 500 QPS from scheduled send, n=" +
                   std::to_string(low.sent()));
    report.add("throughput_per_s", capacity, "1/s", Tag::Measured,
               "capacity: staircase rung after " +
                   std::to_string(stairs.probed().size()) + " probes");
    report.add("serve.capacity_qps", capacity, "req/s", Tag::Measured);
    report.add("serve.p50_ms.low", msPercentile(low_lat, 0.5), "ms",
               Tag::Measured, "500 QPS, n=" + std::to_string(low.sent()));
    report.add("serve.p99_ms.low", msPercentile(low_lat, 0.99), "ms",
               Tag::Measured, "500 QPS");
    report.add("serve.p50_ms.high", msPercentile(high_lat, 0.5), "ms",
               Tag::Measured, "4000 QPS");
    report.add("serve.p99_ms.high", msPercentile(high_lat, 0.99), "ms",
               Tag::Measured, "4000 QPS");
    report.add("graph.load_s", median(load_s), "s", Tag::Measured);
    report.add("dglx.load_s", median(fw_load_s), "s", Tag::Measured);
    double batch_sum = 0.0;
    for (const serve::Response &r : low.responses)
        batch_sum += r.batchSize;
    report.add("serve.batch_size",
               low.responses.empty()
                   ? 0.0
                   : batch_sum / static_cast<double>(low.responses.size()),
               "count", Tag::Count, "mean Response::batchSize at 500 QPS");
    report.add("serve.batch_fill_ms.p99",
               msPercentile(batchFillSeconds(low), 0.99), "ms",
               Tag::Measured,
               "per request: spread of send times in its batch, 500 QPS");
    report.add("serve.deliver_lag_ms.p99",
               msPercentile(answeredOnly(high.deliverLag), 0.99), "ms",
               Tag::Measured, "callback - Response::finish, 4000 QPS");
    report.add("serve.queue_peak", static_cast<double>(high.queuePeak),
               "count", Tag::Count, "Server::queuePeakDepth, 4000 QPS");
    report.add("serve.shed", static_cast<double>(shed_total), "count",
               Tag::Count, "Server::rejected, all phases incl. ladder");
    report.add("serve.publish_ms", median(publish_s) * 1e3, "ms",
               Tag::Measured,
               "Server::publish under load, median of " +
                   std::to_string(publish_s.size()));
    report.add("loadgen.late_ms.p99", msPercentile(late_s, 0.99), "ms",
               Tag::Measured, "submit - scheduled, fixed rates");
    std::printf("# answers compared across phases by (id, version): "
                "%lld\n",
                static_cast<long long>(check.repeats()));
    if (!opt.trace)
        return;

    // Traced replay of the low-rate requests on one thread: the same
    // sample -> gather -> infer a worker runs, first without spans,
    // then with them.
    dglx::NeighborSampler sampler(*data.graph, config.fanouts,
                                  core::Rng(opt.seed));
    auto replay = [&](bool traced) {
        std::vector<double> edges;
        std::vector<double> inputs;
        const double t0 = wallNow();
        for (const serve::Response &r : low.responses) {
            std::optional<SpanRecorder::Scope> req;
            if (traced)
                req.emplace(spans, "serve.request",
                            static_cast<int64_t>(r.id));
            sampler.reseed(core::Rng(core::parallel::chunkSeed(
                opt.seed, kReplaySalt, r.id)));
            sampling::NeighborSample smp;
            {
                std::optional<SpanRecorder::Scope> s;
                if (traced)
                    s.emplace(spans, "serve.sample");
                smp = sampler.sample({r.node});
            }
            core::Tensor x;
            {
                std::optional<SpanRecorder::Scope> s;
                if (traced)
                    s.emplace(spans, "serve.gather");
                x = core::ops::gatherRows(data.features,
                                          smp.inputNodes());
            }
            {
                std::optional<SpanRecorder::Scope> s;
                if (traced)
                    s.emplace(spans, "serve.infer");
                core::Tensor logits = serve::inferLogits(
                    smp, x, env.bank[(r.weightVersion - 1) %
                                     env.bank.size()]);
            }
            double e = 0.0;
            for (const auto &blk : smp.blocks)
                e += static_cast<double>(blk.csc.numEdges());
            edges.push_back(e);
            inputs.push_back(static_cast<double>(smp.inputNodes().size()));
        }
        if (traced) {
            report.add("sampling.edges", median(edges), "count",
                       Tag::Count, "per request");
            report.add("sampling.input_nodes", median(inputs), "count",
                       Tag::Count, "per request");
        }
        return wallNow() - t0;
    };
    // A warm-up pass (first touch of the sampled rows), then untraced
    // and traced passes alternated so drift hits both alike.
    replay(false);
    std::vector<double> plain_s;
    std::vector<double> traced_s;
    for (int pass = 0; pass < 3; ++pass) {
        plain_s.push_back(replay(false));
        traced_s.push_back(replay(true));
    }
    const double plain = median(plain_s);
    const double traced = median(traced_s);
    const double us_sample = median(spans.durations("serve.sample")) * 1e6;
    const double us_gather = median(spans.durations("serve.gather")) * 1e6;
    const double us_infer = median(spans.durations("serve.infer")) * 1e6;
    report.add("serve.sample_us", us_sample, "us", Tag::Measured,
               "NeighborSampler::sample({node}), median per request");
    report.add("serve.gather_us", us_gather, "us", Tag::Measured,
               "ops::gatherRows, median per request");
    report.add("serve.infer_us", us_infer, "us", Tag::Measured,
               "serve::inferLogits, median per request");
    report.add("serve.model_busy_frac",
               capacity * (us_sample + us_gather + us_infer) * 1e-6 /
                   config.workers,
               "ratio", Tag::Measured,
               "capacity x per-request compute / workers");
    double req_total = 0.0;
    for (double d : spans.durations("serve.request"))
        req_total += d;
    report.add("trace.residual_frac",
               residualFraction(req_total,
                                spans.childSeconds("serve.request")),
               "ratio", Tag::Measured,
               "1 - sum(child spans) / sum(request spans)");
    report.add("trace.overhead_frac", traced / plain - 1.0, "ratio",
               Tag::Measured, "traced vs untraced replay");
}

} // namespace e2e
