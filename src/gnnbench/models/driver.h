/**
 * @file
 * The one epoch driver behind trainGraphSage, trainClusterGcn and
 * trainGraphSaint: the paper's Figure 2 workflow — data loading, then
 * per batch sampling, data movement and training — written once over
 * a framework backend B (backend.h) and a model spec Spec<B>.
 *
 * A model spec supplies `check(cfg)`, which rejects configurations
 * the model does not support; `Conv`, its conv layer type; a
 * constructor `(ld, dataset, cfg, rng, session)` building its sampler;
 * `batchesPerEpoch` and `loader(cfg, rng, session)`, one epoch's
 * loader; `inputNodes(batch)`; and `supervision(batch, labels)`, the
 * batch's labels and loss rows, or nullopt when it has none.
 *
 * RNG draws happen in a fixed order: one fork for the weights, one
 * for the sampler, then whatever each epoch's loader draws.
 */

#ifndef GNNBENCH_MODELS_DRIVER_H
#define GNNBENCH_MODELS_DRIVER_H

#include "gnnbench/core/ops.h"
#include "gnnbench/core/optim.h"
#include "gnnbench/core/timer.h"
#include "gnnbench/models/backend.h"
#include "gnnbench/models/induced_step.h"

namespace gnnbench {
namespace models {

/**
 * Gather the feature rows of @p nodes and account their movement,
 * plus @p structure_bytes of sampled structure, under @p mode.
 * Fetching counts as sampling (as the paper defines that phase) and
 * PCIe copies as data movement.  Device-side gathers (pre-loaded,
 * GPU-resident or UVA) walk the memory hierarchy through @p region,
 * so preload and UVA costs emerge from tile placement.
 *
 * @param prev_train_seconds duration of the previous batch's training
 * step, which hides the copy when @p prefetch is set.
 */
inline core::Tensor
fetchFeatures(const core::Tensor &features,
              const std::vector<NodeId> &nodes, RunMode mode,
              bool preloaded, bool prefetch, double prev_train_seconds,
              device::Session &session, profiling::PhaseTracker &tracker,
              uint64_t structure_bytes,
              const device::FeatureRegion &region)
{
    using profiling::Phase;
    const bool copied = mode == RunMode::CPUGPU && !preloaded;
    const bool on_device = mode != RunMode::CPU && !copied;
    if (mode == RunMode::CPUGPU && preloaded) {
        auto s = tracker.track(Phase::DataMovement);
        session.transfer(structure_bytes);
    }
    core::Tensor x;
    {
        auto s = tracker.track(Phase::Sampling);
        core::Timer t;
        x = core::ops::gatherRows(features, nodes);
        if (on_device) {
            session.excludeWall(t.elapsed());
            session.gatherFromRegion(region, nodes,
                                     mode == RunMode::UVAGPU
                                         ? device::Placement::Host
                                         : device::Placement::Device);
        }
    }
    if (copied) {
        auto s = tracker.track(Phase::DataMovement);
        const uint64_t bytes =
            static_cast<uint64_t>(nodes.size()) * features.cols() * 4 +
            structure_bytes;
        if (prefetch)
            session.transferOverlapped(bytes, prev_train_seconds);
        else
            session.transfer(bytes);
    }
    return x;
}

/** Run @p fn inside a @p phase scope of @p tracker; return its result. */
template <typename Fn>
auto
inPhase(profiling::PhaseTracker &tracker, profiling::Phase phase, Fn &&fn)
{
    auto s = tracker.track(phase);
    return fn();
}

/** Train the model of @p Spec with framework backend @p B. */
template <typename B, template <typename> class Spec>
TrainResult
runEpochs(const graph::Dataset &dataset, const TrainConfig &cfg)
{
    namespace ag = core::ag;
    using profiling::Phase;
    Spec<B>::check(cfg);
    device::Session session;
    profiling::PhaseTracker tracker(session);
    core::Rng rng(cfg.seed);

    const auto ld = inPhase(tracker, Phase::DataLoading,
                            [&] { return B::load(dataset); });
    const auto ctx = B::ctx(session,
                            usesGpu(cfg.mode) ? device::DeviceType::GPU
                                              : device::DeviceType::CPU,
                            dataset);

    core::Rng wrng = rng.fork();
    typename Spec<B>::Conv layer1(dataset.info.numFeatures,
                                  cfg.hiddenDim, wrng);
    typename Spec<B>::Conv layer2(cfg.hiddenDim,
                                  dataset.info.numClasses, wrng);
    core::Adam opt(paramsOf(layer1, layer2), cfg.lr);

    // One-time data movement: initial model, plus graph + features
    // when pre-loading (mandatory for the GPU-resident sampler).
    // The feature matrix is registered with the memory hierarchy so
    // per-batch gathers walk the cache tiers; pre-loading streams its
    // tiles into the VRAM tier up front.
    const bool preloaded =
        cfg.preloadFeatures || cfg.mode == RunMode::GPU;
    device::FeatureRegion feat_region;
    if (usesGpu(cfg.mode)) {
        auto s = tracker.track(Phase::DataMovement);
        feat_region = session.registerRegion(ld.features.rows(),
                                             ld.features.cols() * 4);
        uint64_t bytes = layer1.paramBytes() + layer2.paramBytes();
        if (preloaded) {
            bytes += B::graph(ld).structureBytes();
            session.preloadRegion(feat_region);
        }
        session.transfer(bytes);
        const uint64_t resident =
            bytes + (preloaded ? ld.features.bytes() : 0);
        GNNBENCH_CHECK(session.reserveGpu(resident),
                       "graph + features exceed GPU memory; "
                       "pre-loading infeasible");
    }

    auto spec = inPhase(tracker, Phase::Sampling, [&] {
        return Spec<B>(ld, dataset, cfg, rng.fork(), session);
    });
    // Device-side samplers leave the sampled structure in device
    // memory; otherwise it moves with the features.
    const bool device_sampled =
        cfg.mode == RunMode::GPU || cfg.mode == RunMode::UVAGPU;

    std::vector<EpochStats> epochs;
    double prev_train_seconds = 0.0;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        EpochStats es;
        // Batch RNG streams depend only on the batch index, so
        // numWorkers scales prefetch overlap (0 = inline) without
        // changing results.
        auto loader = inPhase(tracker, Phase::Sampling, [&] {
            return spec.loader(cfg, rng, session);
        });
        for (int b = 0; b < spec.batchesPerEpoch; ++b) {
            auto batch = inPhase(tracker, Phase::Sampling, [&] {
                auto got = loader.next();
                GNNBENCH_CHECK(got.has_value(),
                               "prefetch loader exhausted early");
                return std::move(*got);
            });
            core::Tensor x = fetchFeatures(
                ld.features, Spec<B>::inputNodes(batch), cfg.mode,
                preloaded, cfg.prefetch, prev_train_seconds, session,
                tracker, device_sampled ? 0 : batch.structureBytes(),
                feat_region);
            auto sup = spec.supervision(batch, ld.labels);

            const auto t0 = session.snapshot();
            if (auto s = tracker.track(Phase::Training); sup) {
                // Operands (dglx's GCN normalization) must outlive
                // the backward pass, which reads them.
                const auto &operands = B::operands(batch);
                ag::Var h = ag::relu(B::layer(
                    layer1, operands, 0, ag::leaf(std::move(x), false),
                    ctx));
                ag::Var out = B::layer(layer2, operands, 1, h, ctx);
                ag::Var lp = ag::logSoftmax(out);
                // Empty lossRows supervise every row (ops::nllLoss).
                const auto rows = static_cast<int64_t>(
                    sup->lossRows.empty() ? sup->labels.size()
                                          : sup->lossRows.size());
                es.correct += core::ops::countCorrect(
                    out->value, sup->labels, sup->lossRows);
                es.total += rows;
                ag::Var loss = ag::nllLoss(lp, std::move(sup->labels),
                                           sup->lossRows);
                es.loss += loss->value(0, 0) * static_cast<double>(rows);
                opt.zeroGrad();
                ag::backward(loss);
                opt.step();
            }
            prev_train_seconds = device::Session::virtualSeconds(
                t0, session.snapshot());
        }
        chargeWorkerSampling(tracker, loader);
        es.loss /= std::max<int64_t>(es.total, 1);
        epochs.push_back(es);
    }

    TrainResult result = finalizeResult(B::kFramework, cfg.mode,
                                        tracker, power::PowerSpec{});
    result.epochs = std::move(epochs);
    return result;
}

/** Train the model of @p Spec in the framework @p cfg selects. */
template <template <typename> class Spec>
TrainResult
train(const graph::Dataset &dataset, const TrainConfig &cfg)
{
    if (cfg.framework == Framework::Dglx)
        return runEpochs<DglxBackend, Spec>(dataset, cfg);
    return runEpochs<PygxBackend, Spec>(dataset, cfg);
}

} // namespace models
} // namespace gnnbench

#endif // GNNBENCH_MODELS_DRIVER_H
