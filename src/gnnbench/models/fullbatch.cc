#include "gnnbench/models/fullbatch.h"

#include "gnnbench/core/optim.h"
#include "gnnbench/models/backend.h"

namespace gnnbench {
namespace models {

namespace {

namespace ag = core::ag;

template <typename B>
FullBatchResult
runFullBatch(const graph::Dataset &dataset, RunMode mode,
             int measured_epochs, uint64_t seed)
{
    device::Session session;
    profiling::PhaseTracker tracker(session);
    core::Rng rng(seed);
    const auto ctx = B::ctx(session,
                            mode == RunMode::GPU ? device::DeviceType::GPU
                                                 : device::DeviceType::CPU,
                            dataset);

    // Everything below up to the measured loop is setup: loading,
    // model init, (for GPU) one-time movement, one warmup epoch.
    core::Rng wrng = rng.fork();
    const auto ld = B::load(dataset);
    typename B::SageConv layer1(dataset.info.numFeatures, 256, wrng);
    typename B::SageConv layer2(256, dataset.info.numClasses, wrng);
    core::Adam opt(paramsOf(layer1, layer2), 1e-3f);

    if (mode == RunMode::GPU)
        session.transfer(ld.features.bytes());

    auto run_epoch = [&]() {
        ag::Var x = ag::leaf(ld.features.clone(), false);
        ag::Var h = ag::relu(layer1.forward(B::graph(ld), x, ctx));
        ag::Var out = layer2.forward(B::graph(ld), h, ctx);
        ag::Var lp = ag::logSoftmax(out);
        ag::Var loss = ag::nllLoss(lp, ld.labels, ld.trainIdx);
        opt.zeroGrad();
        ag::backward(loss);
        opt.step();
    };

    // Warmup; also pays lazy format conversions (PyG's CSC).
    run_epoch();

    const auto t0 = session.snapshot();
    {
        auto s = tracker.track(profiling::Phase::Training);
        for (int e = 0; e < measured_epochs; ++e)
            run_epoch();
    }
    const auto slice =
        profiling::sliceBetween(t0, session.snapshot());

    FullBatchResult result;
    result.config = configName(B::kFramework, mode);
    result.secondsPerEpoch = slice.seconds() / measured_epochs;
    const power::PowerModel pm(power::PowerSpec{},
                               mode == RunMode::GPU);
    power::ActivitySlice per_epoch = slice;
    per_epoch.cpuBusySeconds /= measured_epochs;
    per_epoch.gpuBusySeconds /= measured_epochs;
    per_epoch.gpuUtilSeconds /= measured_epochs;
    per_epoch.xferSeconds /= measured_epochs;
    result.energyPerEpoch = pm.energyOf(per_epoch);
    return result;
}

} // namespace

FullBatchResult
trainFullBatchSage(const graph::Dataset &dataset, Framework framework,
                   RunMode mode, int measured_epochs, uint64_t seed)
{
    GNNBENCH_CHECK(mode == RunMode::CPU || mode == RunMode::GPU,
                   "full-batch training runs on CPU or GPU");
    GNNBENCH_CHECK(measured_epochs > 0, "need at least one epoch");
    if (framework == Framework::Dglx)
        return runFullBatch<DglxBackend>(dataset, mode, measured_epochs,
                                         seed);
    return runFullBatch<PygxBackend>(dataset, mode, measured_epochs,
                                     seed);
}

} // namespace models
} // namespace gnnbench
