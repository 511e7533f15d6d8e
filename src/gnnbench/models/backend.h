/**
 * @file
 * The framework backends of the epoch driver (driver.h).  A backend
 * holds what the paper compares DGL and PyG by — the heavy dglx graph
 * object against the light pygx Data object, C++ against interpreted
 * samplers, fused against per-edge kernels — behind one interface:
 * loaded data, kernel context, conv layers, sampler and loader
 * factories, and the per-layer forward over its batch types.
 */

#ifndef GNNBENCH_MODELS_BACKEND_H
#define GNNBENCH_MODELS_BACKEND_H

#include <optional>

#include "gnnbench/dglx/dataloader.h"
#include "gnnbench/dglx/gpu_sampler.h"
#include "gnnbench/dglx/nn.h"
#include "gnnbench/models/pipeline.h"
#include "gnnbench/pygx/dataloader.h"
#include "gnnbench/pygx/nn.h"

namespace gnnbench {
namespace models {

/** One epoch's seed batches, in delivery order. */
using SeedBatches = std::vector<std::vector<NodeId>>;

/** The parameters of two layers in layer order (the Adam order). */
template <typename Conv>
std::vector<core::ag::Var>
paramsOf(const Conv &layer1, const Conv &layer2)
{
    std::vector<core::ag::Var> params = layer1.params();
    params.insert(params.end(), layer2.params().begin(),
                  layer2.params().end());
    return params;
}

/** dglx, including DGL's GPU-resident and UVA neighbor samplers. */
struct DglxBackend
{
    static constexpr Framework kFramework = Framework::Dglx;
    /** Has device-side samplers (the GPU and UVAGPU modes). */
    static constexpr bool kDeviceSampler = true;

    using Var = core::ag::Var;
    using Loaded = dglx::LoadedData;
    using Ctx = dglx::KernelCtx;
    using SageConv = dglx::SageConv;
    using GcnConv = dglx::GcnConv;
    using ClusterSampler = dglx::ClusterSampler;
    using SaintSampler = dglx::SaintRwSampler;

    static Loaded
    load(const graph::Dataset &ds)
    {
        return dglx::DataLoader::load(ds);
    }

    static const dglx::Graph &graph(const Loaded &ld) { return *ld.graph; }

    static Ctx
    ctx(device::Session &session, device::DeviceType dev,
        const graph::Dataset &)
    {
        return {&session, dev, dglx::Costs{}};
    }

    /** The CPU sampler, or in GPU/UVAGPU modes the device one. */
    struct NeighborSampler
    {
        std::optional<dglx::NeighborSampler> cpu;
        std::optional<dglx::GpuNeighborSampler> gpu;
    };

    /** CPU sampling goes through the prefetching loader; the
     *  device-side sampler samples each batch inline. */
    class NeighborLoader
    {
      public:
        NeighborLoader(NeighborSampler &sampler, SeedBatches seeds,
                       core::Rng &rng, const TrainConfig &cfg)
            : gpu_(sampler.gpu ? &*sampler.gpu : nullptr)
        {
            if (gpu_)
                seeds_ = std::move(seeds);
            else
                cpu_.emplace(*sampler.cpu, rng, std::move(seeds),
                             cfg.numWorkers, cfg.prefetchDepth);
        }

        std::optional<sampling::NeighborSample>
        next()
        {
            if (cpu_)
                return cpu_->next();
            if (next_ == seeds_.size())
                return std::nullopt;
            return gpu_->sample(seeds_[next_++]);
        }

        const std::vector<double> &
        workerBusySeconds()
        {
            static const std::vector<double> kNone;
            return cpu_ ? cpu_->workerBusySeconds() : kNone;
        }

      private:
        std::optional<dglx::NeighborLoader> cpu_;
        dglx::GpuNeighborSampler *gpu_;
        SeedBatches seeds_;
        size_t next_ = 0;
    };

    static NeighborSampler
    neighborSampler(const Loaded &ld, const TrainConfig &cfg,
                    core::Rng rng, device::Session &session)
    {
        using Mode = dglx::GpuNeighborSampler::Mode;
        NeighborSampler s;
        if (cfg.mode == RunMode::GPU || cfg.mode == RunMode::UVAGPU)
            s.gpu.emplace(*ld.graph, cfg.fanouts, rng,
                          cfg.mode == RunMode::GPU ? Mode::GpuResident
                                                   : Mode::Uva,
                          session);
        else
            s.cpu.emplace(*ld.graph, cfg.fanouts, rng);
        return s;
    }

    static NeighborLoader
    neighborLoader(NeighborSampler &sampler, SeedBatches seeds,
                   core::Rng &rng, const TrainConfig &cfg,
                   device::Session &)
    {
        return NeighborLoader(sampler, std::move(seeds), rng, cfg);
    }

    static ClusterSampler
    clusterSampler(const Loaded &ld, int32_t num_parts, core::Rng rng,
                   device::Session &)
    {
        return {*ld.graph, num_parts, rng};
    }

    static dglx::InducedLoader
    clusterLoader(const ClusterSampler &sampler, core::Rng &rng,
                  int32_t per_batch, int num_batches,
                  const TrainConfig &cfg, device::Session &)
    {
        return dglx::makeClusterLoader(sampler, rng, per_batch,
                                       num_batches, cfg.numWorkers,
                                       cfg.prefetchDepth);
    }

    static SaintSampler
    saintSampler(const Loaded &ld, int32_t roots, int32_t walk_length,
                 core::Rng rng, device::Session &)
    {
        return {*ld.graph, roots, walk_length, rng};
    }

    static dglx::InducedLoader
    saintLoader(const SaintSampler &sampler, core::Rng &rng,
                int num_batches, const TrainConfig &cfg,
                device::Session &)
    {
        return dglx::makeSaintRwLoader(sampler, rng, num_batches,
                                       cfg.numWorkers, cfg.prefetchDepth);
    }

    /** An induced subgraph with its GCN normalization, recomputed per
     *  batch like both frameworks do on sampled subgraphs. */
    struct NormalizedSubgraph
    {
        const graph::CsrGraph &adj;
        std::vector<float> norm;
        std::vector<float> self;
    };

    /** What every layer of a batch's forward runs over. */
    static NormalizedSubgraph
    operands(const sampling::InducedSample &smp)
    {
        return {smp.adj, dglx::computeGcnNorm(smp.adj),
                dglx::computeSelfScale(smp.adj)};
    }

    static const sampling::NeighborSample &
    operands(const sampling::NeighborSample &smp)
    {
        return smp;
    }

    /** Layer @p depth of a batch's forward. */
    static Var
    layer(SageConv &conv, const sampling::NeighborSample &smp,
          int depth, const Var &x, const Ctx &ctx)
    {
        return conv.forwardBlock(smp.blocks[depth], x, ctx);
    }

    static Var
    layer(GcnConv &conv, const NormalizedSubgraph &sub, int,
          const Var &x, const Ctx &ctx)
    {
        return conv.forwardInduced(sub.adj, sub.norm, sub.self, x, ctx);
    }
};

/** pygx; it has no device-side sampler. */
struct PygxBackend
{
    static constexpr Framework kFramework = Framework::Pygx;
    static constexpr bool kDeviceSampler = false;

    using Var = core::ag::Var;
    using Loaded = pygx::LoadedData;
    using Ctx = pygx::KernelCtx;
    using SageConv = pygx::SageConv;
    using GcnConv = pygx::GcnConv;
    using NeighborSampler = pygx::NeighborSampler;
    using ClusterSampler = pygx::ClusterSampler;
    using SaintSampler = pygx::SaintRwSampler;

    static Loaded
    load(const graph::Dataset &ds)
    {
        return pygx::DataLoader::load(ds);
    }

    static const pygx::Data &graph(const Loaded &ld) { return *ld.data; }

    static Ctx
    ctx(device::Session &session, device::DeviceType dev,
        const graph::Dataset &ds)
    {
        return {&session, dev, pygx::Costs{}, 1.0 / ds.scale};
    }

    /** Includes the CSR->CSC conversion PyG's loader performs. */
    static NeighborSampler
    neighborSampler(const Loaded &ld, const TrainConfig &cfg,
                    core::Rng rng, device::Session &session)
    {
        return {*ld.data, cfg.fanouts, rng, &session};
    }

    /** next() charges the workers' modeled interpreter time. */
    static pygx::NeighborLoader
    neighborLoader(NeighborSampler &sampler, SeedBatches seeds,
                   core::Rng &rng, const TrainConfig &cfg,
                   device::Session &session)
    {
        return {sampler, rng, std::move(seeds), cfg.numWorkers,
                cfg.prefetchDepth, &session};
    }

    static ClusterSampler
    clusterSampler(const Loaded &ld, int32_t num_parts, core::Rng rng,
                   device::Session &session)
    {
        return {*ld.data, num_parts, rng, &session};
    }

    static pygx::EdgeBatchLoader
    clusterLoader(const ClusterSampler &sampler, core::Rng &rng,
                  int32_t per_batch, int num_batches,
                  const TrainConfig &cfg, device::Session &session)
    {
        return pygx::makeClusterLoader(sampler, rng, per_batch,
                                       num_batches, cfg.numWorkers,
                                       cfg.prefetchDepth, &session);
    }

    static SaintSampler
    saintSampler(const Loaded &ld, int32_t roots, int32_t walk_length,
                 core::Rng rng, device::Session &session)
    {
        return {*ld.data, roots, walk_length, rng, &session};
    }

    static pygx::EdgeBatchLoader
    saintLoader(const SaintSampler &sampler, core::Rng &rng,
                int num_batches, const TrainConfig &cfg,
                device::Session &session)
    {
        return pygx::makeSaintRwLoader(sampler, rng, num_batches,
                                       cfg.numWorkers, cfg.prefetchDepth,
                                       &session);
    }

    template <typename Batch>
    static const Batch &
    operands(const Batch &batch)
    {
        return batch;
    }

    static Var
    layer(SageConv &conv, const pygx::NeighborBatch &batch, int depth,
          const Var &x, const Ctx &ctx)
    {
        return conv.forwardLayer(batch.layers[depth], x, ctx);
    }

    static Var
    layer(GcnConv &conv, const pygx::EdgeBatch &batch, int,
          const Var &x, const Ctx &ctx)
    {
        return conv.forwardBatch(batch, x, ctx);
    }
};

} // namespace models
} // namespace gnnbench

#endif // GNNBENCH_MODELS_BACKEND_H
