#include "gnnbench/models/graphsage.h"

#include "gnnbench/models/driver.h"

namespace gnnbench {
namespace models {

namespace {

/** GraphSAGE model spec (driver.h): two SAGE layers over sampled
 *  blocks, loss on every seed of the batch. */
template <typename B>
struct Sage
{
    using Conv = typename B::SageConv;

    static void
    check(const TrainConfig &cfg)
    {
        GNNBENCH_CHECK(cfg.fanouts.size() == 2,
                       "GraphSAGE model uses two layers / two fanouts");
        GNNBENCH_CHECK(B::kDeviceSampler || cfg.mode == RunMode::CPU ||
                           cfg.mode == RunMode::CPUGPU,
                       "PyG has no GPU/UVA sampler (paper Section 4.3)");
        GNNBENCH_CHECK(cfg.batchSize > 0, "batch size must be positive");
    }

    Sage(const typename B::Loaded &ld, const graph::Dataset &,
         const TrainConfig &cfg, core::Rng rng, device::Session &session)
        : trainIdx(ld.trainIdx),
          batchesPerEpoch(static_cast<int>(
              (trainIdx.size() + cfg.batchSize - 1) / cfg.batchSize)),
          sampler(B::neighborSampler(ld, cfg, rng, session))
    {
    }

    /** Shuffles the seeds into batches, then builds the loader. */
    auto
    loader(const TrainConfig &cfg, core::Rng &rng,
           device::Session &session)
    {
        SeedBatches seeds = makeBatches(trainIdx, cfg.batchSize, rng);
        return B::neighborLoader(sampler, std::move(seeds), rng, cfg,
                                 session);
    }

    static const std::vector<NodeId> &
    inputNodes(const auto &batch)
    {
        return batch.inputNodes();
    }

    static std::optional<BatchSupervision>
    supervision(const auto &batch, const std::vector<int32_t> &labels)
    {
        BatchSupervision sup;
        sup.labels.reserve(batch.seeds.size());
        for (NodeId v : batch.seeds)
            sup.labels.push_back(labels[v]);
        return sup;
    }

    const std::vector<NodeId> &trainIdx;
    int batchesPerEpoch;
    typename B::NeighborSampler sampler;
};

} // namespace

TrainResult
trainGraphSage(const graph::Dataset &dataset, const TrainConfig &cfg)
{
    return train<Sage>(dataset, cfg);
}

} // namespace models
} // namespace gnnbench
