#include "gnnbench/models/clustergcn.h"

#include "gnnbench/models/driver.h"

namespace gnnbench {
namespace models {

namespace {

/** ClusterGCN model spec (driver.h): batches of random clusters. */
template <typename B>
struct Cluster : InducedSpec<B>
{
    static void
    check(const TrainConfig &cfg)
    {
        GNNBENCH_CHECK(cfg.mode == RunMode::CPU ||
                           cfg.mode == RunMode::CPUGPU,
                       "ClusterGCN supports CPU and CPUGPU modes only");
    }

    /** Includes the one-time METIS-style partitioning. */
    Cluster(const typename B::Loaded &ld, const graph::Dataset &dataset,
            const TrainConfig &cfg, core::Rng rng,
            device::Session &session)
        : InducedSpec<B>(ld, dataset.numNodes()),
          numParts(std::min<int32_t>(cfg.numParts,
                                     dataset.numNodes() / 2)),
          perBatch(std::min(cfg.clustersPerBatch, numParts)),
          batchesPerEpoch(std::max(1, numParts / perBatch)),
          sampler(B::clusterSampler(ld, numParts, rng, session))
    {
    }

    auto
    loader(const TrainConfig &cfg, core::Rng &rng,
           device::Session &session)
    {
        return B::clusterLoader(sampler, rng, perBatch, batchesPerEpoch,
                                cfg, session);
    }

    int32_t numParts;
    int32_t perBatch;
    int batchesPerEpoch;
    typename B::ClusterSampler sampler;
};

} // namespace

TrainResult
trainClusterGcn(const graph::Dataset &dataset, const TrainConfig &cfg)
{
    return train<Cluster>(dataset, cfg);
}

} // namespace models
} // namespace gnnbench
