#include "gnnbench/models/graphsaint.h"

#include "gnnbench/models/driver.h"

namespace gnnbench {
namespace models {

namespace {

/** GraphSAINT model spec (driver.h): random-walk subgraphs, one pass
 *  over all nodes per epoch. */
template <typename B>
struct Saint : InducedSpec<B>
{
    static void
    check(const TrainConfig &cfg)
    {
        GNNBENCH_CHECK(cfg.mode == RunMode::CPU ||
                           cfg.mode == RunMode::CPUGPU,
                       "GraphSAINT supports CPU and CPUGPU modes only");
    }

    Saint(const typename B::Loaded &ld, const graph::Dataset &dataset,
          const TrainConfig &cfg, core::Rng rng, device::Session &session)
        : InducedSpec<B>(ld, dataset.numNodes()),
          // The paper's root count, clamped to small scaled datasets.
          roots(std::min<int32_t>(
              cfg.saintRoots,
              std::max<NodeId>(1, dataset.numNodes() / 4))),
          batchesPerEpoch(saintBatchesPerEpoch(
              dataset.numNodes(), roots, cfg.saintWalkLength)),
          sampler(B::saintSampler(ld, roots, cfg.saintWalkLength, rng,
                                  session))
    {
    }

    auto
    loader(const TrainConfig &cfg, core::Rng &rng,
           device::Session &session)
    {
        return B::saintLoader(sampler, rng, batchesPerEpoch, cfg,
                              session);
    }

    int32_t roots;
    int batchesPerEpoch;
    typename B::SaintSampler sampler;
};

} // namespace

TrainResult
trainGraphSaint(const graph::Dataset &dataset, const TrainConfig &cfg)
{
    return train<Saint>(dataset, cfg);
}

} // namespace models
} // namespace gnnbench
