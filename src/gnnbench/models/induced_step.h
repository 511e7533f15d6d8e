/**
 * @file
 * What the induced-subgraph models (ClusterGCN and GraphSAINT) share:
 * two GCN layers over each batch's sampled subgraph, NLL loss on the
 * batch's training nodes only.
 */

#ifndef GNNBENCH_MODELS_INDUCED_STEP_H
#define GNNBENCH_MODELS_INDUCED_STEP_H

#include <optional>

#include "gnnbench/models/pipeline.h"

namespace gnnbench {
namespace models {

/** Local labels + the local row indices carrying training loss. */
struct BatchSupervision
{
    std::vector<int32_t> labels;
    std::vector<NodeId> lossRows;
};

/** Build local supervision for a batch of global node ids. */
inline BatchSupervision
localSupervision(const std::vector<NodeId> &nodes,
                 const std::vector<int32_t> &labels,
                 const std::vector<bool> &train_mask)
{
    BatchSupervision sup;
    sup.labels.resize(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
        sup.labels[i] = labels[nodes[i]];
        if (train_mask[nodes[i]])
            sup.lossRows.push_back(static_cast<NodeId>(i));
    }
    return sup;
}

/** Dense train-membership mask from the dataset's train indices. */
inline std::vector<bool>
trainMask(NodeId num_nodes, const std::vector<NodeId> &train_idx)
{
    std::vector<bool> mask(num_nodes, false);
    for (NodeId v : train_idx)
        mask[v] = true;
    return mask;
}

/**
 * The part of the ClusterGCN and GraphSAINT model specs (driver.h)
 * the two share; each adds its sampler and batches per epoch.
 */
template <typename B>
struct InducedSpec
{
    using Conv = typename B::GcnConv;

    InducedSpec(const typename B::Loaded &ld, NodeId num_nodes)
        : mask(trainMask(num_nodes, ld.trainIdx))
    {
    }

    static const std::vector<NodeId> &
    inputNodes(const auto &batch)
    {
        return batch.nodes;
    }

    /** Supervision of the batch's training nodes; none sampled
     *  means the batch trains nothing. */
    std::optional<BatchSupervision>
    supervision(const auto &batch,
                const std::vector<int32_t> &labels) const
    {
        BatchSupervision sup = localSupervision(batch.nodes, labels, mask);
        if (sup.lossRows.empty())
            return std::nullopt;
        return sup;
    }

    std::vector<bool> mask;
};

} // namespace models
} // namespace gnnbench

#endif // GNNBENCH_MODELS_INDUCED_STEP_H
