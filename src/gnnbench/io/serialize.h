/**
 * @file
 * Binary serialization of datasets and model parameters.
 *
 * Benchmark runs synthesize datasets deterministically, but
 * downstream users want to snapshot exact inputs and trained weights
 * (e.g. to compare frameworks on byte-identical data, or to resume
 * training).  The format is a simple tagged binary layout:
 * magic, format version, then length-prefixed sections — fully
 * validated on load (truncation, bad magic, and shape mismatches are
 * fatal with a clear message).
 */

#ifndef GNNBENCH_IO_SERIALIZE_H
#define GNNBENCH_IO_SERIALIZE_H

#include <iosfwd>
#include <string>
#include <vector>

#include "gnnbench/core/autograd.h"
#include "gnnbench/graph/csr.h"
#include "gnnbench/graph/datasets.h"

namespace gnnbench {
namespace io {

/** On-disk encodings for a CSR adjacency. */
enum class CsrStorageMode : uint32_t
{
    Raw = 0,          ///< indptr/indices as raw little-endian arrays
    /**
     * Zigzag-varint delta encoding: per row, the neighbor list is
     * stored as first-id-then-ascending-deltas (reordered graphs keep
     * neighbor ids close together, so most deltas fit one byte), and
     * indptr is stored as per-row degrees, also varint.  Lossless;
     * pays off after a locality pass (graph/reorder.h) shrinks the
     * index bandwidth.
     */
    DeltaVarint = 1,
};

/** Serialize a CSR adjacency to @p out in the given storage mode. */
void writeCsr(std::ostream &out, const graph::CsrGraph &g,
              CsrStorageMode mode = CsrStorageMode::Raw);

/** Deserialize a CSR written by writeCsr (mode is self-describing).
 *  @p in must be seekable: every length prefix is checked against
 *  the bytes left before anything is allocated.  Fatal on corruption
 *  or truncation. */
graph::CsrGraph readCsr(std::istream &in);

/** writeCsr to a file with a magic/version header. */
void saveCsr(const graph::CsrGraph &g, const std::string &path,
             CsrStorageMode mode = CsrStorageMode::Raw);

/** Load a file written by saveCsr. */
graph::CsrGraph loadCsr(const std::string &path);

/** Serialize one tensor (shape + raw float32 data). */
void writeTensor(std::ostream &out, const core::Tensor &t);

/** Deserialize one tensor from a seekable stream; fatal on
 *  truncation or a shape larger than the rest of the stream. */
core::Tensor readTensor(std::istream &in);

/** Save a dataset (graph, features, labels, splits) to @p path. */
void saveDataset(const graph::Dataset &dataset,
                 const std::string &path);

/** Load a dataset previously saved with saveDataset. */
graph::Dataset loadDatasetFile(const std::string &path);

/**
 * Save the values of a parameter list (e.g. the concatenated
 * params() of a model's layers) to @p path.
 */
void saveParams(const std::vector<core::ag::Var> &params,
                const std::string &path);

/**
 * Load parameter values saved with saveParams into @p params.
 * Count and shapes must match exactly (fatal otherwise).
 */
void loadParams(const std::vector<core::ag::Var> &params,
                const std::string &path);

} // namespace io
} // namespace gnnbench

#endif // GNNBENCH_IO_SERIALIZE_H
