#include "gnnbench/io/serialize.h"

#include <cstring>
#include <fstream>

namespace gnnbench {
namespace io {

namespace {

constexpr uint64_t kDatasetMagic = 0x474e4e42444154ULL;  // "GNNBDAT"
constexpr uint64_t kParamsMagic = 0x474e4e42505253ULL;   // "GNNBPRS"
constexpr uint64_t kCsrMagic = 0x474e4e42435352ULL;      // "GNNBCSR"
constexpr uint32_t kFormatVersion = 1;

template <typename T>
void
writePod(std::ostream &out, const T &value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
T
readPod(std::istream &in)
{
    T value{};
    in.read(reinterpret_cast<char *>(&value), sizeof(T));
    GNNBENCH_CHECK(in.good(), "serialized file truncated");
    return value;
}

template <typename T>
void
writeVec(std::ostream &out, const std::vector<T> &v)
{
    writePod<uint64_t>(out, v.size());
    if (!v.empty())
        out.write(reinterpret_cast<const char *>(v.data()),
                  static_cast<std::streamsize>(v.size() * sizeof(T)));
}

/** Bytes between the read position and the end of @p in. */
uint64_t
bytesLeft(std::istream &in)
{
    const std::streampos pos = in.tellg();
    GNNBENCH_CHECK(pos >= 0, "serialized stream is not seekable");
    in.seekg(0, std::ios::end);
    const std::streampos end = in.tellg();
    in.seekg(pos);
    GNNBENCH_CHECK(in.good() && end >= pos,
                   "serialized stream is not seekable");
    return static_cast<uint64_t>(end - pos);
}

/**
 * Fail cleanly unless @p count items of at least @p item_bytes each
 * fit in the rest of @p in — a length prefix read from a file must not
 * size an allocation before the data behind it is known to exist.
 */
void
checkLength(std::istream &in, uint64_t count, uint64_t item_bytes,
            const char *what)
{
    const uint64_t left = bytesLeft(in);
    GNNBENCH_CHECK(count <= left / item_bytes,
                   "serialized file truncated: ", what, " length ", count,
                   " exceeds the ", left, " bytes left");
}

template <typename T>
std::vector<T>
readVec(std::istream &in)
{
    const auto n = readPod<uint64_t>(in);
    checkLength(in, n, sizeof(T), "array");
    std::vector<T> v(n);
    if (n > 0) {
        in.read(reinterpret_cast<char *>(v.data()),
                static_cast<std::streamsize>(n * sizeof(T)));
        GNNBENCH_CHECK(in.good(), "serialized file truncated");
    }
    return v;
}

void
writeString(std::ostream &out, const std::string &s)
{
    writePod<uint64_t>(out, s.size());
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string
readString(std::istream &in)
{
    const auto n = readPod<uint64_t>(in);
    checkLength(in, n, 1, "string");
    std::string s(n, '\0');
    if (n > 0) {
        in.read(s.data(), static_cast<std::streamsize>(n));
        GNNBENCH_CHECK(in.good(), "serialized file truncated");
    }
    return s;
}

// Zigzag maps signed deltas onto small unsigned codes (0, -1, 1, -2,
// ... -> 0, 1, 2, 3, ...) so LEB128 varints stay short either way.
uint64_t
zigzagEncode(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

int64_t
zigzagDecode(uint64_t u)
{
    return static_cast<int64_t>(u >> 1) ^
           -static_cast<int64_t>(u & 1);
}

void
writeVarint(std::ostream &out, uint64_t u)
{
    while (u >= 0x80) {
        const char byte = static_cast<char>((u & 0x7f) | 0x80);
        out.put(byte);
        u >>= 7;
    }
    out.put(static_cast<char>(u));
}

uint64_t
readVarint(std::istream &in)
{
    uint64_t u = 0;
    int shift = 0;
    while (true) {
        const int c = in.get();
        GNNBENCH_CHECK(c != std::char_traits<char>::eof(),
                       "serialized file truncated");
        GNNBENCH_CHECK(shift < 64, "varint overlong");
        u |= static_cast<uint64_t>(c & 0x7f) << shift;
        if (!(c & 0x80))
            return u;
        shift += 7;
    }
}

} // namespace

void
writeTensor(std::ostream &out, const core::Tensor &t)
{
    writePod<int64_t>(out, t.rows());
    writePod<int64_t>(out, t.cols());
    out.write(reinterpret_cast<const char *>(t.data()),
              static_cast<std::streamsize>(t.bytes()));
}

core::Tensor
readTensor(std::istream &in)
{
    const auto rows = readPod<int64_t>(in);
    const auto cols = readPod<int64_t>(in);
    GNNBENCH_CHECK(rows >= 0 && cols >= 0,
                   "serialized tensor has invalid shape");
    // rows * cols floats must fit in what is left; dividing first
    // keeps the product from overflowing.
    if (cols > 0)
        checkLength(in, static_cast<uint64_t>(rows),
                    static_cast<uint64_t>(cols) * sizeof(float),
                    "tensor");
    core::Tensor t = core::Tensor::empty(rows, cols);
    if (t.numel() > 0) {
        in.read(reinterpret_cast<char *>(t.data()),
                static_cast<std::streamsize>(t.bytes()));
        GNNBENCH_CHECK(in.good(), "serialized tensor truncated");
    }
    return t;
}

void
saveDataset(const graph::Dataset &dataset, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    GNNBENCH_CHECK(out.is_open(), "cannot open '", path,
                   "' for writing");
    writePod(out, kDatasetMagic);
    writePod(out, kFormatVersion);
    writeString(out, dataset.info.name);
    writePod(out, dataset.scale);
    writePod<int32_t>(out, dataset.info.numClasses);
    writePod<NodeId>(out, dataset.graph.numNodes);
    writeVec(out, dataset.graph.src);
    writeVec(out, dataset.graph.dst);
    writeTensor(out, dataset.features);
    writeVec(out, dataset.labels);
    writeVec(out, dataset.trainIdx);
    writeVec(out, dataset.valIdx);
    writeVec(out, dataset.testIdx);
    GNNBENCH_CHECK(out.good(), "write to '", path, "' failed");
}

graph::Dataset
loadDatasetFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    GNNBENCH_CHECK(in.is_open(), "cannot open '", path,
                   "' for reading");
    GNNBENCH_CHECK(readPod<uint64_t>(in) == kDatasetMagic,
                   "'", path, "' is not a gnnbench dataset file");
    GNNBENCH_CHECK(readPod<uint32_t>(in) == kFormatVersion,
                   "unsupported dataset format version in '", path,
                   "'");
    graph::Dataset ds;
    const std::string name = readString(in);
    ds.info = graph::datasetInfo(name);
    ds.scale = readPod<double>(in);
    const auto classes = readPod<int32_t>(in);
    GNNBENCH_CHECK(classes == ds.info.numClasses,
                   "class count mismatch in '", path, "'");
    ds.graph.numNodes = readPod<NodeId>(in);
    ds.graph.src = readVec<NodeId>(in);
    ds.graph.dst = readVec<NodeId>(in);
    ds.features = readTensor(in);
    ds.labels = readVec<int32_t>(in);
    ds.trainIdx = readVec<NodeId>(in);
    ds.valIdx = readVec<NodeId>(in);
    ds.testIdx = readVec<NodeId>(in);
    ds.graph.validate();
    GNNBENCH_CHECK(ds.features.rows() == ds.graph.numNodes &&
                       ds.labels.size() ==
                           static_cast<size_t>(ds.graph.numNodes),
                   "dataset sections inconsistent in '", path, "'");
    for (int32_t y : ds.labels)
        GNNBENCH_CHECK(y >= 0 && y < classes, "label ", y,
                       " out of range in '", path, "'");
    for (const auto *split : {&ds.trainIdx, &ds.valIdx, &ds.testIdx})
        for (NodeId v : *split)
            GNNBENCH_CHECK(v >= 0 && v < ds.graph.numNodes, "split node ",
                           v, " out of range in '", path, "'");
    return ds;
}

void
writeCsr(std::ostream &out, const graph::CsrGraph &g,
         CsrStorageMode mode)
{
    writePod<uint32_t>(out, static_cast<uint32_t>(mode));
    writePod<NodeId>(out, g.numRows);
    writePod<NodeId>(out, g.numCols);
    if (mode == CsrStorageMode::Raw) {
        writeVec(out, g.indptr);
        writeVec(out, g.indices);
        return;
    }
    GNNBENCH_CHECK(mode == CsrStorageMode::DeltaVarint,
                   "writeCsr: unknown storage mode");
    writePod<uint64_t>(out, g.indices.size());
    for (NodeId r = 0; r < g.numRows; ++r) {
        writeVarint(out, static_cast<uint64_t>(g.degree(r)));
        NodeId prev = 0;
        bool first = true;
        for (const NodeId *p = g.rowBegin(r); p != g.rowEnd(r); ++p) {
            // First id is a signed delta from the row index itself —
            // after a locality pass neighbors sit near the diagonal,
            // so even the anchor stays short.
            const int64_t delta =
                first ? static_cast<int64_t>(*p) -
                            static_cast<int64_t>(r)
                      : static_cast<int64_t>(*p) -
                            static_cast<int64_t>(prev);
            writeVarint(out, zigzagEncode(delta));
            prev = *p;
            first = false;
        }
    }
}

graph::CsrGraph
readCsr(std::istream &in)
{
    const auto mode =
        static_cast<CsrStorageMode>(readPod<uint32_t>(in));
    graph::CsrGraph g;
    g.numRows = readPod<NodeId>(in);
    g.numCols = readPod<NodeId>(in);
    GNNBENCH_CHECK(g.numRows >= 0 && g.numCols >= 0,
                   "serialized CSR has invalid shape");
    // Every row costs at least one byte in either storage mode.
    checkLength(in, static_cast<uint64_t>(g.numRows), 1, "CSR row");
    if (mode == CsrStorageMode::Raw) {
        g.indptr = readVec<EdgeId>(in);
        g.indices = readVec<NodeId>(in);
        g.validate();
        return g;
    }
    GNNBENCH_CHECK(mode == CsrStorageMode::DeltaVarint,
                   "serialized CSR has unknown storage mode");
    const auto nnz = readPod<uint64_t>(in);
    // Each index is a varint of at least one byte.
    checkLength(in, nnz, 1, "CSR index");
    g.indptr.resize(static_cast<size_t>(g.numRows) + 1);
    g.indices.reserve(nnz);
    g.indptr[0] = 0;
    for (NodeId r = 0; r < g.numRows; ++r) {
        const auto deg = readVarint(in);
        GNNBENCH_CHECK(deg <= nnz - g.indices.size(),
                       "serialized CSR nnz mismatch");
        int64_t prev = static_cast<int64_t>(r);
        for (uint64_t k = 0; k < deg; ++k) {
            prev += zigzagDecode(readVarint(in));
            GNNBENCH_CHECK(prev >= 0 && prev < g.numCols,
                           "serialized CSR index out of range");
            g.indices.push_back(static_cast<NodeId>(prev));
        }
        g.indptr[r + 1] =
            g.indptr[r] + static_cast<EdgeId>(deg);
    }
    GNNBENCH_CHECK(g.indices.size() == nnz,
                   "serialized CSR nnz mismatch");
    g.validate();
    return g;
}

void
saveCsr(const graph::CsrGraph &g, const std::string &path,
        CsrStorageMode mode)
{
    std::ofstream out(path, std::ios::binary);
    GNNBENCH_CHECK(out.is_open(), "cannot open '", path,
                   "' for writing");
    writePod(out, kCsrMagic);
    writePod(out, kFormatVersion);
    writeCsr(out, g, mode);
    GNNBENCH_CHECK(out.good(), "write to '", path, "' failed");
}

graph::CsrGraph
loadCsr(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    GNNBENCH_CHECK(in.is_open(), "cannot open '", path,
                   "' for reading");
    GNNBENCH_CHECK(readPod<uint64_t>(in) == kCsrMagic, "'", path,
                   "' is not a gnnbench CSR file");
    GNNBENCH_CHECK(readPod<uint32_t>(in) == kFormatVersion,
                   "unsupported CSR format version in '", path, "'");
    return readCsr(in);
}

void
saveParams(const std::vector<core::ag::Var> &params,
           const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    GNNBENCH_CHECK(out.is_open(), "cannot open '", path,
                   "' for writing");
    writePod(out, kParamsMagic);
    writePod(out, kFormatVersion);
    writePod<uint64_t>(out, params.size());
    for (const auto &p : params)
        writeTensor(out, p->value);
    GNNBENCH_CHECK(out.good(), "write to '", path, "' failed");
}

void
loadParams(const std::vector<core::ag::Var> &params,
           const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    GNNBENCH_CHECK(in.is_open(), "cannot open '", path,
                   "' for reading");
    GNNBENCH_CHECK(readPod<uint64_t>(in) == kParamsMagic,
                   "'", path, "' is not a gnnbench parameter file");
    GNNBENCH_CHECK(readPod<uint32_t>(in) == kFormatVersion,
                   "unsupported parameter format version in '", path,
                   "'");
    const auto count = readPod<uint64_t>(in);
    GNNBENCH_CHECK(count == params.size(),
                   "parameter count mismatch: file has ", count,
                   ", model has ", params.size());
    for (const auto &p : params) {
        core::Tensor t = readTensor(in);
        GNNBENCH_CHECK(t.sameShape(p->value),
                       "parameter shape mismatch in '", path, "'");
        p->value = std::move(t);
    }
}

} // namespace io
} // namespace gnnbench
