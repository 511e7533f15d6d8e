/** Tests for dataset / parameter serialization. */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>

#include "gnnbench/dglx/nn.h"
#include "gnnbench/graph/convert.h"
#include "gnnbench/io/serialize.h"
#include "test_support.h"

namespace gnnbench {
namespace io {
namespace {

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Serialize, TensorRoundTrip)
{
    core::Rng rng(1);
    core::Tensor t = core::Tensor::randn(17, 9, rng);
    const std::string path = tempPath("tensor.bin");
    {
        std::ofstream out(path, std::ios::binary);
        writeTensor(out, t);
    }
    std::ifstream in(path, std::ios::binary);
    core::Tensor back = readTensor(in);
    ASSERT_TRUE(back.sameShape(t));
    for (int64_t i = 0; i < t.numel(); ++i)
        ASSERT_EQ(back.data()[i], t.data()[i]);
}

TEST(Serialize, EmptyTensorRoundTrip)
{
    const std::string path = tempPath("empty.bin");
    {
        std::ofstream out(path, std::ios::binary);
        writeTensor(out, core::Tensor());
    }
    std::ifstream in(path, std::ios::binary);
    core::Tensor back = readTensor(in);
    EXPECT_EQ(back.numel(), 0);
}

TEST(Serialize, DatasetRoundTrip)
{
    graph::Dataset ds = graph::loadDataset("ppi", 0.05, 3);
    const std::string path = tempPath("dataset.bin");
    saveDataset(ds, path);
    graph::Dataset back = loadDatasetFile(path);
    EXPECT_EQ(back.info.name, ds.info.name);
    EXPECT_EQ(back.scale, ds.scale);
    EXPECT_EQ(back.graph.src, ds.graph.src);
    EXPECT_EQ(back.graph.dst, ds.graph.dst);
    EXPECT_EQ(back.labels, ds.labels);
    EXPECT_EQ(back.trainIdx, ds.trainIdx);
    ASSERT_TRUE(back.features.sameShape(ds.features));
    for (int64_t i = 0; i < ds.features.numel(); ++i)
        ASSERT_EQ(back.features.data()[i], ds.features.data()[i]);
}

TEST(Serialize, ParamsRoundTrip)
{
    core::Rng rng(5);
    dglx::SageConv conv(8, 4, rng);
    const std::string path = tempPath("params.bin");
    saveParams(conv.params(), path);

    // A second model with different init converges to the saved
    // weights after load.
    core::Rng rng2(99);
    dglx::SageConv other(8, 4, rng2);
    EXPECT_NE(other.params()[0]->value(0, 0),
              conv.params()[0]->value(0, 0));
    loadParams(other.params(), path);
    for (size_t p = 0; p < conv.params().size(); ++p)
        for (int64_t i = 0; i < conv.params()[p]->value.numel(); ++i)
            ASSERT_EQ(other.params()[p]->value.data()[i],
                      conv.params()[p]->value.data()[i]);
}

TEST(Serialize, RejectsWrongMagic)
{
    const std::string path = tempPath("garbage.bin");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a gnnbench file at all............";
    }
    EXPECT_DEATH(loadDatasetFile(path), "not a gnnbench dataset");
    core::Rng rng(6);
    dglx::GcnConv conv(4, 4, rng);
    EXPECT_DEATH(loadParams(conv.params(), path),
                 "not a gnnbench parameter");
}

TEST(Serialize, RejectsTruncation)
{
    graph::Dataset ds = graph::loadDataset("ppi", 0.02, 7);
    const std::string path = tempPath("trunc.bin");
    saveDataset(ds, path);
    // Truncate the file to half its size.
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto size = static_cast<size_t>(in.tellg());
    in.seekg(0);
    std::string half(size / 2, '\0');
    in.read(half.data(), static_cast<std::streamsize>(half.size()));
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(half.data(),
              static_cast<std::streamsize>(half.size()));
    out.close();
    EXPECT_DEATH(loadDatasetFile(path), "truncated");
}

TEST(Serialize, RejectsShapeMismatch)
{
    core::Rng rng(8);
    dglx::GcnConv small(4, 4, rng);
    dglx::GcnConv big(16, 16, rng);
    const std::string path = tempPath("shape.bin");
    saveParams(small.params(), path);
    EXPECT_DEATH(loadParams(big.params(), path), "shape mismatch");
}

TEST(Serialize, MissingFileIsFatal)
{
    EXPECT_DEATH(loadDatasetFile(tempPath("does-not-exist.bin")),
                 "cannot open");
}

// ---- Corrupted input: every case returns or exits with code 1 ----

/** A corrupted file either loads or is rejected by fatal(); a signal
 *  (out-of-bounds access, bad_alloc abort) fails the test. */
bool
returnedOrFatal(int status)
{
    return WIFEXITED(status) &&
           (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 1);
}

/** One serialized format: a valid blob, the byte ranges of its header
 *  and length fields, and a reader of a (possibly corrupted) copy. */
struct Format
{
    const char *name;
    std::string blob;
    std::vector<std::pair<size_t, size_t>> fields;  ///< (offset, size)
    std::function<void(const std::string &)> read;
};

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
readFromMemory(const std::string &bytes,
               const std::function<void(std::istream &)> &reader)
{
    std::istringstream in(bytes);
    reader(in);
}

/** The dataset used by the corruption tests. */
const graph::Dataset &
fuzzDataset()
{
    static const graph::Dataset ds = graph::loadDataset("ppi", 0.02, 7);
    return ds;
}

std::vector<Format>
formats()
{
    std::vector<Format> out;
    core::Rng rng(3);
    {
        std::ostringstream os;
        writeTensor(os, core::Tensor::randn(5, 3, rng));
        out.push_back({"tensor", os.str(), {{0, 8}, {8, 8}},
                       [](const std::string &b) {
                           readFromMemory(b, [](std::istream &in) {
                               readTensor(in);
                           });
                       }});
    }
    const graph::CsrGraph csr = graph::cooToCsr(fuzzDataset().graph);
    for (auto mode : {CsrStorageMode::Raw, CsrStorageMode::DeltaVarint}) {
        std::ostringstream os;
        writeCsr(os, csr, mode);
        // mode, numRows, numCols, then the first length prefix
        // (indptr length, or nnz).
        std::vector<std::pair<size_t, size_t>> fields = {
            {0, 4}, {4, 4}, {8, 4}, {12, 8}};
        if (mode == CsrStorageMode::Raw)
            fields.push_back(
                {20 + (static_cast<size_t>(csr.numRows) + 1) * 8, 8});
        out.push_back({mode == CsrStorageMode::Raw ? "csr-raw"
                                                   : "csr-delta",
                       os.str(), fields, [](const std::string &b) {
                           readFromMemory(b, [](std::istream &in) {
                               readCsr(in);
                           });
                       }});
    }
    {
        const graph::Dataset &ds = fuzzDataset();
        const std::string path = tempPath("fuzz-src.bin");
        saveDataset(ds, path);
        std::vector<std::pair<size_t, size_t>> fields;
        size_t off = 0;
        auto field = [&](size_t bytes) {
            fields.push_back({off, bytes});
            off += bytes;
        };
        auto vec = [&](size_t n, size_t elem) {
            field(8);
            off += n * elem;
        };
        field(8);  // magic
        field(4);  // version
        vec(ds.info.name.size(), 1);
        field(8);  // scale
        field(4);  // classes
        field(4);  // numNodes
        vec(ds.graph.src.size(), sizeof(NodeId));
        vec(ds.graph.dst.size(), sizeof(NodeId));
        field(8);  // feature rows
        field(8);  // feature cols
        off += static_cast<size_t>(ds.features.bytes());
        vec(ds.labels.size(), sizeof(int32_t));
        vec(ds.trainIdx.size(), sizeof(NodeId));
        vec(ds.valIdx.size(), sizeof(NodeId));
        vec(ds.testIdx.size(), sizeof(NodeId));
        Format f{"dataset", fileBytes(path), fields,
                 [](const std::string &b) {
                     const std::string p = tempPath("fuzz-case.bin");
                     std::ofstream(p, std::ios::binary) << b;
                     loadDatasetFile(p);
                 }};
        EXPECT_EQ(off, f.blob.size()) << "dataset field map out of date";
        out.push_back(std::move(f));
    }
    return out;
}

void
expectReturnsOrFatal(const Format &f, const std::string &bytes,
                     const std::string &what)
{
    EXPECT_EXIT(
        {
            f.read(bytes);
            std::_Exit(0);
        },
        returnedOrFatal, "")
        << f.name << ": " << what;
}

TEST(SerializeCorruption, TruncationAtEveryHeaderField)
{
    for (const Format &f : formats()) {
        for (const auto &[offset, size] : f.fields)
            for (size_t cut = offset; cut < offset + size; ++cut)
                expectReturnsOrFatal(f, f.blob.substr(0, cut),
                                     "cut at " + std::to_string(cut));
    }
}

TEST(SerializeCorruption, SeededByteFlips)
{
    core::Rng rng(testenv::seed());
    for (const Format &f : formats()) {
        for (int i = 0; i < 48; ++i) {
            std::string bytes = f.blob;
            // Half of the flips land in a header or length field,
            // where they change sizes; the rest anywhere.
            size_t pos;
            if (i % 2 == 0) {
                const auto &[offset, size] =
                    f.fields[rng.uniformInt(f.fields.size())];
                pos = offset + rng.uniformInt(size);
            } else {
                pos = rng.uniformInt(bytes.size());
            }
            const auto flip = static_cast<char>(1 + rng.uniformInt(255));
            bytes[pos] = static_cast<char>(bytes[pos] ^ flip);
            expectReturnsOrFatal(f, bytes,
                                 "byte " + std::to_string(pos) +
                                     " xor " +
                                     std::to_string(flip & 0xff));
        }
    }
}

TEST(SerializeCorruption, HugeLengthPrefixIsFatal)
{
    // A length prefix far beyond the file must not be allocated.
    std::ostringstream os;
    writeTensor(os, core::Tensor::zeros(2, 2));
    std::string bytes = os.str();
    const int64_t rows = int64_t(1) << 40;
    std::memcpy(bytes.data(), &rows, sizeof(rows));
    EXPECT_EXIT(readFromMemory(bytes,
                               [](std::istream &in) { readTensor(in); }),
                ::testing::ExitedWithCode(1), "exceeds");
}

} // namespace
} // namespace io
} // namespace gnnbench
