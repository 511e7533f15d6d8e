#include "gnnbench/core/ops.h"

#include <algorithm>
#include <cmath>

#include "gnnbench/core/parallel.h"

namespace gnnbench {
namespace core {
namespace ops {

namespace {

using parallel::parallelFor;
using parallel::parallelReduce;

/** Elements per chunk for flat elementwise loops. */
constexpr int64_t kElemGrain = 1 << 14;

/** Rows per chunk for rowwise loops, scaled by the row width. */
int64_t
rowGrain(int64_t cols)
{
    return std::max<int64_t>(1, (1 << 13) / std::max<int64_t>(cols, 1));
}

/** Columns per chunk for column-blocked accumulation loops. */
constexpr int64_t kColGrain = 32;

/** Shared shape check for elementwise binary ops. */
void
checkSameShape(const Tensor &a, const Tensor &b, const char *op)
{
    GNNBENCH_CHECK(a.sameShape(b), op, ": shape mismatch ", a.rows(), "x",
                   a.cols(), " vs ", b.rows(), "x", b.cols());
}

/** The loss and accuracy ops read labels[r] for every selected row r
 *  of @p logits; reject a mismatch before any parallel region. */
void
checkLabelRows(const Tensor &logits, const std::vector<int32_t> &labels,
               const std::vector<NodeId> &rows, const char *op)
{
    GNNBENCH_CHECK(static_cast<int64_t>(labels.size()) == logits.rows(),
                   op, ": ", labels.size(), " labels for ",
                   logits.rows(), " rows");
    for (NodeId r : rows)
        GNNBENCH_CHECK(r >= 0 && r < logits.rows(), op, ": row ", r,
                       " out of range [0, ", logits.rows(), ")");
}

} // namespace

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    GNNBENCH_CHECK(a.cols() == b.rows(), "matmul: inner dims ", a.cols(),
                   " vs ", b.rows());
    const int64_t m = a.rows(), k = a.cols(), n = b.cols();
    Tensor c(m, n);
    // i-k-j loop order: streams over B rows and C rows, which is cache
    // friendly for row-major storage and lets the compiler vectorize
    // the inner j loop.
    #pragma omp parallel for schedule(static)
    for (int64_t i = 0; i < m; ++i) {
        const float *arow = a.row(i);
        float *crow = c.row(i);
        for (int64_t kk = 0; kk < k; ++kk) {
            const float av = arow[kk];
            if (av == 0.0f)
                continue;
            const float *brow = b.row(kk);
            for (int64_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
    return c;
}

Tensor
matmulTa(const Tensor &a, const Tensor &b)
{
    GNNBENCH_CHECK(a.rows() == b.rows(), "matmulTa: outer dims ", a.rows(),
                   " vs ", b.rows());
    const int64_t m = a.cols(), k = a.rows(), n = b.cols();
    Tensor c(m, n);
    // Column-blocked: each chunk owns a disjoint j-range of C (and B),
    // so the kk-outer accumulation order per element is exactly the
    // serial order and results are bit-identical at any thread count.
    parallelFor(0, n, kColGrain, [&](int64_t j0, int64_t j1) {
        for (int64_t kk = 0; kk < k; ++kk) {
            const float *arow = a.row(kk);
            const float *brow = b.row(kk);
            for (int64_t i = 0; i < m; ++i) {
                const float av = arow[i];
                if (av == 0.0f)
                    continue;
                float *crow = c.row(i);
                for (int64_t j = j0; j < j1; ++j)
                    crow[j] += av * brow[j];
            }
        }
    });
    return c;
}

Tensor
matmulTb(const Tensor &a, const Tensor &b)
{
    GNNBENCH_CHECK(a.cols() == b.cols(), "matmulTb: inner dims ", a.cols(),
                   " vs ", b.cols());
    const int64_t m = a.rows(), k = a.cols(), n = b.rows();
    Tensor c(m, n);
    #pragma omp parallel for schedule(static)
    for (int64_t i = 0; i < m; ++i) {
        const float *arow = a.row(i);
        float *crow = c.row(i);
        for (int64_t j = 0; j < n; ++j) {
            const float *brow = b.row(j);
            float acc = 0.0f;
            for (int64_t kk = 0; kk < k; ++kk)
                acc += arow[kk] * brow[kk];
            crow[j] = acc;
        }
    }
    return c;
}

Tensor
transpose(const Tensor &a)
{
    Tensor t = Tensor::empty(a.cols(), a.rows());
    parallelFor(0, a.rows(), rowGrain(a.cols()),
                [&](int64_t r0, int64_t r1) {
                    for (int64_t i = r0; i < r1; ++i)
                        for (int64_t j = 0; j < a.cols(); ++j)
                            t(j, i) = a(i, j);
                });
    return t;
}

Tensor
add(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "add");
    Tensor c = a.clone();
    float *cp = c.data();
    const float *bp = b.data();
    parallelFor(0, c.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            cp[i] += bp[i];
    });
    return c;
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "sub");
    Tensor c = a.clone();
    float *cp = c.data();
    const float *bp = b.data();
    parallelFor(0, c.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            cp[i] -= bp[i];
    });
    return c;
}

Tensor
mul(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "mul");
    Tensor c = a.clone();
    float *cp = c.data();
    const float *bp = b.data();
    parallelFor(0, c.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            cp[i] *= bp[i];
    });
    return c;
}

Tensor
scale(const Tensor &a, float alpha)
{
    Tensor c = a.clone();
    float *cp = c.data();
    parallelFor(0, c.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            cp[i] *= alpha;
    });
    return c;
}

void
axpy(Tensor &a, const Tensor &b, float alpha)
{
    checkSameShape(a, b, "axpy");
    float *ap = a.data();
    const float *bp = b.data();
    parallelFor(0, a.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            ap[i] += alpha * bp[i];
    });
}

Tensor
addBias(const Tensor &a, const Tensor &bias)
{
    GNNBENCH_CHECK(bias.rows() == 1 && bias.cols() == a.cols(),
                   "addBias: bias must be 1x", a.cols());
    Tensor c = a.clone();
    const float *bp = bias.data();
    parallelFor(0, c.rows(), rowGrain(c.cols()),
                [&](int64_t r0, int64_t r1) {
                    for (int64_t i = r0; i < r1; ++i) {
                        float *crow = c.row(i);
                        for (int64_t j = 0; j < c.cols(); ++j)
                            crow[j] += bp[j];
                    }
                });
    return c;
}

Tensor
colSum(const Tensor &a)
{
    Tensor s(1, a.cols());
    float *sp = s.data();
    // Column-blocked so each chunk accumulates its own disjoint slice
    // of the output, in the serial (ascending row) order.
    parallelFor(0, a.cols(), kColGrain, [&](int64_t j0, int64_t j1) {
        for (int64_t i = 0; i < a.rows(); ++i) {
            const float *arow = a.row(i);
            for (int64_t j = j0; j < j1; ++j)
                sp[j] += arow[j];
        }
    });
    return s;
}

Tensor
relu(const Tensor &a)
{
    Tensor c = a.clone();
    float *cp = c.data();
    parallelFor(0, c.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            cp[i] = std::max(cp[i], 0.0f);
    });
    return c;
}

Tensor
reluGrad(const Tensor &x, const Tensor &grad)
{
    checkSameShape(x, grad, "reluGrad");
    Tensor g = grad.clone();
    float *gp = g.data();
    const float *xp = x.data();
    parallelFor(0, g.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            if (xp[i] <= 0.0f)
                gp[i] = 0.0f;
    });
    return g;
}

Tensor
elu(const Tensor &a)
{
    Tensor c = a.clone();
    float *cp = c.data();
    parallelFor(0, c.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            if (cp[i] < 0.0f)
                cp[i] = std::expm1(cp[i]);
    });
    return c;
}

Tensor
eluGradFromOutput(const Tensor &y, const Tensor &grad)
{
    checkSameShape(y, grad, "eluGradFromOutput");
    Tensor g = grad.clone();
    float *gp = g.data();
    const float *yp = y.data();
    // d/dx elu(x) = 1 for x > 0 and elu(x) + 1 otherwise.
    parallelFor(0, g.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            if (yp[i] < 0.0f)
                gp[i] *= yp[i] + 1.0f;
    });
    return g;
}

Tensor
leakyRelu(const Tensor &a, float slope)
{
    Tensor c = a.clone();
    float *cp = c.data();
    parallelFor(0, c.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            if (cp[i] < 0.0f)
                cp[i] *= slope;
    });
    return c;
}

Tensor
leakyReluGrad(const Tensor &x, const Tensor &grad, float slope)
{
    checkSameShape(x, grad, "leakyReluGrad");
    Tensor g = grad.clone();
    float *gp = g.data();
    const float *xp = x.data();
    parallelFor(0, g.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            if (xp[i] < 0.0f)
                gp[i] *= slope;
    });
    return g;
}

Tensor
dropout(const Tensor &a, float p, Rng &rng, Tensor *mask)
{
    GNNBENCH_CHECK(p >= 0.0f && p < 1.0f, "dropout probability ", p);
    Tensor c = a.clone();
    Tensor m(a.rows(), a.cols());
    const float keep_scale = 1.0f / (1.0f - p);
    float *cp = c.data();
    float *mp = m.data();
    for (int64_t i = 0; i < c.numel(); ++i) {
        const bool keep = rng.uniformFloat() >= p;
        mp[i] = keep ? keep_scale : 0.0f;
        cp[i] *= mp[i];
    }
    if (mask)
        *mask = std::move(m);
    return c;
}

Tensor
logSoftmax(const Tensor &a)
{
    Tensor y = Tensor::empty(a.rows(), a.cols());
    parallelFor(0, a.rows(), rowGrain(a.cols()),
                [&](int64_t r0, int64_t r1) {
                    for (int64_t i = r0; i < r1; ++i) {
                        const float *arow = a.row(i);
                        float *yrow = y.row(i);
                        float mx = arow[0];
                        for (int64_t j = 1; j < a.cols(); ++j)
                            mx = std::max(mx, arow[j]);
                        double z = 0.0;
                        for (int64_t j = 0; j < a.cols(); ++j)
                            z += std::exp(
                                static_cast<double>(arow[j] - mx));
                        const float logz =
                            mx + static_cast<float>(std::log(z));
                        for (int64_t j = 0; j < a.cols(); ++j)
                            yrow[j] = arow[j] - logz;
                    }
                });
    return y;
}

Tensor
logSoftmaxGrad(const Tensor &y, const Tensor &grad)
{
    checkSameShape(y, grad, "logSoftmaxGrad");
    Tensor g = Tensor::empty(y.rows(), y.cols());
    parallelFor(0, y.rows(), rowGrain(y.cols()),
                [&](int64_t r0, int64_t r1) {
                    for (int64_t i = r0; i < r1; ++i) {
                        const float *yrow = y.row(i);
                        const float *grow = grad.row(i);
                        float *orow = g.row(i);
                        double gsum = 0.0;
                        for (int64_t j = 0; j < y.cols(); ++j)
                            gsum += grow[j];
                        for (int64_t j = 0; j < y.cols(); ++j) {
                            orow[j] = grow[j] -
                                      std::exp(yrow[j]) *
                                          static_cast<float>(gsum);
                        }
                    }
                });
    return g;
}

float
nllLoss(const Tensor &logprob, const std::vector<int32_t> &labels,
        const std::vector<NodeId> &rows)
{
    checkLabelRows(logprob, labels, rows, "nllLoss");
    auto row_term = [&](int64_t r) {
        const int32_t y = labels[r];
        GNNBENCH_ASSERT(y >= 0 && y < logprob.cols(), "label ", y,
                        " out of range");
        return -static_cast<double>(logprob(r, y));
    };
    double acc = 0.0;
    int64_t count = 0;
    if (rows.empty()) {
        count = logprob.rows();
        acc = parallelReduce(
            0, logprob.rows(), rowGrain(logprob.cols()), 0.0,
            [&](int64_t r0, int64_t r1) {
                double part = 0.0;
                for (int64_t r = r0; r < r1; ++r)
                    part += row_term(r);
                return part;
            },
            [](double x, double y) { return x + y; });
    } else {
        count = static_cast<int64_t>(rows.size());
        for (NodeId r : rows)
            acc += row_term(r);
    }
    GNNBENCH_CHECK(count > 0, "nllLoss over zero rows");
    return static_cast<float>(acc / count);
}

Tensor
nllLossGrad(const Tensor &logprob, const std::vector<int32_t> &labels,
            const std::vector<NodeId> &rows)
{
    checkLabelRows(logprob, labels, rows, "nllLossGrad");
    Tensor g(logprob.rows(), logprob.cols());
    const int64_t count =
        rows.empty() ? logprob.rows() : static_cast<int64_t>(rows.size());
    GNNBENCH_CHECK(count > 0, "nllLossGrad over zero rows");
    const float scale = -1.0f / static_cast<float>(count);
    if (rows.empty()) {
        parallelFor(0, logprob.rows(), rowGrain(logprob.cols()),
                    [&](int64_t r0, int64_t r1) {
                        for (int64_t r = r0; r < r1; ++r)
                            g(r, labels[r]) = scale;
                    });
    } else {
        for (NodeId r : rows)
            g(r, labels[r]) = scale;
    }
    return g;
}

Tensor
gatherRows(const Tensor &a, const std::vector<NodeId> &idx)
{
    Tensor out = Tensor::empty(static_cast<int64_t>(idx.size()), a.cols());
    parallelFor(0, static_cast<int64_t>(idx.size()), rowGrain(a.cols()),
                [&](int64_t r0, int64_t r1) {
                    for (int64_t i = r0; i < r1; ++i) {
                        GNNBENCH_ASSERT(idx[i] >= 0 && idx[i] < a.rows(),
                                        "gatherRows index out of range");
                        std::copy_n(a.row(idx[i]), a.cols(), out.row(i));
                    }
                });
    return out;
}

Tensor
scatterAddRows(const Tensor &a, const std::vector<NodeId> &idx,
               int64_t out_rows)
{
    GNNBENCH_CHECK(static_cast<int64_t>(idx.size()) == a.rows(),
                   "scatterAddRows: index count mismatch");
    Tensor out(out_rows, a.cols());
    for (size_t i = 0; i < idx.size(); ++i)
        GNNBENCH_ASSERT(idx[i] >= 0 && idx[i] < out_rows,
                        "scatterAddRows index out of range");
    // Duplicate indices make row-parallel accumulation race, so each
    // chunk owns a column block instead: disjoint writes, and the
    // ascending-i accumulation order per element matches serial.
    parallelFor(0, a.cols(), kColGrain, [&](int64_t j0, int64_t j1) {
        for (size_t i = 0; i < idx.size(); ++i) {
            const float *src = a.row(i);
            float *dst = out.row(idx[i]);
            for (int64_t j = j0; j < j1; ++j)
                dst[j] += src[j];
        }
    });
    return out;
}

Tensor
rowScale(const Tensor &a, const std::vector<float> &s)
{
    GNNBENCH_CHECK(static_cast<int64_t>(s.size()) == a.rows(),
                   "rowScale: one scalar per row required");
    Tensor c = a.clone();
    parallelFor(0, c.rows(), rowGrain(c.cols()),
                [&](int64_t r0, int64_t r1) {
                    for (int64_t i = r0; i < r1; ++i) {
                        float *crow = c.row(i);
                        for (int64_t j = 0; j < c.cols(); ++j)
                            crow[j] *= s[i];
                    }
                });
    return c;
}

Tensor
concatCols(const Tensor &a, const Tensor &b)
{
    GNNBENCH_CHECK(a.rows() == b.rows(), "concatCols: row mismatch");
    Tensor c = Tensor::empty(a.rows(), a.cols() + b.cols());
    parallelFor(0, a.rows(), rowGrain(c.cols()),
                [&](int64_t r0, int64_t r1) {
                    for (int64_t i = r0; i < r1; ++i) {
                        std::copy_n(a.row(i), a.cols(), c.row(i));
                        std::copy_n(b.row(i), b.cols(),
                                    c.row(i) + a.cols());
                    }
                });
    return c;
}

void
splitColsGrad(const Tensor &grad, int64_t a_cols, Tensor *ga, Tensor *gb)
{
    GNNBENCH_CHECK(a_cols <= grad.cols(), "splitColsGrad: bad split");
    const int64_t b_cols = grad.cols() - a_cols;
    *ga = Tensor(grad.rows(), a_cols);
    *gb = Tensor(grad.rows(), b_cols);
    parallelFor(0, grad.rows(), rowGrain(grad.cols()),
                [&](int64_t r0, int64_t r1) {
                    for (int64_t i = r0; i < r1; ++i) {
                        std::copy_n(grad.row(i), a_cols, ga->row(i));
                        std::copy_n(grad.row(i) + a_cols, b_cols,
                                    gb->row(i));
                    }
                });
}

int64_t
countCorrect(const Tensor &logits, const std::vector<int32_t> &labels,
             const std::vector<NodeId> &rows)
{
    checkLabelRows(logits, labels, rows, "countCorrect");
    auto row_hit = [&](int64_t r) -> int64_t {
        const float *row = logits.row(r);
        int64_t best = 0;
        for (int64_t j = 1; j < logits.cols(); ++j)
            if (row[j] > row[best])
                best = j;
        return best == labels[r] ? 1 : 0;
    };
    if (rows.empty()) {
        return parallelReduce(
            0, logits.rows(), rowGrain(logits.cols()),
            static_cast<int64_t>(0),
            [&](int64_t r0, int64_t r1) {
                int64_t part = 0;
                for (int64_t r = r0; r < r1; ++r)
                    part += row_hit(r);
                return part;
            },
            [](int64_t x, int64_t y) { return x + y; });
    }
    int64_t correct = 0;
    for (NodeId r : rows)
        correct += row_hit(r);
    return correct;
}

} // namespace ops
} // namespace core
} // namespace gnnbench
