/** Tests for the dense numeric kernels. */

#include <gtest/gtest.h>

#include <cmath>

#include "gnnbench/core/ops.h"

namespace gnnbench {
namespace core {
namespace ops {
namespace {

Tensor
make(std::initializer_list<std::initializer_list<float>> rows)
{
    const int64_t r = rows.size();
    const int64_t c = rows.begin()->size();
    Tensor t(r, c);
    int64_t i = 0;
    for (const auto &row : rows) {
        int64_t j = 0;
        for (float v : row)
            t(i, j++) = v;
        ++i;
    }
    return t;
}

void
expectNear(const Tensor &a, const Tensor &b, float tol = 1e-5f)
{
    ASSERT_TRUE(a.sameShape(b));
    for (int64_t i = 0; i < a.rows(); ++i)
        for (int64_t j = 0; j < a.cols(); ++j)
            EXPECT_NEAR(a(i, j), b(i, j), tol)
                << "at (" << i << "," << j << ")";
}

TEST(Ops, MatmulSmall)
{
    Tensor a = make({{1, 2}, {3, 4}});
    Tensor b = make({{5, 6}, {7, 8}});
    expectNear(matmul(a, b), make({{19, 22}, {43, 50}}));
}

TEST(Ops, MatmulIdentity)
{
    Rng rng(1);
    Tensor a = Tensor::randn(7, 7, rng);
    Tensor eye(7, 7);
    for (int64_t i = 0; i < 7; ++i)
        eye(i, i) = 1.0f;
    expectNear(matmul(a, eye), a);
    expectNear(matmul(eye, a), a);
}

TEST(Ops, MatmulTransposedVariantsAgree)
{
    Rng rng(2);
    Tensor a = Tensor::randn(5, 8, rng);
    Tensor b = Tensor::randn(5, 3, rng);
    // A^T B via matmulTa must equal matmul(transpose(A), B).
    expectNear(matmulTa(a, b), matmul(transpose(a), b), 1e-4f);
    Tensor c = Tensor::randn(4, 8, rng);
    // A C^T via matmulTb must equal matmul(A, transpose(C)).
    expectNear(matmulTb(a, c), matmul(a, transpose(c)), 1e-4f);
}

TEST(Ops, TransposeInvolution)
{
    Rng rng(3);
    Tensor a = Tensor::randn(4, 9, rng);
    expectNear(transpose(transpose(a)), a);
}

TEST(Ops, ElementwiseArithmetic)
{
    Tensor a = make({{1, -2}, {3, 0}});
    Tensor b = make({{2, 2}, {-1, 5}});
    expectNear(add(a, b), make({{3, 0}, {2, 5}}));
    expectNear(sub(a, b), make({{-1, -4}, {4, -5}}));
    expectNear(mul(a, b), make({{2, -4}, {-3, 0}}));
    expectNear(scale(a, -2.0f), make({{-2, 4}, {-6, 0}}));
}

TEST(Ops, AxpyInPlace)
{
    Tensor a = make({{1, 1}});
    Tensor b = make({{2, -3}});
    axpy(a, b, 0.5f);
    expectNear(a, make({{2, -0.5}}));
}

TEST(Ops, AddBiasBroadcastsRows)
{
    Tensor a = make({{1, 2}, {3, 4}});
    Tensor bias = make({{10, 20}});
    expectNear(addBias(a, bias), make({{11, 22}, {13, 24}}));
}

TEST(Ops, ColSumIsBiasGradient)
{
    Tensor a = make({{1, 2}, {3, 4}, {5, 6}});
    expectNear(colSum(a), make({{9, 12}}));
}

TEST(Ops, ReluAndGrad)
{
    Tensor x = make({{-1, 0, 2}});
    expectNear(relu(x), make({{0, 0, 2}}));
    Tensor g = make({{5, 5, 5}});
    expectNear(reluGrad(x, g), make({{0, 0, 5}}));
}

TEST(Ops, EluMatchesDefinition)
{
    Tensor x = make({{-1, 0, 2}});
    Tensor y = elu(x);
    EXPECT_NEAR(y(0, 0), std::expm1(-1.0f), 1e-6f);
    EXPECT_EQ(y(0, 1), 0.0f);
    EXPECT_EQ(y(0, 2), 2.0f);
    // d elu = elu(x)+1 for x<0, 1 otherwise.
    Tensor g = make({{2, 2, 2}});
    Tensor gx = eluGradFromOutput(y, g);
    EXPECT_NEAR(gx(0, 0), 2.0f * (std::expm1(-1.0f) + 1.0f), 1e-6f);
    EXPECT_EQ(gx(0, 2), 2.0f);
}

TEST(Ops, LeakyRelu)
{
    Tensor x = make({{-2, 3}});
    expectNear(leakyRelu(x, 0.1f), make({{-0.2, 3}}));
    Tensor g = make({{1, 1}});
    expectNear(leakyReluGrad(x, g, 0.1f), make({{0.1, 1}}));
}

TEST(Ops, DropoutMaskConsistent)
{
    Rng rng(4);
    Tensor x = Tensor::full(100, 100, 1.0f);
    Tensor mask;
    Tensor y = dropout(x, 0.3f, rng, &mask);
    int64_t kept = 0;
    for (int64_t i = 0; i < y.numel(); ++i) {
        EXPECT_FLOAT_EQ(y.data()[i], mask.data()[i]);
        if (y.data()[i] != 0.0f) {
            EXPECT_NEAR(y.data()[i], 1.0f / 0.7f, 1e-5f);
            ++kept;
        }
    }
    EXPECT_NEAR(static_cast<double>(kept) / y.numel(), 0.7, 0.02);
}

TEST(Ops, LogSoftmaxRowsSumToOne)
{
    Rng rng(5);
    Tensor x = Tensor::randn(10, 6, rng, 3.0f);
    Tensor y = logSoftmax(x);
    for (int64_t i = 0; i < y.rows(); ++i) {
        double z = 0.0;
        for (int64_t j = 0; j < y.cols(); ++j)
            z += std::exp(y(i, j));
        EXPECT_NEAR(z, 1.0, 1e-4);
    }
}

TEST(Ops, LogSoftmaxShiftInvariant)
{
    Tensor a = make({{1, 2, 3}});
    Tensor b = make({{101, 102, 103}});
    expectNear(logSoftmax(a), logSoftmax(b), 1e-4f);
}

TEST(Ops, NllLossKnownValue)
{
    // logprob rows with mass concentrated on the label -> small loss.
    Tensor lp = logSoftmax(make({{10, 0, 0}, {0, 10, 0}}));
    const float loss = nllLoss(lp, {0, 1}, {});
    EXPECT_NEAR(loss, -lp(0, 0), 1e-4f);
}

TEST(Ops, NllLossRowSelection)
{
    Tensor lp = logSoftmax(make({{1, 0}, {0, 1}, {5, 0}}));
    const float all = nllLoss(lp, {0, 0, 0}, {});
    const float only2 = nllLoss(lp, {0, 0, 0}, {2});
    EXPECT_NE(all, only2);
    EXPECT_NEAR(only2, -lp(2, 0), 1e-5f);
}

TEST(Ops, GatherScatterRoundTrip)
{
    Tensor x = make({{1, 2}, {3, 4}, {5, 6}});
    std::vector<NodeId> idx = {2, 0};
    Tensor g = gatherRows(x, idx);
    expectNear(g, make({{5, 6}, {1, 2}}));
    Tensor s = scatterAddRows(g, idx, 3);
    expectNear(s, make({{1, 2}, {0, 0}, {5, 6}}));
}

TEST(Ops, ScatterAddAccumulatesDuplicates)
{
    Tensor src = make({{1, 1}, {2, 2}});
    Tensor out = scatterAddRows(src, {0, 0}, 2);
    expectNear(out, make({{3, 3}, {0, 0}}));
}

TEST(Ops, RowScale)
{
    Tensor x = make({{1, 2}, {3, 4}});
    expectNear(rowScale(x, {2.0f, -1.0f}), make({{2, 4}, {-3, -4}}));
}

TEST(Ops, ConcatSplitRoundTrip)
{
    Tensor a = make({{1, 2}, {3, 4}});
    Tensor b = make({{5}, {6}});
    Tensor c = concatCols(a, b);
    expectNear(c, make({{1, 2, 5}, {3, 4, 6}}));
    Tensor ga, gb;
    splitColsGrad(c, 2, &ga, &gb);
    expectNear(ga, a);
    expectNear(gb, b);
}

TEST(Ops, CountCorrect)
{
    Tensor logits = make({{1, 0}, {0, 1}, {3, 2}});
    EXPECT_EQ(countCorrect(logits, {0, 1, 1}, {}), 2);
    EXPECT_EQ(countCorrect(logits, {0, 1, 1}, {2}), 0);
}

TEST(Ops, LossOpsRejectLabelRowMismatch)
{
    // A label per logits row, and selected rows inside the logits:
    // otherwise labels[r] is read out of bounds.
    Tensor logits = make({{1, 0}, {0, 1}, {3, 2}});
    EXPECT_EXIT(countCorrect(logits, {0, 1}, {}),
                ::testing::ExitedWithCode(1), "2 labels for 3 rows");
    EXPECT_EXIT(nllLoss(logits, {0, 1}, {}),
                ::testing::ExitedWithCode(1), "2 labels for 3 rows");
    EXPECT_EXIT(nllLossGrad(logits, {0, 1, 1, 0}, {}),
                ::testing::ExitedWithCode(1), "4 labels for 3 rows");
    EXPECT_EXIT(countCorrect(logits, {0, 1, 1}, {3}),
                ::testing::ExitedWithCode(1), "row 3 out of range");
    EXPECT_EXIT(nllLoss(logits, {0, 1, 1}, {-1}),
                ::testing::ExitedWithCode(1), "row -1 out of range");
    EXPECT_EXIT(nllLossGrad(logits, {0, 1, 1}, {0, 7}),
                ::testing::ExitedWithCode(1), "row 7 out of range");
}

/** Property sweep: matmul associativity-ish check across shapes. */
class MatmulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(MatmulShapes, MatchesNaive)
{
    auto [m, k, n] = GetParam();
    Rng rng(m * 100 + k * 10 + n);
    Tensor a = Tensor::randn(m, k, rng);
    Tensor b = Tensor::randn(k, n, rng);
    Tensor c = matmul(a, b);
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (int64_t kk = 0; kk < k; ++kk)
                acc += static_cast<double>(a(i, kk)) * b(kk, j);
            ASSERT_NEAR(c(i, j), acc, 1e-3);
        }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapes,
    ::testing::Values(std::make_tuple(1, 1, 1),
                      std::make_tuple(3, 5, 2),
                      std::make_tuple(16, 1, 16),
                      std::make_tuple(7, 13, 11),
                      std::make_tuple(32, 8, 4)));

} // namespace
} // namespace ops
} // namespace core
} // namespace gnnbench
