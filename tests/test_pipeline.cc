/**
 * @file
 * End-to-end pipeline tests: every compiled kernel family is executed
 * by the interpreter and compared against dense references on
 * randomized inputs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/ops.h"
#include "core/pipeline.h"
#include "format/bsr.h"
#include "format/dcsr.h"
#include "format/srbcrs.h"
#include "graph/generator.h"
#include "transform/lower_sparse_buffer.h"
#include "transform/lower_sparse_iter.h"
#include "support/rng.h"

namespace sparsetir {
namespace {

using core::BindingSet;
using format::Csr;
using runtime::NDArray;

std::vector<float>
randomVector(int64_t size, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> out(size);
    for (auto &v : out) {
        v = static_cast<float>(rng.uniformReal() * 2.0 - 1.0);
    }
    return out;
}

Csr
randomCsr(int64_t rows, int64_t cols, double density, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> dense(rows * cols, 0.0f);
    for (auto &v : dense) {
        if (rng.uniformReal() < density) {
            v = static_cast<float>(rng.uniformReal() * 2.0 - 1.0);
            if (v == 0.0f) {
                v = 0.5f;
            }
        }
    }
    return format::csrFromDense(rows, cols, dense);
}

TEST(Pipeline, SpmmCsrMatchesReference)
{
    Csr a = randomCsr(37, 29, 0.15, 1);
    int64_t feat = 24;
    auto b_host = randomVector(a.cols * feat, 2);

    auto shared = std::make_shared<BindingSet>();
    auto kernel = core::compileSpmmCsr(a, feat, shared);
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    shared->external("B_data", &b);
    shared->external("C_data", &c);
    kernel->execute();

    auto expected = core::referenceSpmm(a, b_host, feat);
    for (int64_t i = 0; i < c.numel(); ++i) {
        ASSERT_NEAR(expected[i], c.floatAt(i), 1e-4) << "at " << i;
    }
}

TEST(Pipeline, SpmmHybMatchesReference)
{
    // Power-law graph exercises multiple buckets and row splitting.
    Csr a = graph::powerLawGraph(150, 1800, 1.8, 3);
    int64_t feat = 16;
    auto b_host = randomVector(a.cols * feat, 4);

    for (int c_partitions : {1, 2, 4}) {
        auto shared = std::make_shared<BindingSet>();
        NDArray b = NDArray::fromFloat(b_host);
        NDArray c({a.rows * feat}, ir::DataType::float32());
        shared->external("B_data", &b);
        shared->external("C_data", &c);
        core::HybSpmm compiled =
            core::compileSpmmHyb(a, feat, c_partitions, -1, shared);
        EXPECT_GE(compiled.kernels.size(), 1u);
        // Buckets accumulate partial results; C starts zeroed and
        // each bucket's init must not wipe other buckets' work, so
        // the generated kernels accumulate through C.
        for (auto &kernel : compiled.kernels) {
            kernel->execute();
        }
        auto expected = core::referenceSpmm(a, b_host, feat);
        double worst = 0.0;
        for (int64_t i = 0; i < c.numel(); ++i) {
            worst = std::max(
                worst, std::abs(expected[i] - c.floatAt(i)));
        }
        EXPECT_LT(worst, 1e-3)
            << "hyb(" << c_partitions << ") mismatch";
    }
}

TEST(Pipeline, HybCoversAllNonzeros)
{
    Csr a = graph::powerLawGraph(200, 3000, 1.7, 5);
    format::Hyb hyb = format::hybFromCsr(a, 2, -1);
    auto dense = format::csrToDense(a);
    auto rebuilt = format::hybToDense(hyb);
    ASSERT_EQ(dense.size(), rebuilt.size());
    for (size_t i = 0; i < dense.size(); ++i) {
        ASSERT_NEAR(dense[i], rebuilt[i], 1e-5) << "at " << i;
    }
}

TEST(Pipeline, SddmmMatchesReference)
{
    Csr a = randomCsr(41, 33, 0.12, 7);
    int64_t feat = 32;
    auto x_host = randomVector(a.rows * feat, 8);
    auto y_host = randomVector(feat * a.cols, 9);

    auto shared = std::make_shared<BindingSet>();
    auto kernel = core::compileSddmm(a, feat, shared);
    NDArray x = NDArray::fromFloat(x_host);
    NDArray y = NDArray::fromFloat(y_host);
    NDArray out({a.nnz()}, ir::DataType::float32());
    shared->external("X_data", &x);
    shared->external("Y_data", &y);
    shared->external("B_data", &out);
    kernel->execute();

    auto expected = core::referenceSddmm(a, x_host, y_host, feat);
    for (int64_t i = 0; i < out.numel(); ++i) {
        ASSERT_NEAR(expected[i], out.floatAt(i), 1e-3) << "at " << i;
    }
}

TEST(Pipeline, BsrSpmmMatchesReference)
{
    Csr a = randomCsr(48, 40, 0.1, 11);
    format::Bsr bsr = format::bsrFromCsr(a, 8);
    int64_t feat = 16;
    int64_t padded_cols = bsr.blockCols * bsr.blockSize;
    int64_t padded_rows = bsr.blockRows * bsr.blockSize;
    auto b_host = randomVector(padded_cols * feat, 12);

    auto shared = std::make_shared<BindingSet>();
    auto kernel = core::compileBsrSpmm(bsr, feat, shared, true);
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({padded_rows * feat}, ir::DataType::float32());
    shared->external("B_data", &b);
    shared->external("C_data", &c);
    kernel->execute();

    // Reference over the padded dense expansion.
    auto dense = format::bsrToDense(bsr);
    for (int64_t r = 0; r < a.rows; ++r) {
        for (int64_t k = 0; k < feat; ++k) {
            float expected = 0.0f;
            for (int64_t col = 0; col < a.cols; ++col) {
                expected +=
                    dense[r * a.cols + col] * b_host[col * feat + k];
            }
            ASSERT_NEAR(expected, c.floatAt(r * feat + k), 1e-3)
                << "at (" << r << "," << k << ")";
        }
    }
}

TEST(Pipeline, SrbcrsSpmmMatchesReference)
{
    Csr a = randomCsr(64, 48, 0.06, 13);
    format::SrBcrs sr = format::srbcrsFromCsr(a, 8, 4);
    int64_t feat = 8;
    auto b_host = randomVector(a.cols * feat, 14);

    auto shared = std::make_shared<BindingSet>();
    auto kernel = core::compileSrbcrsSpmm(sr, feat, shared);
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({sr.stripes * sr.tileHeight * feat},
              ir::DataType::float32());
    shared->external("B_data", &b);
    shared->external("C_data", &c);
    kernel->execute();

    auto expected = core::referenceSpmm(a, b_host, feat);
    for (int64_t r = 0; r < a.rows; ++r) {
        for (int64_t k = 0; k < feat; ++k) {
            ASSERT_NEAR(expected[r * feat + k],
                        c.floatAt(r * feat + k), 1e-3)
                << "at (" << r << "," << k << ")";
        }
    }
}

TEST(Pipeline, EllRgmsMatchesReference)
{
    // One relation: Y += A @ X @ W with A an ELL bucket.
    Csr a = randomCsr(30, 26, 0.2, 15);
    // Bucket: rows with length <= 8, padded.
    std::vector<int32_t> rows;
    for (int64_t r = 0; r < a.rows; ++r) {
        if (a.rowLength(r) > 0 && a.rowLength(r) <= 8) {
            rows.push_back(static_cast<int32_t>(r));
        }
    }
    ASSERT_FALSE(rows.empty());
    format::Ell bucket = format::ellFromCsrRows(a, rows, 8);

    // fout 3 and 48 pad the feature split past W's last column; the
    // shared-memory copy of W must stop at its edge.
    for (auto [fin, fout] : {std::pair<int64_t, int64_t>{16, 16},
                             {16, 3},
                             {5, 48}}) {
        auto x_host = randomVector(a.cols * fin, 16);
        auto w_host = randomVector(fin * fout, 17);

        auto shared = std::make_shared<BindingSet>();
        shared->scalar("m", a.rows);
        shared->scalar("n", a.cols);
        NDArray x = NDArray::fromFloat(x_host);
        NDArray w = NDArray::fromFloat(w_host);
        NDArray y({a.rows * fout}, ir::DataType::float32());
        shared->external("X_data", &x);
        shared->external("W_data", &w);
        shared->external("Y_data", &y);
        auto kernel = core::compileEllRgms(bucket, fin, fout, shared,
                                           "t0", true, 2);
        kernel->execute();

        // Reference: only bucket rows contribute.
        std::vector<float> expected(a.rows * fout, 0.0f);
        for (int32_t r : rows) {
            for (int32_t p = a.indptr[r]; p < a.indptr[r + 1]; ++p) {
                int64_t j = a.indices[p];
                float av = a.values[p];
                for (int64_t l = 0; l < fout; ++l) {
                    float acc = 0.0f;
                    for (int64_t k = 0; k < fin; ++k) {
                        acc += x_host[j * fin + k] *
                               w_host[k * fout + l];
                    }
                    expected[r * fout + l] += av * acc;
                }
            }
        }
        for (int64_t i = 0; i < y.numel(); ++i) {
            ASSERT_NEAR(expected[i], y.floatAt(i), 1e-2)
                << "fin " << fin << " fout " << fout << " at " << i;
        }
    }
}

TEST(Pipeline, FormatDecomposeBsrPlusEllCopies)
{
    // The paper's Figure 5 configuration: decompose CSR SpMM into
    // BSR(2) + ELL(2); the generated copy iterations must move values
    // (with padding zeros) into the new buffers.
    Csr a = randomCsr(8, 8, 0.3, 19);
    format::Bsr bsr = format::bsrFromCsr(a, 2);

    auto rule = core::bsrRule("0", a.rows, a.cols, 2, bsr.blockRows,
                              bsr.nnzBlocks());
    auto stage1 = core::buildSpmm();
    auto result = transform::decomposeFormat(stage1, {rule});
    EXPECT_EQ(result.copyIterNames.size(), 1u);
    EXPECT_EQ(result.computeIterNames.size(), 1u);

    auto [pre, compute] = transform::splitPreprocess(
        result.func, result.copyIterNames);
    auto pre3 = transform::lowerSparseBuffers(
        transform::lowerSparseIterations(pre));

    // Bind and run the copy kernel; the produced values must equal
    // the format library's BSR conversion.
    NDArray indptr = NDArray::fromInt32(a.indptr);
    NDArray indices = NDArray::fromInt32(a.indices);
    NDArray values = NDArray::fromFloat(a.values);
    NDArray bsr_indptr = NDArray::fromInt32(bsr.indptr);
    NDArray bsr_indices = NDArray::fromInt32(bsr.indices);
    NDArray bsr_values(
        {static_cast<int64_t>(bsr.values.size())},
        ir::DataType::float32());
    runtime::Bindings bindings;
    bindings.scalars = {{"m", a.rows},
                        {"n", a.cols},
                        {"nnz", a.nnz()},
                        {"feat_size", 4}};
    bindings.arrays = {{"J_indptr", &indptr},
                       {"J_indices", &indices},
                       {"A_data", &values},
                       {"IO0_indptr", &bsr_indptr},
                       {"JO0_indices", &bsr_indices},
                       {"A_bsr_0_data", &bsr_values}};
    runtime::run(pre3, bindings);

    for (size_t i = 0; i < bsr.values.size(); ++i) {
        ASSERT_NEAR(bsr.values[i], bsr_values.floatAt(i), 1e-5)
            << "at " << i;
    }
}

} // namespace
} // namespace sparsetir
