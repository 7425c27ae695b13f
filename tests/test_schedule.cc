/**
 * @file
 * Schedule primitive tests: every transformation must be
 * semantics-preserving (interpret before/after and compare) and must
 * enforce its preconditions.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/ops.h"
#include "core/pipeline.h"
#include "ir/printer.h"
#include "schedule/schedule.h"
#include "support/rng.h"
#include "transform/lower_sparse_buffer.h"
#include "transform/lower_sparse_iter.h"

namespace sparsetir {
namespace {

using runtime::Bindings;
using runtime::NDArray;

struct SpmmFixture
{
    format::Csr a;
    int64_t feat = 8;
    std::vector<float> bHost;

    SpmmFixture()
    {
        Rng rng(21);
        std::vector<float> dense(23 * 17, 0.0f);
        for (auto &v : dense) {
            if (rng.uniformReal() < 0.2) {
                v = static_cast<float>(rng.uniformReal() + 0.1);
            }
        }
        a = format::csrFromDense(23, 17, dense);
        bHost.resize(a.cols * feat);
        for (auto &v : bHost) {
            v = static_cast<float>(rng.uniformReal() - 0.5);
        }
    }

    /** Execute a scheduled stage II function and return C. */
    std::vector<float>
    run(const ir::PrimFunc &stage2)
    {
        ir::PrimFunc stage3 = transform::lowerSparseBuffers(stage2);
        NDArray indptr = NDArray::fromInt32(a.indptr);
        NDArray indices = NDArray::fromInt32(a.indices);
        NDArray values = NDArray::fromFloat(a.values);
        NDArray b = NDArray::fromFloat(bHost);
        NDArray c({a.rows * feat}, ir::DataType::float32());
        Bindings bindings;
        bindings.scalars = {{"m", a.rows},
                            {"n", a.cols},
                            {"nnz", a.nnz()},
                            {"feat_size", feat}};
        bindings.arrays = {{"J_indptr", &indptr},
                           {"J_indices", &indices},
                           {"A_data", &values},
                           {"B_data", &b},
                           {"C_data", &c}};
        runtime::run(stage3, bindings);
        std::vector<float> out;
        for (int64_t i = 0; i < c.numel(); ++i) {
            out.push_back(static_cast<float>(c.floatAt(i)));
        }
        return out;
    }
};

ir::PrimFunc
loweredSpmm()
{
    return transform::lowerSparseIterations(core::buildSpmm());
}

TEST(Schedule, SplitDivisibleAndTail)
{
    SpmmFixture fx;
    auto expected = fx.run(loweredSpmm());

    for (int64_t factor : {2, 3, 8}) {
        schedule::Schedule sch(loweredSpmm());
        auto loops = sch.getLoops("spmm");
        sch.split(loops[2], factor);  // feat = 8: tests tail + exact
        auto actual = fx.run(sch.func());
        ASSERT_EQ(expected.size(), actual.size());
        for (size_t i = 0; i < expected.size(); ++i) {
            ASSERT_NEAR(expected[i], actual[i], 1e-4)
                << "factor " << factor << " at " << i;
        }
    }
}

TEST(Schedule, SplitUpdatesReduceVars)
{
    SpmmFixture fx;
    auto expected = fx.run(loweredSpmm());
    schedule::Schedule sch(loweredSpmm());
    auto loops = sch.getLoops("spmm");
    // Splitting the reduction loop must keep init gating correct.
    sch.split(loops[1], 4);
    auto actual = fx.run(sch.func());
    for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_NEAR(expected[i], actual[i], 1e-4) << "at " << i;
    }
}

TEST(Schedule, ReorderPreservesSemantics)
{
    SpmmFixture fx;
    auto expected = fx.run(loweredSpmm());
    schedule::Schedule sch(loweredSpmm());
    auto loops = sch.getLoops("spmm");
    sch.reorder({loops[2], loops[1]});
    auto actual = fx.run(sch.func());
    for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_NEAR(expected[i], actual[i], 1e-4) << "at " << i;
    }
}

TEST(Schedule, FuseSpatialLoops)
{
    SpmmFixture fx;
    auto expected = fx.run(loweredSpmm());
    schedule::Schedule sch(loweredSpmm());
    auto loops = sch.getLoops("spmm");
    // i and the j-block cannot fuse (block boundary); fuse k after
    // splitting it instead.
    auto [k_o, k_i] = sch.split(loops[2], 4);
    std::string fused = sch.fuse(k_o, k_i);
    EXPECT_FALSE(fused.empty());
    auto actual = fx.run(sch.func());
    for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_NEAR(expected[i], actual[i], 1e-4) << "at " << i;
    }
}

TEST(Schedule, BindRejectsReductionLoop)
{
    schedule::Schedule sch(loweredSpmm());
    auto loops = sch.getLoops("spmm");
    EXPECT_THROW(sch.bind(loops[1], "threadIdx.x"), UserError);
}

TEST(Schedule, ReorderRejectsCrossBlock)
{
    schedule::Schedule sch(loweredSpmm());
    auto loops = sch.getLoops("spmm");
    // i is separated from j by the spmm_0 isolation block.
    EXPECT_THROW(sch.reorder({loops[1], loops[0]}), UserError);
}

TEST(Schedule, CacheWritePreservesSemantics)
{
    SpmmFixture fx;
    auto expected = fx.run(loweredSpmm());
    schedule::Schedule sch(loweredSpmm());
    auto loops = sch.getLoops("spmm");
    sch.reorder({loops[2], loops[1]});  // reduction innermost
    sch.cacheWrite("spmm", "C");
    auto actual = fx.run(sch.func());
    for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_NEAR(expected[i], actual[i], 1e-4) << "at " << i;
    }
}

TEST(Schedule, CacheWriteRequiresReductionInnermost)
{
    // k (spatial, extent feat_size) is inside j (reduction): with a
    // symbolic extent it cannot size an accumulator. Splitting k by 4
    // leaves k_o symbolic (ceil(feat_size / 4)), so that fails too.
    schedule::Schedule sch(loweredSpmm());
    EXPECT_THROW(sch.cacheWrite("spmm", "C"), UserError);
    schedule::Schedule split(loweredSpmm());
    split.split(split.getLoops("spmm")[2], 4);
    EXPECT_THROW(split.cacheWrite("spmm", "C"), UserError);
}

TEST(Schedule, CacheWriteOverInnerSpatialLoopIsBitwiseEqual)
{
    // Constant feat: k inside j gets a feat-wide accumulator and a
    // write-back loop; each element sums in the same order as the
    // 1-element accumulator of the lane-outer schedule.
    SpmmFixture fx;
    ir::PrimFunc stage2 =
        transform::lowerSparseIterations(core::buildSpmm(fx.feat));
    schedule::Schedule lane_outer(stage2);
    auto loops = lane_outer.getLoops("spmm");
    lane_outer.reorder({loops[2], loops[1]});
    lane_outer.cacheWrite("spmm", "C");
    schedule::Schedule lane_inner(stage2);
    lane_inner.cacheWrite("spmm", "C");
    EXPECT_NE(ir::funcToString(lane_inner.func())
                  .find("alloc([8], \"float32\", \"local\")"),
              std::string::npos)
        << ir::funcToString(lane_inner.func());
    auto expected = fx.run(lane_outer.func());
    auto actual = fx.run(lane_inner.func());
    ASSERT_EQ(expected.size(), actual.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(expected[i], actual[i]) << "at " << i;
    }
}

TEST(Schedule, RfactorPreservesSemantics)
{
    // SDDMM with fused ij: rfactor the lane dimension of the
    // reduction (the PRedS two-stage pattern).
    format::Csr a;
    {
        Rng rng(31);
        std::vector<float> dense(19 * 21, 0.0f);
        for (auto &v : dense) {
            if (rng.uniformReal() < 0.25) {
                v = static_cast<float>(rng.uniformReal() + 0.1);
            }
        }
        a = format::csrFromDense(19, 21, dense);
    }
    int64_t feat = 16;
    Rng rng(32);
    std::vector<float> x_host(a.rows * feat);
    std::vector<float> y_host(feat * a.cols);
    for (auto &v : x_host) {
        v = static_cast<float>(rng.uniformReal() - 0.5);
    }
    for (auto &v : y_host) {
        v = static_cast<float>(rng.uniformReal() - 0.5);
    }

    auto run_schedule = [&](bool use_rfactor) {
        ir::PrimFunc stage2 = transform::lowerSparseIterations(
            core::buildSddmm(true));
        schedule::Schedule sch(stage2);
        auto loops = sch.getLoops("sddmm");  // ij, k
        if (use_rfactor) {
            auto [k_o, k_i] = sch.split(loops[1], 4);
            sch.reorder({k_i, k_o});
            sch.rfactor("sddmm", k_i);
            sch.bind(k_i, "threadIdx.x");
        }
        ir::PrimFunc stage3 =
            transform::lowerSparseBuffers(sch.func());
        NDArray indptr = NDArray::fromInt32(a.indptr);
        NDArray indices = NDArray::fromInt32(a.indices);
        NDArray values = NDArray::fromFloat(a.values);
        NDArray x = NDArray::fromFloat(x_host);
        NDArray y = NDArray::fromFloat(y_host);
        NDArray out({a.nnz()}, ir::DataType::float32());
        Bindings bindings;
        bindings.scalars = {{"m", a.rows},
                            {"n", a.cols},
                            {"nnz", a.nnz()},
                            {"feat_size", feat}};
        bindings.arrays = {{"J_indptr", &indptr},
                           {"J_indices", &indices},
                           {"A_data", &values},
                           {"X_data", &x},
                           {"Y_data", &y},
                           {"B_data", &out}};
        runtime::run(stage3, bindings);
        std::vector<float> result;
        for (int64_t i = 0; i < out.numel(); ++i) {
            result.push_back(static_cast<float>(out.floatAt(i)));
        }
        return result;
    };

    auto plain = run_schedule(false);
    auto factored = run_schedule(true);
    ASSERT_EQ(plain.size(), factored.size());
    for (size_t i = 0; i < plain.size(); ++i) {
        // rfactor changes reduction order: tolerate FP reassociation.
        ASSERT_NEAR(plain[i], factored[i], 1e-3) << "at " << i;
    }
}

TEST(Schedule, TensorizeIsFunctionalNoop)
{
    SpmmFixture fx;
    auto expected = fx.run(loweredSpmm());
    schedule::Schedule sch(loweredSpmm());
    sch.tensorize("spmm", "m16n16k16");
    auto actual = fx.run(sch.func());
    for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_NEAR(expected[i], actual[i], 1e-4) << "at " << i;
    }
}

TEST(Schedule, VectorizeUnrollPreserveSemantics)
{
    SpmmFixture fx;
    auto expected = fx.run(loweredSpmm());
    schedule::Schedule sch(loweredSpmm());
    auto loops = sch.getLoops("spmm");
    auto [k_o, k_i] = sch.split(loops[2], 4);
    sch.vectorize(k_i);
    sch.unroll(k_o);
    auto actual = fx.run(sch.func());
    for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_NEAR(expected[i], actual[i], 1e-4) << "at " << i;
    }
}

} // namespace
} // namespace sparsetir
