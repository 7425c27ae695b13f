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

/**
 * y[i*3 + k] = 1.5 + sum_j a[i*4 + j] * x[j*3 + k] as a Stage II
 * reduction block over i in 0..5 (spatial), j in 0..4 (reduction)
 * and k in 0..3 (spatial, inside j). The init is not 0, so running it
 * once per (i, k) before the updates is observable.
 */
struct PeelFixture
{
    ir::Buffer a = ir::denseBuffer("a", {ir::intImm(20)},
                                   ir::DataType::float32());
    ir::Buffer x = ir::denseBuffer("x", {ir::intImm(12)},
                                   ir::DataType::float32());
    ir::Buffer y = ir::denseBuffer("y", {ir::intImm(15)},
                                   ir::DataType::float32());

    ir::PrimFunc
    func(bool with_init = true) const
    {
        ir::Var i = ir::var("i");
        ir::Var j = ir::var("j");
        ir::Var k = ir::var("k");
        ir::Expr out = ir::add(ir::mul(i, ir::intImm(3)), k);
        auto update = std::make_shared<ir::BlockNode>(
            "mv",
            ir::bufferStore(
                y, {out},
                ir::add(ir::bufferLoad(y, {out}),
                        ir::mul(ir::bufferLoad(
                                    a, {ir::add(ir::mul(i, ir::intImm(4)),
                                                j)}),
                                ir::bufferLoad(
                                    x, {ir::add(ir::mul(j, ir::intImm(3)),
                                                k)})))));
        if (with_init) {
            update->init = ir::bufferStore(y, {out}, ir::floatImm(1.5));
        }
        update->reduceVars = {j};
        ir::PrimFunc f = ir::primFunc("peel");
        f->params = {a->data, x->data, y->data};
        f->bufferMap = {{a->data, a}, {x->data, x}, {y->data, y}};
        f->body = ir::forLoop(
            i, ir::intImm(0), ir::intImm(5),
            ir::forLoop(j, ir::intImm(0), ir::intImm(4),
                        ir::forLoop(k, ir::intImm(0), ir::intImm(3),
                                    update)));
        f->stage = ir::IrStage::kStage2;
        return f;
    }

    std::vector<float>
    run(const ir::PrimFunc &f) const
    {
        Rng rng(5);
        std::vector<float> as(20);
        std::vector<float> xs(12);
        for (auto &v : as) {
            v = static_cast<float>(rng.uniformReal() - 0.5);
        }
        for (auto &v : xs) {
            v = static_cast<float>(rng.uniformReal() - 0.5);
        }
        NDArray an = NDArray::fromFloat(as);
        NDArray xn = NDArray::fromFloat(xs);
        NDArray yn({15}, ir::DataType::float32());
        Bindings bindings;
        bindings.arrays = {{"a_data", &an}, {"x_data", &xn},
                           {"y_data", &yn}};
        runtime::runInterpreted(f, bindings);
        std::vector<float> out;
        for (int64_t e = 0; e < yn.numel(); ++e) {
            out.push_back(static_cast<float>(yn.floatAt(e)));
        }
        return out;
    }
};

TEST(Schedule, DecomposeReductionPeelsInitBitwise)
{
    PeelFixture fx;
    ir::PrimFunc f = fx.func();
    schedule::Schedule sch(f);
    sch.decomposeReduction("mv", "j");
    std::string text = ir::funcToString(sch.func());
    // The init runs in its own k_init loop before j; the block keeps
    // only its update.
    size_t init_at = text.find("for k_init in range(3)");
    EXPECT_NE(init_at, std::string::npos) << text;
    EXPECT_LT(init_at, text.find("for j in range(4)")) << text;
    EXPECT_EQ(text.find("init()"), std::string::npos) << text;
    EXPECT_EQ(fx.run(f), fx.run(sch.func()));
}

TEST(Schedule, DecomposeReductionChecksPreconditions)
{
    PeelFixture fx;
    // Not a reduction loop of the block.
    schedule::Schedule spatial(fx.func());
    EXPECT_THROW(spatial.decomposeReduction("mv", "k"), UserError);
    EXPECT_THROW(spatial.decomposeReduction("mv", "i"), UserError);
    // Nothing to peel.
    schedule::Schedule no_init(fx.func(false));
    EXPECT_THROW(no_init.decomposeReduction("mv", "j"), UserError);
    // A reduction loop whose trip count may be zero: the init would
    // run where it never ran before.
    ir::PrimFunc csr =
        transform::lowerSparseIterations(core::buildSpmm(8));
    schedule::Schedule variable(csr);
    auto loops = variable.getLoops("spmm");
    EXPECT_THROW(variable.decomposeReduction("spmm", loops[1]),
                 UserError);
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
