/**
 * @file
 * Integration tests of the lowering pipeline: Stage I construction,
 * sparse iteration lowering, sparse buffer lowering and functional
 * execution, validated against dense references.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "format/csr.h"
#include "format/hyb.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "ir/structural_equal.h"
#include "runtime/interpreter.h"
#include "support/rng.h"
#include "transform/hoist_invariants.h"
#include "transform/lower_sparse_buffer.h"
#include "transform/lower_sparse_iter.h"
#include "transform/stage1_schedule.h"

namespace sparsetir {
namespace {

using namespace ir;
using runtime::Bindings;
using runtime::NDArray;

/** Build the paper's Figure 3 SpMM Stage I program. */
PrimFunc
buildSpmm()
{
    SparseTirBuilder b("spmm");
    Var m = b.scalarParam("m");
    Var n = b.scalarParam("n");
    Var nnz = b.scalarParam("nnz");
    Var feat = b.scalarParam("feat_size");
    Axis i_axis = b.addDenseFixed("I", m);
    Axis j_axis = b.addSparseVariable("J", i_axis, n, nnz);
    Axis jd_axis = b.addDenseFixed("J_", n);
    Axis k_axis = b.addDenseFixed("K", feat);
    Buffer a = b.addSparseBuffer("A", {i_axis, j_axis});
    Buffer x = b.addSparseBuffer("B", {jd_axis, k_axis});
    Buffer c = b.addSparseBuffer("C", {i_axis, k_axis});
    b.spIter(
        {i_axis, j_axis, k_axis}, "SRS", "spmm",
        [&](const std::vector<Var> &v) {
            Expr update =
                add(bufferLoad(c, {v[0], v[2]}),
                    mul(bufferLoad(a, {v[0], v[1]}),
                        bufferLoad(x, {v[1], v[2]})));
            return bufferStore(c, {v[0], v[2]}, update);
        },
        [&](const std::vector<Var> &v) {
            return bufferStore(c, {v[0], v[2]}, floatImm(0.0f));
        });
    return b.finish();
}

/** Small CSR fixture: 4x5 matrix with 7 non-zeros. */
struct CsrFixture
{
    std::vector<int32_t> indptr = {0, 2, 3, 3, 7};
    std::vector<int32_t> indices = {1, 3, 0, 0, 2, 3, 4};
    std::vector<float> values = {1.f, 2.f, 3.f, 4.f, 5.f, 6.f, 7.f};
    int m = 4;
    int n = 5;
};

TEST(LowerSparseIter, SpmmStructure)
{
    PrimFunc func = buildSpmm();
    EXPECT_EQ(func->stage, IrStage::kStage1);

    PrimFunc stage2 = transform::lowerSparseIterations(func);
    EXPECT_EQ(stage2->stage, IrStage::kStage2);
    std::string text = funcToString(stage2);
    // One loop per axis.
    EXPECT_NE(text.find("for i in range"), std::string::npos) << text;
    EXPECT_NE(text.find("for j in range"), std::string::npos) << text;
    EXPECT_NE(text.find("for k in range"), std::string::npos) << text;
    // B access translated into coordinate lookup (Figure 9).
    EXPECT_NE(text.find("B[J_indices["), std::string::npos) << text;
    // Data-dependent j loop is isolated behind a block.
    EXPECT_NE(text.find("block(\"spmm_0\")"), std::string::npos) << text;
    EXPECT_NE(text.find("block(\"spmm\")"), std::string::npos) << text;
}

TEST(LowerSparseBuffer, SpmmFlattening)
{
    PrimFunc stage2 = transform::lowerSparseIterations(buildSpmm());
    PrimFunc stage3 = transform::lowerSparseBuffers(stage2);
    EXPECT_EQ(stage3->stage, IrStage::kStage3);
    std::string text = funcToString(stage3);
    // A flattened through indptr (Figure 10).
    EXPECT_NE(text.find("A[(J_indptr[i] + j)]"), std::string::npos)
        << text;
    // C flattened to i * feat + k.
    EXPECT_NE(text.find("C[((i * feat_size) + k)]"), std::string::npos)
        << text;
}

TEST(Interpreter, SpmmMatchesDenseReference)
{
    CsrFixture fx;
    int feat = 3;
    PrimFunc stage3 = transform::lowerSparseBuffers(
        transform::lowerSparseIterations(buildSpmm()));

    NDArray indptr = NDArray::fromInt32(fx.indptr);
    NDArray indices = NDArray::fromInt32(fx.indices);
    NDArray a = NDArray::fromFloat(fx.values);
    std::vector<float> b_host(fx.n * feat);
    for (size_t i = 0; i < b_host.size(); ++i) {
        b_host[i] = 0.5f * static_cast<float>(i) - 2.0f;
    }
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({static_cast<int64_t>(fx.m * feat)}, DataType::float32());

    Bindings bindings;
    bindings.scalars = {{"m", fx.m},
                        {"n", fx.n},
                        {"nnz", static_cast<int64_t>(fx.values.size())},
                        {"feat_size", feat}};
    bindings.arrays = {{"J_indptr", &indptr},
                       {"J_indices", &indices},
                       {"A_data", &a},
                       {"B_data", &b},
                       {"C_data", &c}};
    runtime::run(stage3, bindings);

    // Dense reference.
    for (int i = 0; i < fx.m; ++i) {
        for (int k = 0; k < feat; ++k) {
            float expected = 0.0f;
            for (int p = fx.indptr[i]; p < fx.indptr[i + 1]; ++p) {
                expected +=
                    fx.values[p] * b_host[fx.indices[p] * feat + k];
            }
            EXPECT_FLOAT_EQ(expected, c.floatAt(i * feat + k))
                << "mismatch at (" << i << ", " << k << ")";
        }
    }
}

TEST(Interpreter, EmptyRowsLeaveZero)
{
    CsrFixture fx;  // row 2 is empty
    int feat = 2;
    PrimFunc stage3 = transform::lowerSparseBuffers(
        transform::lowerSparseIterations(buildSpmm()));
    NDArray indptr = NDArray::fromInt32(fx.indptr);
    NDArray indices = NDArray::fromInt32(fx.indices);
    NDArray a = NDArray::fromFloat(fx.values);
    NDArray b({static_cast<int64_t>(fx.n * feat)}, DataType::float32());
    for (int64_t i = 0; i < b.numel(); ++i) {
        b.setFloat(i, 1.0);
    }
    NDArray c({static_cast<int64_t>(fx.m * feat)}, DataType::float32());
    Bindings bindings;
    bindings.scalars = {{"m", fx.m},
                        {"n", fx.n},
                        {"nnz", 7},
                        {"feat_size", feat}};
    bindings.arrays = {{"J_indptr", &indptr},
                       {"J_indices", &indices},
                       {"A_data", &a},
                       {"B_data", &b},
                       {"C_data", &c}};
    runtime::run(stage3, bindings);
    EXPECT_FLOAT_EQ(c.floatAt(2 * feat + 0), 0.0f);
    EXPECT_FLOAT_EQ(c.floatAt(2 * feat + 1), 0.0f);
    EXPECT_FLOAT_EQ(c.floatAt(0 * feat + 0), 3.0f);  // 1 + 2
}

/** SDDMM with fused (I, J) iteration (paper Figures 6/8). */
PrimFunc
buildSddmm(bool fuse)
{
    SparseTirBuilder b("sddmm");
    Var m = b.scalarParam("m");
    Var n = b.scalarParam("n");
    Var nnz = b.scalarParam("nnz");
    Var feat = b.scalarParam("feat_size");
    Axis i_axis = b.addDenseFixed("I", m);
    Axis j_axis = b.addSparseVariable("J", i_axis, n, nnz);
    Axis id_axis = b.addDenseFixed("I_", m);
    Axis jd_axis = b.addDenseFixed("J_", n);
    Axis k_axis = b.addDenseFixed("K", feat);
    Buffer a = b.addSparseBuffer("A", {i_axis, j_axis});
    Buffer x = b.addSparseBuffer("X", {id_axis, k_axis});
    Buffer y = b.addSparseBuffer("Y", {k_axis, jd_axis});
    Buffer out = b.addSparseBuffer("B", {i_axis, j_axis});
    b.spIter(
        {i_axis, j_axis, k_axis}, "SSR", "sddmm",
        [&](const std::vector<Var> &v) {
            Expr update = add(
                bufferLoad(out, {v[0], v[1]}),
                mul(mul(bufferLoad(a, {v[0], v[1]}),
                        bufferLoad(x, {v[0], v[2]})),
                    bufferLoad(y, {v[2], v[1]})));
            return bufferStore(out, {v[0], v[1]}, update);
        },
        [&](const std::vector<Var> &v) {
            return bufferStore(out, {v[0], v[1]}, floatImm(0.0f));
        });
    PrimFunc func = b.finish();
    if (fuse) {
        func = transform::sparseFuse(func, "sddmm", {"I", "J"});
    }
    return func;
}

TEST(LowerSparseIter, SddmmFusedEmitsSingleSpatialLoop)
{
    PrimFunc fused = buildSddmm(true);
    PrimFunc stage2 = transform::lowerSparseIterations(fused);
    std::string text = funcToString(stage2);
    // Single fused loop over nnz plus the reduction loop.
    EXPECT_NE(text.find("for ij in range(nnz)"), std::string::npos)
        << text;
    // Row recovered by binary search over indptr.
    EXPECT_NE(text.find("upper_bound(J_indptr"), std::string::npos)
        << text;
}

/** Buffer names of a function's buffer map, in order. */
std::vector<std::string>
bufferMapNames(const PrimFunc &func)
{
    std::vector<std::string> names;
    for (const auto &[param, buffer] : func->bufferMap) {
        names.push_back(buffer->name);
    }
    return names;
}

/** Heap traffic between two builds: live blocks of mixed sizes. */
std::vector<std::unique_ptr<char[]>>
churnHeap()
{
    std::vector<std::unique_ptr<char[]>> blocks;
    for (int i = 0; i < 97; ++i) {
        blocks.emplace_back(new char[static_cast<size_t>(24 * (i % 11 + 1))]);
    }
    return blocks;
}

TEST(LowerSparseIter, AuxBuffersRegisterInMaterializationOrder)
{
    // Two builds of one program, with allocations in between, lower
    // to the same buffer map order and the same IR: aux buffers are
    // registered in materialization order, not by axis address.
    std::vector<std::string> csr_names;
    std::string csr_text;
    for (int round = 0; round < 2; ++round) {
        auto churn = churnHeap();
        PrimFunc stage2 = transform::lowerSparseIterations(buildSpmm());
        if (round == 0) {
            csr_names = bufferMapNames(stage2);
            csr_text = funcToString(stage2);
        } else {
            EXPECT_EQ(bufferMapNames(stage2), csr_names);
            EXPECT_EQ(funcToString(stage2), csr_text);
        }
    }

    // Row i holds i % 9 non-zeros: several ELL buckets per partition,
    // each adding a row-index and a column-index axis.
    const int64_t n = 48;
    std::vector<float> dense(n * n, 0.0f);
    for (int64_t i = 0; i < n; ++i) {
        for (int64_t t = 0; t < i % 9; ++t) {
            dense[i * n + (i + 5 * t) % n] = 1.0f;
        }
    }
    format::Hyb hyb = format::hybFromCsr(format::csrFromDense(n, n, dense),
                                         2, 3);
    for (core::ScheduleTarget target :
         {core::ScheduleTarget::kHost, core::ScheduleTarget::kGpu}) {
        std::vector<std::vector<std::string>> names;
        std::vector<std::string> texts;
        for (int round = 0; round < 2; ++round) {
            auto churn = churnHeap();
            std::vector<core::HybKernelPlan> plans =
                core::compileSpmmHybFuncs(hyb, 8, target);
            ASSERT_GT(plans.size(), 2u);
            for (size_t k = 0; k < plans.size(); ++k) {
                if (round == 0) {
                    names.push_back(bufferMapNames(plans[k].func));
                    texts.push_back(funcToString(plans[k].func));
                    continue;
                }
                EXPECT_EQ(bufferMapNames(plans[k].func), names[k]);
                EXPECT_EQ(funcToString(plans[k].func), texts[k]);
            }
            // The aux buffers close the map: the CSR axis's, then each
            // bucket's row axis before its column axis, in rule order.
            std::vector<std::string> aux = {"J_indptr", "J_indices"};
            for (const core::HybKernelPlan &plan : plans) {
                aux.push_back("I" + plan.suffix + "_indices");
                aux.push_back("J" + plan.suffix + "_indices");
            }
            std::vector<std::string> tail = bufferMapNames(plans[0].func);
            ASSERT_GE(tail.size(), aux.size());
            tail.erase(tail.begin(),
                       tail.end() - static_cast<std::ptrdiff_t>(aux.size()));
            EXPECT_EQ(tail, aux);
        }
    }
}

TEST(Interpreter, SddmmFusedMatchesUnfused)
{
    CsrFixture fx;
    int feat = 4;
    Rng rng(7);

    auto run_variant = [&](bool fuse) {
        PrimFunc stage3 = transform::lowerSparseBuffers(
            transform::lowerSparseIterations(buildSddmm(fuse)));
        NDArray indptr = NDArray::fromInt32(fx.indptr);
        NDArray indices = NDArray::fromInt32(fx.indices);
        NDArray a = NDArray::fromFloat(fx.values);
        std::vector<float> x_host(fx.m * feat);
        std::vector<float> y_host(feat * fx.n);
        Rng local(11);
        for (auto &v : x_host) {
            v = static_cast<float>(local.uniformReal());
        }
        for (auto &v : y_host) {
            v = static_cast<float>(local.uniformReal());
        }
        NDArray x = NDArray::fromFloat(x_host);
        NDArray y = NDArray::fromFloat(y_host);
        NDArray out({static_cast<int64_t>(fx.values.size())},
                    DataType::float32());
        Bindings bindings;
        bindings.scalars = {{"m", fx.m},
                            {"n", fx.n},
                            {"nnz", 7},
                            {"feat_size", feat}};
        bindings.arrays = {{"J_indptr", &indptr},
                           {"J_indices", &indices},
                           {"A_data", &a},
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

    auto unfused = run_variant(false);
    auto fused = run_variant(true);
    ASSERT_EQ(unfused.size(), fused.size());
    for (size_t i = 0; i < unfused.size(); ++i) {
        EXPECT_NEAR(unfused[i], fused[i], 1e-5) << "position " << i;
    }
    // Spot check against manual SDDMM value at nnz 0: (0, 1).
    // Computed within run_variant's fixed data; just assert non-zero.
    EXPECT_NE(fused[0], 0.0f);
}

// ---------------------------------------------------------------------
// Loop-invariant hoisting
// ---------------------------------------------------------------------

/**
 * f(x: float[4], y: float[8], n: int32) with the given body over x,
 * y and n; run() binds n = 2.
 */
struct HoistFixture
{
    Buffer x = denseBuffer("x", {intImm(4)}, DataType::float32());
    Buffer y = denseBuffer("y", {intImm(8)}, DataType::float32());
    Var n = var("n");

    PrimFunc
    func(Stmt body) const
    {
        PrimFunc f = primFunc("hoist");
        f->params = {x->data, y->data, n};
        f->bufferMap = {{x->data, x}, {y->data, y}};
        f->body = std::move(body);
        f->stage = IrStage::kStage3;
        return f;
    }

    /** y after running `f` from fixed inputs. */
    std::vector<float>
    run(const PrimFunc &f) const
    {
        NDArray xs = NDArray::fromFloat({0.5f, -1.25f, 2.f, 3.5f});
        NDArray ys({8}, DataType::float32());
        for (int64_t k = 0; k < 8; ++k) {
            ys.setFloat(k, 0.1f * static_cast<float>(k));
        }
        Bindings bindings;
        bindings.arrays = {{"x_data", &xs}, {"y_data", &ys}};
        bindings.scalars = {{"n", 2}};
        runtime::run(f, bindings);
        std::vector<float> out;
        for (int64_t k = 0; k < 8; ++k) {
            out.push_back(static_cast<float>(ys.floatAt(k)));
        }
        return out;
    }

    /** True when the pass left `f` unchanged. */
    static bool
    untouched(const PrimFunc &f)
    {
        return structuralEqual(f->body,
                               transform::hoistInvariants(f)->body);
    }

    /** The LetStmt `s` must be, with its bound value. */
    static const LetStmtNode *
    asLet(const Stmt &s)
    {
        EXPECT_EQ(s->kind, StmtKind::kLetStmt);
        return s->kind == StmtKind::kLetStmt
                   ? static_cast<const LetStmtNode *>(s.get())
                   : nullptr;
    }
};

TEST(HoistInvariants, HoistsInvariantLoadOutOfConstantLoop)
{
    // for i in 0..4: for k in 0..8: y[k] = y[k] + x[i]
    HoistFixture fx;
    Var i = var("i");
    Var k = var("k");
    Stmt update = bufferStore(
        fx.y, {k}, add(bufferLoad(fx.y, {k}), bufferLoad(fx.x, {i})));
    PrimFunc f = fx.func(forLoop(
        i, intImm(0), intImm(4), forLoop(k, intImm(0), intImm(8), update)));
    PrimFunc hoisted = transform::hoistInvariants(f);
    // x[i] is bound once per i, before the k loop; y stays in place.
    auto outer = std::static_pointer_cast<const ForNode>(hoisted->body);
    ASSERT_EQ(outer->body->kind, StmtKind::kLetStmt)
        << funcToString(hoisted);
    auto let = std::static_pointer_cast<const LetStmtNode>(outer->body);
    EXPECT_TRUE(structuralEqual(let->value, bufferLoad(fx.x, {i})));
    EXPECT_EQ(fx.run(f), fx.run(hoisted));
}

TEST(HoistInvariants, KeepsLoadOfWrittenBuffer)
{
    // for k: x[0] = x[0] + y[k] — x[0] changes every iteration.
    HoistFixture fx;
    Var k = var("k");
    PrimFunc f = fx.func(forLoop(
        k, intImm(0), intImm(8),
        bufferStore(fx.x, {intImm(0)},
                    add(bufferLoad(fx.x, {intImm(0)}),
                        bufferLoad(fx.y, {k})))));
    EXPECT_TRUE(HoistFixture::untouched(f));
}

TEST(HoistInvariants, KeepsLoadUnderIf)
{
    // for k: if k < 4: y[k] = x[0] — the guard may never pass.
    HoistFixture fx;
    Var k = var("k");
    PrimFunc f = fx.func(forLoop(
        k, intImm(0), intImm(8),
        ifThenElse(lt(k, intImm(4)),
                   bufferStore(fx.y, {k}, bufferLoad(fx.x, {intImm(0)})))));
    EXPECT_TRUE(HoistFixture::untouched(f));
}

TEST(HoistInvariants, KeepsLoadInZeroTripLoop)
{
    // for k in 0..0: y[0] = x[3] — never runs, so never loads; and
    // an 8-trip loop around a zero-trip one must not hoist through it.
    HoistFixture fx;
    Var k = var("k");
    Var z = var("z");
    Stmt store = bufferStore(fx.y, {intImm(0)},
                             bufferLoad(fx.x, {intImm(3)}));
    EXPECT_TRUE(HoistFixture::untouched(
        fx.func(forLoop(k, intImm(0), intImm(0), store))));
    EXPECT_TRUE(HoistFixture::untouched(fx.func(forLoop(
        k, intImm(0), intImm(8),
        forLoop(z, intImm(0), intImm(0), store)))));
}

TEST(HoistInvariants, HoistsArithmeticOutOfSymbolicLoop)
{
    // for i in 0..2: for k in 0..n: y[i*n + k] = y[i*n + k] + x[i]
    // i*n leaves the k loop although its trip count is unknown; x[i]
    // stays, since the k loop may run zero times.
    HoistFixture fx;
    Var i = var("i");
    Var k = var("k");
    Expr row = mul(i, fx.n);
    Stmt update = bufferStore(fx.y, {add(row, k)},
                              add(bufferLoad(fx.y, {add(row, k)}),
                                  bufferLoad(fx.x, {i})));
    PrimFunc f = fx.func(
        forLoop(i, intImm(0), intImm(2), forLoop(k, intImm(0), fx.n, update)));
    PrimFunc hoisted = transform::hoistInvariants(f);
    auto outer = std::static_pointer_cast<const ForNode>(hoisted->body);
    const LetStmtNode *let = HoistFixture::asLet(outer->body);
    ASSERT_NE(let, nullptr) << funcToString(hoisted);
    EXPECT_TRUE(structuralEqual(let->value, row));
    ASSERT_EQ(let->body->kind, StmtKind::kFor) << funcToString(hoisted);
    EXPECT_EQ(fx.run(f), fx.run(hoisted));
}

TEST(HoistInvariants, HoistsArithmeticUnderIfArm)
{
    // for k in 0..8: if k < 2: y[n*2 + k] = x[k] — arithmetic reads no
    // memory and cannot fault, so it leaves even a guarded arm.
    HoistFixture fx;
    Var k = var("k");
    Expr base = mul(fx.n, intImm(2));
    PrimFunc f = fx.func(forLoop(
        k, intImm(0), intImm(8),
        ifThenElse(lt(k, intImm(2)),
                   bufferStore(fx.y, {add(base, k)},
                               bufferLoad(fx.x, {k})))));
    PrimFunc hoisted = transform::hoistInvariants(f);
    const LetStmtNode *let = HoistFixture::asLet(hoisted->body);
    ASSERT_NE(let, nullptr) << funcToString(hoisted);
    EXPECT_TRUE(structuralEqual(let->value, base));
    EXPECT_EQ(fx.run(f), fx.run(hoisted));
}

TEST(HoistInvariants, KeepsDivisionByVariableOrZero)
{
    // floordiv/floormod by n could fault on n == 0, and by 0 always
    // does (the guard keeps this one from running).
    HoistFixture fx;
    Var k = var("k");
    auto store = [&](Expr index) {
        return forLoop(
            k, intImm(0), intImm(8),
            ifThenElse(gt(k, intImm(100)),
                       bufferStore(fx.y, {index}, floatImm(1.0))));
    };
    for (Expr index :
         {floorDiv(intImm(6), fx.n), floorMod(intImm(6), fx.n),
          floorDiv(fx.n, intImm(0)), floorMod(fx.n, intImm(0))}) {
        PrimFunc f = fx.func(store(index));
        EXPECT_TRUE(HoistFixture::untouched(f)) << funcToString(f);
        EXPECT_EQ(fx.run(f), fx.run(transform::hoistInvariants(f)));
    }
}

TEST(HoistInvariants, KeepsArithmeticOverInnerVariables)
{
    // for k in 0..4: let t = k * 2 in y[t + 1] = x[k] — both k * 2 and
    // t + 1 use a variable bound inside the loop.
    HoistFixture fx;
    Var k = var("k");
    Var t = var("t");
    PrimFunc f = fx.func(forLoop(
        k, intImm(0), intImm(4),
        letStmt(t, mul(k, intImm(2)),
                bufferStore(fx.y, {add(t, intImm(1))},
                            bufferLoad(fx.x, {k})))));
    EXPECT_TRUE(HoistFixture::untouched(f)) << funcToString(f);
}

TEST(HoistInvariants, DropsFloorDivModRecomposition)
{
    // floordiv(x, c) * c + floormod(x, c) is x for every x: the pass
    // rewrites it in any operand order, and x = k - 5 takes negative
    // values, where floor and truncating division differ.
    HoistFixture fx;
    Var k = var("k");
    Expr x = sub(k, intImm(5));
    Expr c = intImm(3);
    for (Expr form :
         {add(mul(floorDiv(x, c), c), floorMod(x, c)),
          add(floorMod(x, c), mul(c, floorDiv(x, c)))}) {
        PrimFunc f = fx.func(forLoop(
            k, intImm(0), intImm(8),
            bufferStore(fx.y, {k}, cast(DataType::float32(), form))));
        PrimFunc hoisted = transform::hoistInvariants(f);
        std::string text = funcToString(hoisted);
        EXPECT_EQ(text.find("//"), std::string::npos) << text;
        EXPECT_EQ(text.find("%"), std::string::npos) << text;
        std::vector<float> expected;
        for (int64_t v = 0; v < 8; ++v) {
            expected.push_back(static_cast<float>(v - 5));
        }
        EXPECT_EQ(fx.run(f), expected);
        EXPECT_EQ(fx.run(hoisted), expected);
    }
    // A variable divisor, mismatched constants or a different x stay.
    Expr d = intImm(4);
    for (Expr form :
         {add(mul(floorDiv(x, fx.n), fx.n), floorMod(x, fx.n)),
          add(mul(floorDiv(x, c), d), floorMod(x, c)),
          add(mul(floorDiv(x, c), c), floorMod(k, c))}) {
        PrimFunc f = fx.func(forLoop(
            k, intImm(0), intImm(8),
            bufferStore(fx.y, {k}, cast(DataType::float32(), form))));
        EXPECT_TRUE(HoistFixture::untouched(f)) << funcToString(f);
    }
}

TEST(HoistInvariants, SecondApplicationChangesNothing)
{
    // Invariants at two depths, loads and arithmetic mixed: everything
    // lands before the outermost loop it may leave in one application.
    HoistFixture fx;
    Var i = var("i");
    Var k = var("k");
    Expr base = mul(fx.n, intImm(2));
    Stmt update = bufferStore(
        fx.y, {add(mul(i, intImm(2)), k)},
        add(bufferLoad(fx.x, {floorMod(base, intImm(4))}),
            bufferLoad(fx.x, {add(i, k)})));
    PrimFunc f = fx.func(forLoop(
        i, intImm(0), intImm(2),
        forLoop(k, intImm(0), intImm(2),
                ifThenElse(lt(k, add(base, intImm(-2))), update))));
    PrimFunc once = transform::hoistInvariants(f);
    EXPECT_FALSE(structuralEqual(f->body, once->body));
    PrimFunc twice = transform::hoistInvariants(once);
    EXPECT_TRUE(structuralEqual(once->body, twice->body))
        << funcToString(once) << "\n" << funcToString(twice);
    EXPECT_EQ(fx.run(f), fx.run(once));
}

} // namespace
} // namespace sparsetir
