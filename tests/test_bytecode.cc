/**
 * @file
 * Bytecode backend tests: a differential suite asserting bitwise
 * equality between the BytecodeVM and the tree-walking interpreter
 * (the reference oracle) across every kernel family the engine
 * serves — spmmCsr, spmmHyb (including split-row buckets), sddmm and
 * rgcn — plus block-window execution, program structure, the
 * Stage III executability hook, touched-row span derivation and the
 * engine-level backend selector.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/ops.h"
#include "core/pipeline.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "format/hyb.h"
#include "graph/generator.h"
#include "ir/stmt.h"
#include "runtime/bytecode/compiler.h"
#include "runtime/bytecode/vm.h"
#include "runtime/interpreter.h"
#include "support/rng.h"
#include "test_util.h"
#include "transform/lower_sparse_buffer.h"
#include "transform/lower_sparse_iter.h"

namespace sparsetir {
namespace {

using core::BindingSet;
using format::Csr;
using runtime::Backend;
using runtime::Bindings;
using runtime::NDArray;
using testutil::bitwiseEqual;
using testutil::randomVector;

// With SPARSETIR_NATIVE=1 every engine here may serve natively: its
// .so files go to a per-process directory removed at exit.
[[maybe_unused]] const bool kNativeCacheIsolated =
    testutil::isolateNativeCacheDir("/tmp/sparsetir-bytecode-native-");
namespace bytecode = runtime::bytecode;

/** A CSR with one very long row, so small bucket caps split it. */
Csr
longRowCsr(int64_t rows, int64_t cols, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> dense(rows * cols, 0.0f);
    for (int64_t j = 0; j < cols; ++j) {
        // Row 0 is (almost) fully dense.
        if (rng.uniformReal() < 0.9) {
            dense[j] = static_cast<float>(rng.uniformReal() + 0.1);
        }
    }
    for (int64_t i = 1; i < rows; ++i) {
        for (int64_t j = 0; j < cols; ++j) {
            if (rng.uniformReal() < 0.05) {
                dense[i * cols + j] =
                    static_cast<float>(rng.uniformReal() + 0.1);
            }
        }
    }
    return format::csrFromDense(rows, cols, dense);
}

// ---------------------------------------------------------------------
// Program structure
// ---------------------------------------------------------------------

TEST(BytecodeCompiler, CompilesSpmmWithBlockWindow)
{
    auto func = core::compileSpmmCsrFunc(16, core::SpmmSchedule());
    auto program = bytecode::compile(func);
    ASSERT_NE(program, nullptr);
    EXPECT_FALSE(program->code.empty());
    EXPECT_GT(program->numIRegs, 0);
    EXPECT_GT(program->numFRegs, 0);
    // The kernel has a blockIdx.x grid, so block windows must apply.
    ASSERT_GE(program->blockWindowPc, 0);
    EXPECT_EQ(program->code[program->blockWindowPc].op,
              bytecode::Op::kBlockWindow);
    // Every handle param that the kernel touches resolves to a slot.
    EXPECT_GT(program->numParamSlots, 0);
    // Scalar params are preassigned registers.
    EXPECT_FALSE(program->scalarParams.empty());
}

TEST(BytecodeCompiler, MemoizesPerFunction)
{
    auto func = core::compileSpmmCsrFunc(8, core::SpmmSchedule());
    auto first = bytecode::programFor(func);
    auto second = bytecode::programFor(func);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first.get(), second.get());
}

TEST(BytecodeCompiler, RejectsStageOneViaDiagnostic)
{
    ir::PrimFunc stage1 = core::buildSddmm(true);
    EXPECT_FALSE(transform::stage3ExecDiagnostic(stage1).empty());
    EXPECT_THROW(bytecode::compile(stage1), UserError);
    // The memoized path remembers the failure and reports null.
    EXPECT_EQ(bytecode::programFor(stage1), nullptr);

    ir::PrimFunc stage3 = transform::lowerSparseBuffers(
        transform::lowerSparseIterations(stage1));
    EXPECT_TRUE(transform::stage3ExecDiagnostic(stage3).empty());
    EXPECT_NE(bytecode::programFor(stage3), nullptr);
}

TEST(BytecodeVM, UnusedScalarParamsStayLazilyBound)
{
    // f(n_unused, out): out[0] = 7. The interpreter binds scalars
    // lazily, so running without "n_unused" works; the VM must agree.
    auto func = ir::primFunc("lazy");
    ir::Var unused = ir::var("n_unused");
    ir::Buffer out_buf = ir::denseBuffer(
        "out", {ir::intImm(1)}, ir::DataType::float32());
    func->params = {unused, out_buf->data};
    func->bufferMap.emplace_back(out_buf->data, out_buf);
    func->body = ir::bufferStore(out_buf, {ir::intImm(0)},
                                 ir::floatImm(7.0));
    func->stage = ir::IrStage::kStage3;

    auto program = bytecode::compile(func);
    ASSERT_NE(program, nullptr);
    EXPECT_TRUE(program->scalarParams.empty());

    NDArray out({1}, ir::DataType::float32());
    Bindings bindings;
    bindings.arrays = {{"out_data", &out}};
    runtime::runInterpreted(func, bindings);
    EXPECT_EQ(out.floatAt(0), 7.0);
    out.zero();
    bytecode::execute(*program, bindings);
    EXPECT_EQ(out.floatAt(0), 7.0);
}

TEST(Executor, BlockHullsSpanEachBlocksRows)
{
    // Sorted rows with a repeat, 2 rows per block, width 4: blocks
    // {0,2} {2,5} {7} -> [0,12) [8,24) [28,32).
    std::vector<int32_t> rows = {0, 2, 2, 5, 7};
    auto hulls = engine::blockHulls(rows, 2, 4);
    ASSERT_EQ(hulls.size(), 3u);
    EXPECT_EQ(hulls[0], (engine::Span{0, 12}));
    EXPECT_EQ(hulls[1], (engine::Span{8, 24}));
    EXPECT_EQ(hulls[2], (engine::Span{28, 32}));
    EXPECT_TRUE(engine::blockHulls({}, 2, 4).empty());
    // Hulls rely on ascending rows.
    EXPECT_THROW(engine::blockHulls({3, 1}, 1, 4), InternalError);
}

// ---------------------------------------------------------------------
// Differential: VM vs interpreter, bitwise
// ---------------------------------------------------------------------

/** Run one function on both backends over twin binding sets. */
struct DifferentialResult
{
    NDArray interp;
    NDArray vm;
};

TEST(BytecodeVM, SpmmCsrBitwiseMatchesInterpreter)
{
    Csr a = graph::powerLawGraph(400, 5000, 1.8, 11);
    int64_t feat = 16;
    auto func = core::compileSpmmCsrFunc(feat, core::SpmmSchedule());
    auto program = bytecode::programFor(func);
    ASSERT_NE(program, nullptr);

    auto b_host = randomVector(a.cols * feat, 12);
    NDArray indptr = NDArray::fromInt32(a.indptr);
    NDArray indices = NDArray::fromInt32(a.indices);
    NDArray values = NDArray::fromFloat(a.values);
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c_interp({a.rows * feat}, ir::DataType::float32());
    NDArray c_vm({a.rows * feat}, ir::DataType::float32());

    Bindings bindings;
    bindings.scalars = {{"m", a.rows},
                        {"n", a.cols},
                        {"nnz", a.nnz()},
                        {"feat_size", feat}};
    bindings.arrays = {{"J_indptr", &indptr},
                       {"J_indices", &indices},
                       {"A_data", &values},
                       {"B_data", &b},
                       {"C_data", &c_interp}};
    runtime::runInterpreted(func, bindings);

    bindings.arrays["C_data"] = &c_vm;
    bytecode::execute(*program, bindings);
    EXPECT_TRUE(bitwiseEqual(c_interp, c_vm));
}

TEST(BytecodeVM, BlockWindowsComposeToFullRun)
{
    Csr a = graph::powerLawGraph(300, 3500, 1.7, 21);
    int64_t feat = 8;
    auto func = core::compileSpmmCsrFunc(feat, core::SpmmSchedule());
    auto program = bytecode::programFor(func);
    ASSERT_NE(program, nullptr);

    auto b_host = randomVector(a.cols * feat, 22);
    NDArray indptr = NDArray::fromInt32(a.indptr);
    NDArray indices = NDArray::fromInt32(a.indices);
    NDArray values = NDArray::fromFloat(a.values);
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c_full({a.rows * feat}, ir::DataType::float32());
    NDArray c_windows({a.rows * feat}, ir::DataType::float32());

    Bindings bindings;
    bindings.scalars = {{"m", a.rows},
                        {"n", a.cols},
                        {"nnz", a.nnz()},
                        {"feat_size", feat}};
    bindings.arrays = {{"J_indptr", &indptr},
                       {"J_indices", &indices},
                       {"A_data", &values},
                       {"B_data", &b},
                       {"C_data", &c_full}};
    runtime::runInterpreted(func, bindings);

    // Three disjoint windows on the VM must reproduce the full run
    // (spmm rows are disjoint across blockIdx).
    bindings.arrays["C_data"] = &c_windows;
    const ir::ForNode *grid = runtime::findBlockIdxLoop(func->body);
    ASSERT_NE(grid, nullptr);
    int64_t blocks = 0;
    ASSERT_TRUE(runtime::evalScalarExtent(grid->extent, bindings, &blocks));
    ASSERT_GE(blocks, 3);
    int64_t third = blocks / 3;
    std::vector<std::pair<int64_t, int64_t>> windows = {
        {0, third}, {third, 2 * third}, {2 * third, blocks}};
    for (const auto &[begin, end] : windows) {
        runtime::RunOptions options;
        options.blockBegin = begin;
        options.blockEnd = end;
        bytecode::execute(*program, bindings, options);
    }
    EXPECT_TRUE(bitwiseEqual(c_full, c_windows));

    // Windowing a kernel with no blockIdx loop is a user error on
    // both backends.
    auto no_grid = ir::primFunc("flat");
    runtime::RunOptions window;
    window.blockEnd = 1;
    auto empty_program = bytecode::Program();
    empty_program.name = "flat";
    EXPECT_THROW(bytecode::execute(empty_program, bindings, window),
                 UserError);
}

TEST(BytecodeVM, SddmmBitwiseMatchesInterpreter)
{
    Csr a = graph::powerLawGraph(200, 2400, 1.6, 31);
    int64_t feat = 32;
    auto func = core::compileSddmmFunc(feat, core::SddmmSchedule());
    auto program = bytecode::programFor(func);
    ASSERT_NE(program, nullptr);

    auto x_host = randomVector(a.rows * feat, 32);
    auto y_host = randomVector(feat * a.cols, 33);
    NDArray indptr = NDArray::fromInt32(a.indptr);
    NDArray indices = NDArray::fromInt32(a.indices);
    NDArray values = NDArray::fromFloat(a.values);
    NDArray x = NDArray::fromFloat(x_host);
    NDArray y = NDArray::fromFloat(y_host);
    NDArray out_interp({a.nnz()}, ir::DataType::float32());
    NDArray out_vm({a.nnz()}, ir::DataType::float32());

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
                       {"B_data", &out_interp}};
    runtime::runInterpreted(func, bindings);

    bindings.arrays["B_data"] = &out_vm;
    bytecode::execute(*program, bindings);
    EXPECT_TRUE(bitwiseEqual(out_interp, out_vm));
}

// ---------------------------------------------------------------------
// Engine-level differential (backend selector)
// ---------------------------------------------------------------------

/** Dispatch the same request on both backends; compare bitwise. */
template <typename DispatchFn>
void
expectBackendsAgree(DispatchFn &&dispatch, int64_t out_numel)
{
    NDArray out[2] = {
        NDArray({out_numel}, ir::DataType::float32()),
        NDArray({out_numel}, ir::DataType::float32())};
    for (int which = 0; which < 2; ++which) {
        engine::EngineOptions options;
        options.backend = which == 0 ? Backend::kInterpreter
                                     : Backend::kBytecode;
        engine::Engine eng(options);
        dispatch(eng, &out[which]);
    }
    EXPECT_TRUE(bitwiseEqual(out[0], out[1]))
        << "bytecode backend diverged from the interpreter";
}

TEST(EngineBackend, SpmmHybAgreesAcrossBackends)
{
    Csr a = graph::powerLawGraph(350, 4200, 1.9, 41);
    int64_t feat = 16;
    auto b_host = randomVector(a.cols * feat, 42);
    engine::HybConfig config;
    config.partitions = 2;
    expectBackendsAgree(
        [&](engine::Engine &eng, NDArray *c) {
            NDArray b = NDArray::fromFloat(b_host);
            eng.spmmHyb(a, feat, &b, c, config);
        },
        a.rows * feat);
}

TEST(EngineBackend, SplitRowHybAgreesAcrossBackends)
{
    // A near-dense row with a small bucket cap forces the widest
    // bucket to carry several ELL rows of one original row, whose
    // overlapping block hulls the task graph orders, on both backends.
    Csr a = longRowCsr(60, 200, 43);
    format::Hyb hyb = format::hybFromCsr(a, 1, 2);
    bool has_split = false;
    for (const auto &bucket : hyb.buckets[0]) {
        std::vector<int32_t> rows = bucket.rowIndices;
        std::sort(rows.begin(), rows.end());
        if (std::adjacent_find(rows.begin(), rows.end()) !=
            rows.end()) {
            has_split = true;
        }
    }
    ASSERT_TRUE(has_split)
        << "fixture no longer produces split rows; lower the cap";

    int64_t feat = 8;
    auto b_host = randomVector(a.cols * feat, 44);
    engine::HybConfig config;
    config.partitions = 1;
    config.bucketCapLog2 = 2;
    expectBackendsAgree(
        [&](engine::Engine &eng, NDArray *c) {
            NDArray b = NDArray::fromFloat(b_host);
            eng.spmmHyb(a, feat, &b, c, config);
        },
        a.rows * feat);
}

TEST(EngineBackend, SddmmAgreesAcrossBackends)
{
    Csr a = graph::powerLawGraph(180, 2000, 1.7, 51);
    int64_t feat = 16;
    auto x_host = randomVector(a.rows * feat, 52);
    auto y_host = randomVector(feat * a.cols, 53);
    expectBackendsAgree(
        [&](engine::Engine &eng, NDArray *out) {
            NDArray x = NDArray::fromFloat(x_host);
            NDArray y = NDArray::fromFloat(y_host);
            eng.sddmm(a, feat, &x, &y, out);
        },
        a.nnz());
}

TEST(EngineBackend, RgcnAgreesAcrossBackendsOnDirtyOutput)
{
    format::RelationalCsr graph;
    graph.rows = 50;
    graph.cols = 50;
    for (int r = 0; r < 4; ++r) {
        graph.relations.push_back(graph::powerLawGraph(
            50, 260 + 40 * r, 1.6, 61 + r));
        graph.relations.back().cols = 50;
    }
    int64_t feat = 8;
    auto x_host = randomVector(graph.cols * feat, 71);
    auto w_host = randomVector(feat * feat, 72);
    // RGCN accumulates into Y (Y += scatter(...)); start from a
    // non-zero output so both backends must preserve untouched rows
    // AND pre-values of touched rows.
    auto y0 = randomVector(graph.rows * feat, 73);

    NDArray out[2] = {NDArray::fromFloat(y0), NDArray::fromFloat(y0)};
    for (int which = 0; which < 2; ++which) {
        engine::EngineOptions options;
        options.backend = which == 0 ? Backend::kInterpreter
                                     : Backend::kBytecode;
        engine::Engine eng(options);
        NDArray x = NDArray::fromFloat(x_host);
        NDArray w = NDArray::fromFloat(w_host);
        auto info = eng.rgcn(graph, feat, &x, &w, &out[which]);
        EXPECT_GE(info.numKernels, 4);
        // Dispatch again: the second round accumulates onto the
        // first round's output.
        eng.rgcn(graph, feat, &x, &w, &out[which]);
    }
    EXPECT_TRUE(bitwiseEqual(out[0], out[1]))
        << "rgcn bytecode backend diverged on dirty output";
}

TEST(EngineBackend, ParallelVmMatchesSerialInterpreter)
{
    // The full contract at once: multi-worker bytecode execution vs
    // the single-threaded interpreter, bitwise.
    Csr a = graph::powerLawGraph(400, 5200, 1.8, 81);
    int64_t feat = 16;
    auto b_host = randomVector(a.cols * feat, 82);
    engine::HybConfig config;
    config.partitions = 4;

    NDArray serial({a.rows * feat}, ir::DataType::float32());
    {
        engine::EngineOptions options;
        options.backend = Backend::kInterpreter;
        options.numThreads = 1;
        options.parallel = false;
        engine::Engine eng(options);
        NDArray b = NDArray::fromFloat(b_host);
        eng.spmmHyb(a, feat, &b, &serial, config);
    }
    for (int threads : {2, 8}) {
        engine::EngineOptions options;
        options.backend = Backend::kBytecode;
        options.numThreads = threads;
        options.minBlocksPerChunk = 2;
        engine::Engine eng(options);
        NDArray b = NDArray::fromFloat(b_host);
        NDArray c({a.rows * feat}, ir::DataType::float32());
        eng.spmmHyb(a, feat, &b, &c, config);
        EXPECT_TRUE(bitwiseEqual(serial, c))
            << "VM with " << threads
            << " workers diverged from the serial interpreter";
    }
}

TEST(EngineBackend, CacheKeyCarriesArtifactVersion)
{
    engine::CacheKey key;
    EXPECT_EQ(key.version, engine::kArtifactVersion);
    engine::CacheKey old_key = key;
    old_key.version = 1;
    EXPECT_FALSE(key == old_key);
    EXPECT_NE(engine::CacheKeyHash()(key),
              engine::CacheKeyHash()(old_key));
}

} // namespace
} // namespace sparsetir
