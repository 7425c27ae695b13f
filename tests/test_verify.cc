/**
 * @file
 * Static artifact verifier tests: positive controls proving every
 * pipeline kernel family clean under symbolic format facts, a
 * known-bad IR regression corpus (dropped spatial guard -> OOB, block
 * hulls one row short or cut at the wrong rows per block, seeded
 * parallel race, an unprovable bound whose search must stop at the
 * step budget) that must each be rejected with a category-correct
 * diagnostic, the hull obligation proven on every hyb bucket
 * (split rows included), and the engine-level
 * contract that every session verifies each artifact once, with the
 * verdict cached.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "format/csr.h"
#include "format/hyb.h"
#include "ir/analysis.h"
#include "ir/buffer.h"
#include "ir/expr.h"
#include "ir/functor.h"
#include "ir/prim_func.h"
#include "ir/stmt.h"
#include "observe/trace.h"
#include "support/rng.h"
#include "test_util.h"
#include "transform/hoist_invariants.h"
#include "verify/verifier.h"

namespace sparsetir {
namespace {

using engine::Engine;
using engine::EngineOptions;
using format::Csr;
using runtime::NDArray;
using testutil::randomVector;

// With SPARSETIR_NATIVE=1 every engine here may serve natively: its
// .so files go to a per-process directory removed at exit.
[[maybe_unused]] const bool kNativeCacheIsolated =
    testutil::isolateNativeCacheDir("/tmp/sparsetir-verify-native-");

ir::Var
param(const ir::PrimFunc &func, const std::string &name)
{
    for (const auto &p : func->params) {
        if (p->name == name) {
            return p;
        }
    }
    ADD_FAILURE() << "missing param " << name;
    return nullptr;
}

/** J_indptr-style facts: non-negative, monotone 0 -> total. */
void
indptrFact(verify::VerifyContext *ctx, const std::string &name,
           ir::Expr total)
{
    verify::ValueFact fact;
    fact.lo = ir::intImm(0);
    fact.hi = total;
    fact.first = ir::intImm(0);
    fact.last = total;
    fact.sorted = true;
    ctx->facts[name] = fact;
}

/** J_indices-style facts: valid ids in [0, count). */
void
idxFact(verify::VerifyContext *ctx, const std::string &name,
        ir::Expr count)
{
    verify::ValueFact fact;
    fact.lo = ir::intImm(0);
    fact.hi = ir::sub(count, ir::intImm(1));
    ctx->facts[name] = fact;
}

verify::VerifyContext
csrSymbolicFacts(const ir::PrimFunc &func)
{
    verify::VerifyContext ctx;
    indptrFact(&ctx, "J_indptr", param(func, "nnz"));
    idxFact(&ctx, "J_indices", param(func, "n"));
    return ctx;
}

/**
 * Expect `func` to verify clean, both as its producer emits it and
 * hoisted (transform::hoistInvariants), which is what the engine
 * serves.
 */
void
expectCleanAsProducedAndHoisted(const ir::PrimFunc &func,
                                const verify::VerifyContext &ctx,
                                const std::string &what)
{
    for (bool hoist : {false, true}) {
        auto result = verify::verifyFunc(
            hoist ? transform::hoistInvariants(func) : func, ctx);
        EXPECT_TRUE(result.ok)
            << what << (hoist ? " (hoisted)" : " (as produced)") << "\n"
            << verify::formatDiagnostics(result);
    }
}

bool
hasCategory(const verify::VerifyResult &result,
            verify::DiagCategory category)
{
    for (const auto &diag : result.diagnostics) {
        if (diag.category == category) {
            return true;
        }
    }
    return false;
}

Csr
smallCsr()
{
    Csr a;
    a.rows = 7;
    a.cols = 9;
    a.indptr = {0, 3, 3, 4, 9, 9, 14, 15};
    a.indices = {0, 2, 5, 1, 0, 1, 2, 3, 4, 0, 2, 4, 6, 8, 7};
    a.values.assign(15, 1.0f);
    return a;
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

// ---------------------------------------------------------------------
// Positive controls: every pipeline kernel family proves clean under
// the format facts alone, i.e. for EVERY structure, not one request's.
// Odd feature widths (37) force split tails so the guard proofs carry
// real weight.
// ---------------------------------------------------------------------

TEST(Verify, SpmmCsrProvesCleanSymbolically)
{
    for (int64_t feat : {48, 37}) {
        ir::PrimFunc func =
            core::compileSpmmCsrFunc(feat, core::SpmmSchedule());
        expectCleanAsProducedAndHoisted(func, csrSymbolicFacts(func),
                                        "feat=" + std::to_string(feat));
    }
}

/** Symbolic facts of a hyb bucket kernel: CSR facts + its ELL ids. */
verify::VerifyContext
hybSymbolicFacts(const core::HybKernelPlan &plan)
{
    verify::VerifyContext ctx = csrSymbolicFacts(plan.func);
    idxFact(&ctx, core::ellRowIndicesParam(plan.suffix),
            param(plan.func, "m"));
    idxFact(&ctx, core::ellColIndicesParam(plan.suffix),
            param(plan.func, "n"));
    return ctx;
}

/**
 * CSR over `cols` columns built from (count, log2 degree) groups:
 * `count` rows of 2^log2 non-zeros each, in group order.
 */
Csr
csrOfDegrees(const std::vector<std::pair<int, int>> &degrees, int cols)
{
    Csr a;
    a.cols = cols;
    a.indptr = {0};
    for (const auto &[count, log2] : degrees) {
        for (int r = 0; r < count; ++r) {
            for (int k = 0; k < (1 << log2); ++k) {
                a.indices.push_back((r + k * cols / (1 << log2)) % cols);
            }
            std::sort(a.indices.end() - (1 << log2), a.indices.end());
            a.indptr.push_back(static_cast<int32_t>(a.indices.size()));
        }
    }
    a.rows = static_cast<int64_t>(a.indptr.size()) - 1;
    a.values.assign(a.indices.size(), 1.0f);
    return a;
}

/**
 * Buckets of width 32 and 64 whose row count is not a multiple of
 * their rows per block (5 rows at 4 per block, 3 at 2): only the row
 * guard bounds the last block, against element offsets `width * row`.
 */
Csr
wideBucketTailCsr()
{
    return csrOfDegrees({{1, 7}, {3, 6}, {5, 5}}, 128);
}

TEST(Verify, SpmmHybBucketsProveCleanSymbolically)
{
    // Both schedules, at a feat that divides the GPU lane split and
    // one that leaves a tail.
    for (format::Hyb hyb : {format::hybFromCsr(smallCsr(), 1, 1),
                            format::hybFromCsr(wideBucketTailCsr(), 1, 7)}) {
        for (core::ScheduleTarget target :
             {core::ScheduleTarget::kHost, core::ScheduleTarget::kGpu}) {
            for (int64_t feat : {48, 37}) {
                auto plans = core::compileSpmmHybFuncs(hyb, feat, target);
                ASSERT_FALSE(plans.empty());
                for (const auto &plan : plans) {
                    expectCleanAsProducedAndHoisted(
                        plan.func, hybSymbolicFacts(plan),
                        "bucket " + plan.suffix + " (" +
                            std::to_string(plan.numRows) + " rows, " +
                            std::to_string(plan.rowsPerBlock) +
                            " per block) feat " + std::to_string(feat) +
                            " host " +
                            std::to_string(target ==
                                           core::ScheduleTarget::kHost));
                }
            }
        }
    }
}

/** Shrinks every "C_local" buffer (the cacheWrite accumulator). */
class AccumulatorShrinker : public ir::StmtMutator
{
  protected:
    ir::Buffer
    mutateBuffer(const ir::Buffer &buffer) override
    {
        if (buffer->name != "C_local") {
            return buffer;
        }
        if (shrunk_ == nullptr) {
            int64_t size = 0;
            EXPECT_TRUE(ir::tryConstInt(buffer->shape[0], &size));
            auto node = std::make_shared<ir::BufferNode>(*buffer);
            node->shape = {ir::intImm(size - 1)};
            shrunk_ = node;
        }
        return shrunk_;
    }

  private:
    ir::Buffer shrunk_;
};

TEST(VerifyCorpus, HostAccumulatorOneElementShortIsOutOfBounds)
{
    format::Hyb hyb = format::hybFromCsr(smallCsr(), 1, 1);
    for (const auto &plan : core::compileSpmmHybFuncs(hyb, 37)) {
        ir::PrimFunc bad = ir::copyFunc(plan.func);
        AccumulatorShrinker shrink;
        bad->body = shrink.mutateStmt(plan.func->body);
        auto result = verify::verifyFunc(bad, hybSymbolicFacts(plan));
        ASSERT_FALSE(result.ok) << "bucket " << plan.suffix;
        EXPECT_TRUE(hasCategory(result, verify::DiagCategory::kOutOfBounds))
            << verify::formatDiagnostics(result);
    }
}

TEST(Verify, SddmmProvesCleanSymbolically)
{
    for (int64_t feat : {48, 37}) {
        ir::PrimFunc func =
            core::compileSddmmFunc(feat, core::SddmmSchedule());
        expectCleanAsProducedAndHoisted(func, csrSymbolicFacts(func),
                                        "feat=" + std::to_string(feat));
    }
}

TEST(Verify, BsrSpmmProvesCleanSymbolically)
{
    ir::PrimFunc func = core::compileBsrSpmmFunc(4, 48, false);
    verify::VerifyContext ctx;
    indptrFact(&ctx, "JO_indptr", param(func, "nnzb"));
    idxFact(&ctx, "JO_indices", param(func, "nb"));
    expectCleanAsProducedAndHoisted(func, ctx, "bsr_spmm");
}

TEST(Verify, BsrSddmmProvesCleanSymbolically)
{
    // The edge-space write B[(JO_indptr[io] + jo) * area + t] needs
    // the scaled monotone-window race rule: the sorted-indptr atom
    // carries coefficient blockSize^2, not 1.
    ir::PrimFunc func = core::compileBsrSddmmFunc(32, 64, false);
    verify::VerifyContext ctx;
    indptrFact(&ctx, "JO_indptr", param(func, "nnzb"));
    idxFact(&ctx, "JO_indices", param(func, "nb"));
    expectCleanAsProducedAndHoisted(func, ctx, "bsr_sddmm");
}

TEST(Verify, SrbcrsSpmmProvesCleanSymbolically)
{
    ir::PrimFunc func = core::compileSrbcrsSpmmFunc(8, 32, 48);
    verify::VerifyContext ctx;
    indptrFact(&ctx, "G_indptr", param(func, "total_groups"));
    idxFact(&ctx, "T_indices", param(func, "n"));
    expectCleanAsProducedAndHoisted(func, ctx, "srbcrs_spmm");
}

TEST(Verify, EllRgmsProvesCleanSymbolically)
{
    ir::PrimFunc func =
        core::compileEllRgmsFunc(5, 4, 16, 32, "r0b2", false, 4);
    verify::VerifyContext ctx;
    idxFact(&ctx, "Ir0b2_indices", param(func, "m"));
    idxFact(&ctx, "Jr0b2_indices", param(func, "n"));
    expectCleanAsProducedAndHoisted(func, ctx, "rgms");
}

// ---------------------------------------------------------------------
// Known-bad corpus. Each mutation reproduces a real bug class and
// must be rejected with the matching diagnostic category.
// ---------------------------------------------------------------------

// Stripping the split-tail spatial guard (testutil::GuardStripper)
// exactly reproduces the historic cacheWrite missing-guard bug on
// pre-fix IR.
using testutil::GuardStripper;

/** Clobber every store to `buffer` to land on one fixed location. */
class StoreIndexClobber : public ir::StmtMutator
{
  public:
    explicit StoreIndexClobber(std::string buffer)
        : buffer_(std::move(buffer))
    {}

  protected:
    ir::Stmt
    mutateBufferStore(const ir::BufferStoreNode *op,
                      const ir::Stmt &s) override
    {
        if (op->buffer->name != buffer_) {
            return StmtMutator::mutateBufferStore(op, s);
        }
        return ir::bufferStore(op->buffer, {ir::intImm(0)}, op->value);
    }

  private:
    std::string buffer_;
};

TEST(VerifyCorpus, DroppedSpatialGuardIsOutOfBounds)
{
    // feat=37 is not a multiple of the threadX split, so the tail
    // guard is load-bearing; dropping it must not verify.
    ir::PrimFunc func =
        core::compileSpmmCsrFunc(37, core::SpmmSchedule());
    ir::PrimFunc bad = ir::copyFunc(func);
    GuardStripper strip("feat_size");
    bad->body = strip.mutateStmt(func->body);

    auto result = verify::verifyFunc(bad, csrSymbolicFacts(bad));
    ASSERT_FALSE(result.ok);
    EXPECT_TRUE(hasCategory(result, verify::DiagCategory::kOutOfBounds))
        << verify::formatDiagnostics(result);
}

TEST(VerifyCorpus, DivisibleFeatSurvivesGuardStripOnlyBecauseProvable)
{
    // Control for the corpus itself: when feat divides the split and
    // the verifier knows it (the engine always declares the concrete
    // feat), the guard is redundant and stripping it stays provably
    // safe — the rejection above is about the tail, not stripping.
    ir::PrimFunc func =
        core::compileSpmmCsrFunc(32, core::SpmmSchedule());
    ir::PrimFunc bad = ir::copyFunc(func);
    GuardStripper strip("feat_size");
    bad->body = strip.mutateStmt(func->body);

    verify::VerifyContext ctx = csrSymbolicFacts(bad);
    ctx.scalar("feat_size", 32);
    auto result = verify::verifyFunc(bad, ctx);
    EXPECT_TRUE(result.ok) << verify::formatDiagnostics(result);
}

/**
 * Concrete verifier facts of one hyb bucket kernel, as the engine
 * declares them, with block hulls of C computed at `rows_per_block`.
 */
struct HullSpec
{
    verify::VerifyContext ctx;
    const format::Ell *ell = nullptr;
};

HullSpec
hullSpec(const Csr &a, const format::Hyb &hyb,
         const core::HybKernelPlan &plan, int64_t feat,
         int64_t rows_per_block)
{
    HullSpec spec;
    spec.ell = &hyb.buckets[plan.partition][plan.bucket];
    verify::VerifyContext &ctx = spec.ctx;
    ctx.scalar("m", a.rows);
    ctx.scalar("n", a.cols);
    ctx.scalar("nnz", a.nnz());
    ctx.scalar("feat_size", feat);
    ctx.int32Array("J_indptr", a.indptr);
    ctx.int32Array("J_indices", a.indices);
    ctx.int32Array(core::ellRowIndicesParam(plan.suffix),
                   spec.ell->rowIndices);
    ctx.int32Array(core::ellColIndicesParam(plan.suffix),
                   spec.ell->colIndices);
    verify::AccumWriteSet set;
    set.buffer = "C_data";
    set.rowsBuffer = core::ellRowIndicesParam(plan.suffix);
    set.rows = &spec.ell->rowIndices;
    set.rowWidth = feat;
    set.rowsPerBlock = rows_per_block;
    set.blockHulls = engine::blockHulls(spec.ell->rowIndices,
                                        rows_per_block, feat);
    ctx.hasAccumSpec = true;
    ctx.accums.push_back(set);
    return spec;
}

bool
hasDuplicateRows(const std::vector<int32_t> &rows)
{
    return std::adjacent_find(rows.begin(), rows.end()) != rows.end();
}

TEST(VerifyCorpus, BlockHullsProveOnEveryHybBucketIncludingSplitRows)
{
    Csr a = randomCsr(64, 48, 0.2, 11);
    int64_t feat = 8;
    format::Hyb hyb = format::hybFromCsr(a, 1, 2);
    auto plans = core::compileSpmmHybFuncs(hyb, feat);
    bool saw_split = false;
    for (const auto &plan : plans) {
        HullSpec spec = hullSpec(a, hyb, plan, feat, plan.rowsPerBlock);
        saw_split |= hasDuplicateRows(spec.ell->rowIndices);
        // Split rows need no marking; the flag is ignored either way.
        for (bool flag : {false, true}) {
            spec.ctx.kernelExclusive = flag;
            auto result = verify::verifyFunc(plan.func, spec.ctx);
            EXPECT_TRUE(result.ok) << "bucket " << plan.suffix << "\n"
                                   << verify::formatDiagnostics(result);
        }
    }
    EXPECT_TRUE(saw_split) << "fixture has no split rows";
}

TEST(VerifyCorpus, HullOneRowShortRejected)
{
    Csr a = randomCsr(64, 48, 0.2, 11);
    int64_t feat = 8;
    format::Hyb hyb = format::hybFromCsr(a, 1, 2);
    for (const auto &plan : core::compileSpmmHybFuncs(hyb, feat)) {
        HullSpec spec = hullSpec(a, hyb, plan, feat, plan.rowsPerBlock);
        auto &hulls = spec.ctx.accums[0].blockHulls;
        ASSERT_FALSE(hulls.empty());
        hulls.back().second -= feat;  // drop the last block's last row
        auto result = verify::verifyFunc(plan.func, spec.ctx);
        ASSERT_FALSE(result.ok) << "bucket " << plan.suffix;
        EXPECT_TRUE(
            hasCategory(result, verify::DiagCategory::kWriteSetViolation))
            << verify::formatDiagnostics(result);
    }
}

TEST(VerifyCorpus, HullsAtWrongRowsPerBlockRejected)
{
    // Hulls that cover the rows but group them at twice the kernel's
    // rows per block: the concrete rows fit, but the IR's block b
    // writes rows the declared grouping gives to block b / 2.
    Csr a = randomCsr(64, 48, 0.2, 11);
    int64_t feat = 8;
    format::Hyb hyb = format::hybFromCsr(a, 1, 2);
    int checked = 0;
    for (const auto &plan : core::compileSpmmHybFuncs(hyb, feat)) {
        if (plan.numRows < 2 * plan.rowsPerBlock) {
            continue;  // one block: every grouping is the same
        }
        HullSpec spec =
            hullSpec(a, hyb, plan, feat, 2 * plan.rowsPerBlock);
        auto result = verify::verifyFunc(plan.func, spec.ctx);
        ASSERT_FALSE(result.ok) << "bucket " << plan.suffix;
        EXPECT_TRUE(
            hasCategory(result, verify::DiagCategory::kWriteSetViolation))
            << verify::formatDiagnostics(result);
        ++checked;
    }
    EXPECT_GT(checked, 0);
}

TEST(VerifyCorpus, SeededParallelRaceRejected)
{
    ir::PrimFunc func =
        core::compileSpmmCsrFunc(32, core::SpmmSchedule());
    ir::PrimFunc bad = ir::copyFunc(func);
    StoreIndexClobber clobber("C");
    bad->body = clobber.mutateStmt(func->body);

    // Concrete scalar facts keep C[0] trivially in bounds, isolating
    // the race: every blockIdx iteration now folds into one location.
    verify::VerifyContext ctx = csrSymbolicFacts(bad);
    ctx.scalar("m", 8);
    ctx.scalar("n", 8);
    ctx.scalar("nnz", 12);
    ctx.scalar("feat_size", 32);

    auto result = verify::verifyFunc(bad, ctx);
    ASSERT_FALSE(result.ok);
    EXPECT_TRUE(hasCategory(result, verify::DiagCategory::kParallelRace))
        << verify::formatDiagnostics(result);
}

/**
 * `out[v0 * f + ... + v{g-1} * f] = 1` under `guards` nested loops
 * v in [0, m), each guarded by `v * f + g < m * f`, into a buffer of
 * m * f - 1 elements: the upper bound cannot be proven, and the search
 * over guard subtractions grows about 4x per guard.
 */
ir::PrimFunc
manyGuardsOneShort(int guards)
{
    auto func = ir::primFunc("many_guards_one_short");
    ir::Var m = ir::var("m");
    ir::Var f = ir::var("f");
    ir::Buffer out = ir::denseBuffer(
        "out", {ir::sub(ir::mul(m, f), ir::intImm(1))},
        ir::DataType::float32());
    std::vector<ir::Var> vars;
    ir::Expr index = ir::intImm(0);
    for (int g = 0; g < guards; ++g) {
        vars.push_back(ir::var("v" + std::to_string(g)));
        index = ir::add(index, ir::mul(vars.back(), f));
    }
    ir::Stmt body = ir::bufferStore(out, {index}, ir::floatImm(1.0));
    for (int g = guards - 1; g >= 0; --g) {
        body = ir::ifThenElse(
            ir::lt(ir::add(ir::mul(vars[g], f), ir::intImm(g)),
                   ir::mul(m, f)),
            body);
        body = ir::forLoop(vars[g], ir::intImm(0), m, body);
    }
    func->params = {m, f, out->data};
    func->bufferMap.emplace_back(out->data, out);
    func->body = body;
    func->stage = ir::IrStage::kStage3;
    return func;
}

TEST(VerifyCorpus, UnprovableBoundStopsAtTheStepBudget)
{
    // Unbounded, the failing upper-bound proof of 7 guards searched
    // 19094 steps (about 35 ms); the other obligations take a few.
    auto result = verify::verifyFunc(manyGuardsOneShort(7));
    ASSERT_FALSE(result.ok);
    ASSERT_EQ(result.diagnostics.size(), 1u)
        << verify::formatDiagnostics(result);
    EXPECT_TRUE(hasCategory(result, verify::DiagCategory::kOutOfBounds));
    EXPECT_GE(result.proofSteps, verify::kProofStepBudget);
    EXPECT_LT(result.proofSteps, verify::kProofStepBudget + 64);
}

// ---------------------------------------------------------------------
// Engine integration: verification happens once, at build, and the
// verdict rides the cached artifact.
// ---------------------------------------------------------------------

TEST(VerifyEngine, VerdictComputedOnceAndCached)
{
    Engine eng;

    Csr a = randomCsr(30, 25, 0.15, 3);
    int64_t feat = 16;
    auto b_host = randomVector(a.cols * feat, 4);
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.rows * feat}, ir::DataType::float32());

    auto first = eng.spmmCsr(a, feat, &b, &c);
    EXPECT_FALSE(first.cacheHit);
    auto cold = eng.cacheStats();
    EXPECT_GE(cold.verifiedKernels, 1u);
    EXPECT_EQ(cold.verifyFailures, 0u);

    c.zero();
    auto second = eng.spmmCsr(a, feat, &b, &c);
    EXPECT_TRUE(second.cacheHit);
    auto warm = eng.cacheStats();
    // Warm hit re-uses the cached verdict: no re-proving.
    EXPECT_EQ(warm.verifiedKernels, cold.verifiedKernels);
    EXPECT_EQ(warm.verifyMs, cold.verifyMs);
}

TEST(VerifyEngine, DefaultSessionProvesEveryArtifact)
{
    // Serial and on the interpreter, the session still builds the one
    // artifact shape: a proof and a bytecode program for every kernel,
    // and proven hulls on every bucket kernel.
    EngineOptions options;
    options.parallel = false;
    options.backend = runtime::Backend::kInterpreter;
    Engine eng(options);

    // Rows of degree 1, 2, 4 and 8 in turn: every bucket holds rows
    // from the whole range in two or more blocks, so the cut the
    // parallel session makes below falls inside each bucket kernel (a
    // kernel of one block runs whole, hulls or not).
    std::vector<std::pair<int, int>> degrees;
    for (int r = 0; r < 64; ++r) {
        degrees.emplace_back(1, r % 4);
    }
    Csr a = csrOfDegrees(degrees, 48);
    int64_t feat = 24;
    NDArray b = NDArray::fromFloat(randomVector(a.cols * feat, 5));
    NDArray want({a.rows * feat}, ir::DataType::float32());
    engine::DispatchInfo info = eng.spmmHyb(a, feat, &b, &want);
    ASSERT_GE(info.numKernels, 2);
    EXPECT_EQ(eng.cacheStats().verifiedKernels,
              static_cast<uint64_t>(info.numKernels));

    // The kernels the builder compiles (default HybConfig: one
    // partition, per-structure bucket cap), each through the engine's
    // own compileKernel: every one gets a bytecode program.
    std::vector<core::HybKernelPlan> plans =
        core::compileSpmmHybFuncs(format::hybFromCsr(a, 1), feat);
    ASSERT_EQ(plans.size(), static_cast<size_t>(info.numKernels));
    for (const core::HybKernelPlan &plan : plans) {
        EXPECT_NE(engine::compileKernel(plan.func).program, nullptr)
            << plan.func->name;
    }

    // The same build on two interpreter workers: the proven hulls let
    // the task graph cut every bucket kernel, so each one runs as two
    // or more units, and the result stays bitwise.
    options.parallel = true;
    options.numThreads = 2;
    options.minBlocksPerChunk = 1;
    Engine parallel(options);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    parallel.spmmHyb(a, feat, &b, &c);
    std::vector<observe::TraceEvent> units = testutil::collectSpans(
        "fused.unit", [&] { info = parallel.spmmHyb(a, feat, &b, &c); });
    EXPECT_TRUE(info.cacheHit);
    std::vector<int> units_per_kernel(info.numKernels, 0);
    for (const observe::TraceEvent &unit : units) {
        ASSERT_STREQ(unit.arg0Name, "kernel");
        ASSERT_LT(unit.arg0, info.numKernels);
        units_per_kernel[unit.arg0] += 1;
    }
    for (int k = 0; k < info.numKernels; ++k) {
        EXPECT_GE(units_per_kernel[k], 2)
            << "kernel " << plans[k].func->name
            << " ran whole: no proven hulls";
    }
    EXPECT_TRUE(testutil::bitwiseEqual(want, c));
}

TEST(VerifyEngine, WideHybBucketWithRowTailServes)
{
    // 3 rows of degree 128 and 861 of degree 32: the width-32 bucket
    // holds 861 rows at 2 per block, so its last block is half empty
    // and only the row guard keeps it in bounds. Every backend must
    // serve it and match the interpreter bitwise.
    Csr a = csrOfDegrees({{3, 7}, {861, 5}}, 256);
    int64_t feat = 32;
    NDArray b = NDArray::fromFloat(randomVector(a.cols * feat, 9));

    EngineOptions oracle_options;
    oracle_options.parallel = false;
    oracle_options.backend = runtime::Backend::kInterpreter;
    Engine oracle(oracle_options);
    NDArray want({a.rows * feat}, ir::DataType::float32());
    auto info = oracle.spmmHyb(a, feat, &b, &want);
    EXPECT_EQ(oracle.cacheStats().verifyFailures, 0u);
    ASSERT_GE(info.numKernels, 2);

    for (runtime::Backend backend :
         {runtime::Backend::kInterpreter, runtime::Backend::kBytecode}) {
        EngineOptions options;
        options.numThreads = 2;
        options.backend = backend;
        Engine eng(options);
        NDArray got({a.rows * feat}, ir::DataType::float32());
        eng.spmmHyb(a, feat, &b, &got);
        EXPECT_TRUE(testutil::bitwiseEqual(got, want))
            << "backend " << static_cast<int>(backend);
        EXPECT_EQ(eng.cacheStats().verifyFailures, 0u);
    }
}

TEST(VerifyEngine, HybDispatchVerifiesEveryBucketKernel)
{
    Engine eng;

    Csr a = randomCsr(64, 48, 0.12, 11);
    int64_t feat = 24;
    auto b_host = randomVector(a.cols * feat, 5);
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.rows * feat}, ir::DataType::float32());

    eng.spmmHyb(a, feat, &b, &c);
    auto stats = eng.cacheStats();
    // A hyb artifact holds one kernel per non-empty bucket.
    EXPECT_GE(stats.verifiedKernels, 2u);
    EXPECT_EQ(stats.verifyFailures, 0u);
}

} // namespace
} // namespace sparsetir
