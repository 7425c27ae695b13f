/**
 * @file
 * Native (C -> .so) tier tests: emitter golden-source checks over the
 * six kernel families, differential runs asserting the dlopen'd
 * kernels are bitwise identical to the interpreter (block windows and
 * offset views included), the persistent artifact cache (warm start
 * across engine restarts with zero recompiles, corrupted and stale
 * artifacts rejected and rebuilt), the engine's promotion policy
 * (threshold crossing, one compile under 8-thread contention, atomic
 * swap) and graceful degradation to bytecode when the C compiler is
 * missing.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ops.h"
#include "dfg/lower.h"
#include "dfg/op_graph.h"
#include "core/pipeline.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "format/hyb.h"
#include "graph/generator.h"
#include "ir/stmt.h"
#include "model/attention.h"
#include "observe/metrics.h"
#include "runtime/bytecode/compiler.h"
#include "runtime/interpreter.h"
#include "runtime/native/c_emitter.h"
#include "runtime/native/native_compiler.h"
#include "test_util.h"
#include "transform/lower_sparse_buffer.h"
#include "transform/lower_sparse_iter.h"
#include "verify/verifier.h"

namespace sparsetir {
namespace {

using format::Csr;
using runtime::Backend;
using runtime::Bindings;
using runtime::NDArray;
using testutil::bitwiseEqual;
using testutil::GuardStripper;
using testutil::randomVector;
namespace native = runtime::native;

/** Scoped environment override, restoring the prior value on exit. */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_) {
            old_ = old;
        }
        if (value != nullptr) {
            ::setenv(name, value, 1);
        } else {
            ::unsetenv(name);
        }
    }

    ~EnvGuard()
    {
        if (had_) {
            ::setenv(name_.c_str(), old_.c_str(), 1);
        } else {
            ::unsetenv(name_.c_str());
        }
    }

  private:
    std::string name_;
    std::string old_;
    bool had_ = false;
};

/** A private temporary directory, removed with its contents on exit. */
class ScratchDir
{
  public:
    explicit ScratchDir(const char *prefix = "/tmp/sparsetir-test-")
    {
        std::string tmpl = std::string(prefix) + "XXXXXX";
        char *dir = ::mkdtemp(tmpl.data());
        EXPECT_NE(dir, nullptr);
        owned_ = dir != nullptr;
        dir_ = owned_ ? dir : "/tmp";
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    ~ScratchDir()
    {
        if (owned_) {
            std::error_code ignored;
            std::filesystem::remove_all(dir_, ignored);
        }
    }

    const std::string &dir() const { return dir_; }

    /** Write an executable /bin/sh script named `name`; its path. */
    std::string
    script(const std::string &name, const std::string &body) const
    {
        std::string path = dir_ + "/" + name;
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << "#!/bin/sh\n" << body;
        }
        std::filesystem::permissions(
            path, std::filesystem::perms::owner_all);
        return path;
    }

  private:
    std::string dir_;
    bool owned_ = false;
};

/** Fresh cache dir + SPARSETIR_NATIVE_CACHE_DIR override for one test:
 *  every test starts cold, so compile counts are deterministic. The
 *  directory and its artifacts are removed when the test ends. */
class CacheDirGuard
{
  public:
    CacheDirGuard() : env_("SPARSETIR_NATIVE_CACHE_DIR", dir_.dir().c_str())
    {
    }

    const std::string &dir() const { return dir_.dir(); }

  private:
    ScratchDir dir_{"/tmp/sparsetir-native-test-"};
    EnvGuard env_;
};

/** Installed `.so` files in `dir` (build temporaries excluded). */
int
countModules(const std::string &dir)
{
    int count = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::string name = entry.path().filename().string();
        if (entry.path().extension() == ".so" &&
            name.rfind("st_build_", 0) != 0) {
            ++count;
        }
    }
    return count;
}

template <typename Pred>
bool
waitFor(Pred pred, int timeout_ms = 30000)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred()) {
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
}

/** SpMM-CSR bindings over one structure (the shared fixture shape). */
struct SpmmFixture
{
    Csr a;
    int64_t feat;
    NDArray indptr, indices, values, b;

    SpmmFixture(int64_t rows, int64_t nnz, uint64_t seed,
                int64_t feat_size = 16)
        : a(graph::powerLawGraph(rows, nnz, 1.8, seed)),
          feat(feat_size),
          indptr(NDArray::fromInt32(a.indptr)),
          indices(NDArray::fromInt32(a.indices)),
          values(NDArray::fromFloat(a.values)),
          b(NDArray::fromFloat(randomVector(a.cols * feat_size,
                                            seed + 1)))
    {
    }

    Bindings
    bindings(NDArray *c) const
    {
        Bindings bound;
        bound.scalars = {{"m", a.rows},
                         {"n", a.cols},
                         {"nnz", a.nnz()},
                         {"feat_size", feat}};
        bound.arrays = {{"J_indptr", const_cast<NDArray *>(&indptr)},
                        {"J_indices", const_cast<NDArray *>(&indices)},
                        {"A_data", const_cast<NDArray *>(&values)},
                        {"B_data", const_cast<NDArray *>(&b)},
                        {"C_data", c}};
        return bound;
    }

    NDArray
    interpreterReference() const
    {
        auto func = core::compileSpmmCsrFunc(feat, core::SpmmSchedule());
        NDArray c({a.rows * feat}, ir::DataType::float32());
        runtime::runInterpreted(func, bindings(&c));
        return c;
    }
};

/** Interpreter-engine reference for one engine-level spmmCsr dispatch. */
NDArray
engineSpmmReference(const Csr &a, int64_t feat,
                    const std::vector<float> &b_host)
{
    engine::EngineOptions options;
    options.backend = Backend::kInterpreter;
    engine::Engine eng(options);
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    eng.spmmCsr(a, feat, &b, &c);
    return c;
}

/** The hyb fixture the multi-kernel promotion tests share: an
 *  interpreter-engine reference for one spmmHyb dispatch. */
NDArray
engineHybReference(const Csr &a, int64_t feat,
                   const std::vector<float> &b_host,
                   const engine::HybConfig &config)
{
    engine::EngineOptions options;
    options.backend = Backend::kInterpreter;
    engine::Engine eng(options);
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    eng.spmmHyb(a, feat, &b, &c, config);
    return c;
}

/** The one-kernel module's body function, without the fixed
 *  preamble, the entry stub and its table, the entry table or the
 *  meta string. */
std::string
kernelBody(const native::EmitResult &emitted)
{
    size_t at = emitted.source.find("static int32_t st_body_0(");
    size_t end = emitted.source.find("\n}\n", at);
    EXPECT_NE(at, std::string::npos);
    EXPECT_NE(end, std::string::npos);
    return at == std::string::npos || end == std::string::npos
               ? ""
               : emitted.source.substr(at, end + 3 - at);
}

/** The diagnostic of a check failure: its text without the
 *  "<file>:<line>: ... check failed: (<condition>) " prefix, which
 *  names the raising tier's source. */
std::string
diagnostic(const std::string &what)
{
    size_t at = what.find("check failed: (");
    size_t end = at == std::string::npos ? at : what.find(") ", at);
    return end == std::string::npos ? what : what.substr(end + 2);
}

/** "internal: <diagnostic>" or "user: <diagnostic>" for what `run`
 *  raises; "" when it raises nothing. Compares a fault across tiers
 *  by type and text at once. */
template <typename Fn>
std::string
raised(Fn run)
{
    try {
        run();
    } catch (const InternalError &err) {
        return "internal: " + diagnostic(err.what());
    } catch (const UserError &err) {
        return "user: " + diagnostic(err.what());
    }
    return "";
}

/** Concrete verifier facts of a CSR kernel over `a` at `feat`. */
verify::VerifyContext
csrFacts(const Csr &a, int64_t feat)
{
    verify::VerifyContext ctx;
    ctx.scalar("m", a.rows);
    ctx.scalar("n", a.cols);
    ctx.scalar("nnz", a.nnz());
    ctx.scalar("feat_size", feat);
    ctx.int32Array("J_indptr", a.indptr);
    ctx.int32Array("J_indices", a.indices);
    return ctx;
}

/** Message of the InternalError `run` raises; "" (and a test
 *  failure) when it raises nothing. */
template <typename Fn>
std::string
faultMessage(Fn run)
{
    try {
        run();
    } catch (const InternalError &err) {
        return err.what();
    }
    ADD_FAILURE() << "expected an InternalError";
    return "";
}

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

// ---------------------------------------------------------------------
// Emitter golden-source checks
// ---------------------------------------------------------------------

TEST(NativeEmitter, GoldenSourceAcrossSixKernelFamilies)
{
    struct Family
    {
        const char *tag;
        ir::PrimFunc func;
    };
    std::vector<Family> families;
    families.push_back(
        {"golden-spmm-csr",
         core::compileSpmmCsrFunc(16, core::SpmmSchedule())});
    families.push_back(
        {"golden-sddmm",
         core::compileSddmmFunc(16, core::SddmmSchedule())});
    families.push_back({"golden-spmm-bsr",
                        core::compileBsrSpmmFunc(2, 8, false)});
    families.push_back({"golden-sddmm-bsr",
                        core::compileBsrSddmmFunc(2, 8, false)});
    families.push_back({"golden-spmm-srbcrs",
                        core::compileSrbcrsSpmmFunc(2, 2, 8)});
    families.push_back(
        {"golden-rgms-ell",
         core::compileEllRgmsFunc(8, 4, 8, 8, "p0", false)});

    for (const Family &family : families) {
        SCOPED_TRACE(family.tag);
        native::EmitResult emitted =
            native::emitC(family.func, family.tag);

        // A self-contained one-kernel module: its entry function,
        // the exported entry table and meta string, identified by
        // the caller's key tag.
        EXPECT_NE(emitted.source.find(
                      "static int32_t st_entry_0(StCtx *ctx)"),
                  std::string::npos);
        EXPECT_NE(emitted.source.find(native::kEntryTableSymbol),
                  std::string::npos);
        EXPECT_NE(emitted.source.find(native::kMetaSymbol),
                  std::string::npos);
        EXPECT_NE(emitted.source.find(std::string("tag=") +
                                      family.tag),
                  std::string::npos);

        // Every buffer access is a typed view with the checked
        // helper as its fallback: views are hoisted to kernel entry,
        // the float output is stored through ST_ST with st_st_f
        // behind it, and no access calls a helper unconditionally.
        std::string body = kernelBody(emitted);
        EXPECT_NE(body.find("const StView w"), std::string::npos);
        EXPECT_NE(body.find("= st_view(ctx, "), std::string::npos);
        EXPECT_NE(body.find("ST_LD("), std::string::npos);
        EXPECT_NE(body.find(", float, st_st_f, "), std::string::npos);
        EXPECT_EQ(body.find("ST_CALL(st_ld_"), std::string::npos);
        EXPECT_EQ(body.find("ST_CALL(st_st_"), std::string::npos);

        // All six kernels carry a blockIdx.x grid, so the emitted
        // outer loop must honor the kBlockWindow contract.
        EXPECT_TRUE(emitted.hasWindow);
        EXPECT_NE(emitted.source.find("ctx->block_end"),
                  std::string::npos);

        EXPECT_GT(emitted.numParamSlots, 0);
        EXPECT_GE(static_cast<int>(emitted.slotNames.size()),
                  emitted.numParamSlots);
    }

    // The serving kernels' scratch (hyb bucket and CSR accumulators,
    // the fused attention kernel's per-row temporaries) has constant
    // extents, so it lives on the stack: no calloc per element.
    format::Hyb hyb =
        format::hybFromCsr(graph::powerLawGraph(120, 700, 1.8, 5), 4);
    std::vector<ir::PrimFunc> scratch_kernels = {
        core::compileSpmmCsrFunc(16, core::SpmmSchedule())};
    for (const core::HybKernelPlan &plan :
         core::compileSpmmHybFuncs(hyb, 32)) {
        scratch_kernels.push_back(plan.func);
    }
    auto mask = dfg::SparsityPattern::fromCsr(
        graph::powerLawGraph(64, 512, 1.8, 6));
    dfg::GraphLowering attention =
        dfg::lowerGraph(model::buildAttentionGraph(mask, 32), true);
    ASSERT_EQ(attention.funcs.size(), 1u);
    scratch_kernels.push_back(attention.funcs[0]);
    for (const ir::PrimFunc &func : scratch_kernels) {
        SCOPED_TRACE(func->name);
        std::string body = kernelBody(native::emitC(func, "scratch"));
        EXPECT_NE(body.find("st_stack(ctx, "), std::string::npos);
        EXPECT_EQ(body.find("st_alloc("), std::string::npos);
    }

    // Family-specific binding metadata: the spmm kernel's parameter
    // slots are exactly the engine's binding names.
    native::EmitResult spmm = native::emitC(
        core::compileSpmmCsrFunc(16, core::SpmmSchedule()), "golden");
    std::vector<std::string> params(
        spmm.slotNames.begin(),
        spmm.slotNames.begin() + spmm.numParamSlots);
    for (const char *name :
         {"J_indptr", "J_indices", "A_data", "B_data", "C_data"}) {
        EXPECT_NE(std::find(params.begin(), params.end(), name),
                  params.end())
            << "missing param slot " << name;
    }
}

TEST(NativeEmitter, RejectsStageOneViaDiagnostic)
{
    ir::PrimFunc stage1 = core::buildSddmm(true);
    EXPECT_THROW(native::emitC(stage1, "reject"), UserError);

    ir::PrimFunc stage3 = transform::lowerSparseBuffers(
        transform::lowerSparseIterations(stage1));
    native::EmitResult emitted = native::emitC(stage3, "accept");
    EXPECT_FALSE(emitted.source.empty());
}

// ---------------------------------------------------------------------
// Differential: native kernel vs interpreter, bitwise
// ---------------------------------------------------------------------

TEST(NativeKernel, SpmmCsrBitwiseMatchesInterpreter)
{
    CacheDirGuard cache;
    SpmmFixture fx(400, 5000, 71);
    auto func = core::compileSpmmCsrFunc(fx.feat, core::SpmmSchedule());

    uint64_t before = native::nativeCompileCount();
    auto kernel = native::compileNative(func, "diff-spmm");
    ASSERT_NE(kernel, nullptr);
    EXPECT_FALSE(kernel->diskHit);
    EXPECT_EQ(native::nativeCompileCount(), before + 1);

    NDArray c_native({fx.a.rows * fx.feat}, ir::DataType::float32());
    native::execute(*kernel, fx.bindings(&c_native),
                    runtime::RunOptions());
    EXPECT_TRUE(bitwiseEqual(fx.interpreterReference(), c_native));
}

TEST(NativeKernel, BlockWindowsComposeToFullRun)
{
    CacheDirGuard cache;
    SpmmFixture fx(300, 3500, 72, 8);
    auto func = core::compileSpmmCsrFunc(fx.feat, core::SpmmSchedule());
    auto kernel = native::compileNative(func, "win-spmm");
    ASSERT_NE(kernel, nullptr);
    ASSERT_TRUE(kernel->hasWindow);

    NDArray c_windows({fx.a.rows * fx.feat}, ir::DataType::float32());
    Bindings bindings = fx.bindings(&c_windows);
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
        native::execute(*kernel, bindings, options);
    }
    EXPECT_TRUE(bitwiseEqual(fx.interpreterReference(), c_windows));

    // Windowing a kernel with no blockIdx loop is a user error, like
    // the other two backends.
    auto flat = ir::primFunc("flat");
    ir::Buffer out_buf = ir::denseBuffer("out", {ir::intImm(1)},
                                         ir::DataType::float32());
    flat->params = {out_buf->data};
    flat->bufferMap.emplace_back(out_buf->data, out_buf);
    flat->body = ir::bufferStore(out_buf, {ir::intImm(0)},
                                 ir::floatImm(7.0));
    flat->stage = ir::IrStage::kStage3;
    auto flat_kernel = native::compileNative(flat, "win-flat");
    ASSERT_FALSE(flat_kernel->hasWindow);
    NDArray out({1}, ir::DataType::float32());
    Bindings flat_bindings;
    flat_bindings.arrays = {{"out_data", &out}};
    runtime::RunOptions window;
    window.blockEnd = 1;
    EXPECT_THROW(
        native::execute(*flat_kernel, flat_bindings, window),
        UserError);
}

// Every access is one compare against a hoisted typed view, with the
// checked helper behind it. Each fault the helper path raised before
// must still surface, lazily and with the bytecode VM's exact text.
TEST(NativeKernel, TypedViewFallbackKeepsEveryFaultAndDiagnostic)
{
    CacheDirGuard cache;
    // f(base, n, k, out, v): for i in [0, n):
    //   acc = scratch float[4] (zeroed); acc[k] = v[i];
    //   out[base + i] = acc[k]
    auto func = ir::primFunc("contract");
    ir::Var base = ir::var("base");
    ir::Var n = ir::var("n");
    ir::Var k = ir::var("k");
    ir::Var i = ir::var("i");
    ir::Buffer out = ir::denseBuffer("out", {ir::intImm(64)},
                                     ir::DataType::float32());
    ir::Buffer v = ir::denseBuffer("v", {ir::intImm(64)},
                                   ir::DataType::float32());
    ir::Buffer acc = ir::denseBuffer("acc", {ir::intImm(4)},
                                     ir::DataType::float32());
    func->params = {base, n, k, out->data, v->data};
    func->bufferMap.emplace_back(out->data, out);
    func->bufferMap.emplace_back(v->data, v);
    func->body = ir::forLoop(
        i, ir::intImm(0), n,
        ir::allocate(
            acc,
            ir::seq({ir::bufferStore(acc, {k}, ir::bufferLoad(v, {i})),
                     ir::bufferStore(out, {ir::add(base, i)},
                                     ir::bufferLoad(acc, {k}))})));
    func->stage = ir::IrStage::kStage3;

    // Typed views and a stack scratch slot, not a helper per access.
    std::string body = kernelBody(native::emitC(func, "contract"));
    EXPECT_NE(body.find("st_stack(ctx, "), std::string::npos);
    EXPECT_EQ(body.find("st_alloc("), std::string::npos);
    auto kernel = native::compileNative(func, "contract");
    ASSERT_NE(kernel, nullptr);

    NDArray vals = NDArray::fromFloat({1, 2, 3, 4, 5, 6, 7, 8});
    NDArray ints = NDArray::fromInt32({1, 2, 3, 4, 5, 6, 7, 8});
    // Runs one configuration on native and on the bytecode VM; both
    // must raise the diagnostic `expected` (after the check prefix).
    auto expectFault = [&](const Bindings &bindings,
                           runtime::RunOptions options,
                           const std::string &expected) {
        std::string native_text = faultMessage(
            [&] { native::execute(*kernel, bindings, options); });
        EXPECT_TRUE(endsWith(native_text, expected)) << native_text;
        options.backend = Backend::kBytecode;
        std::string vm_text = faultMessage(
            [&] { runtime::run(func, bindings, options); });
        EXPECT_TRUE(endsWith(vm_text, expected)) << vm_text;
    };
    auto bind = [&](int64_t b, int64_t count, int64_t slot,
                    NDArray *dst, NDArray *src) {
        Bindings bindings;
        bindings.scalars = {{"base", b}, {"n", count}, {"k", slot}};
        bindings.arrays = {{"out_data", dst}};
        if (src != nullptr) {
            bindings.arrays["v_data"] = src;
        }
        return bindings;
    };

    // In-range run: every access on the typed path.
    NDArray full({8}, ir::DataType::float32());
    native::execute(*kernel, bind(2, 6, 3, &full, &vals),
                    runtime::RunOptions());
    EXPECT_EQ(full.floatAt(2), 1.0);
    EXPECT_EQ(full.floatAt(7), 6.0);

    // A typed slot accessed past its end: the helper's bounds fault.
    expectFault(bind(6, 4, 0, &full, &vals), {},
                "offset 8 out of bounds for buffer 'out_data' (numel 8)");
    expectFault(bind(-1, 1, 0, &full, &vals), {},
                "negative offset into out_data");

    // An int32 array bound to the float parameter: no view, so the
    // class fault comes from the helper, and only once v is touched.
    native::execute(*kernel, bind(0, 0, 0, &full, &ints),
                    runtime::RunOptions());
    expectFault(bind(0, 1, 0, &full, &ints), {},
                "float access to integer buffer 'v_data'");

    // An unbound parameter faults lazily too.
    native::execute(*kernel, bind(0, 0, 0, &full, nullptr),
                    runtime::RunOptions());
    expectFault(bind(0, 1, 0, &full, nullptr), {},
                "no storage bound for buffer 'v_data'");

    // The stack scratch slot reports its own numel.
    expectFault(bind(0, 1, 4, &full, &vals), {},
                "offset 4 out of bounds for buffer 'acc' (numel 4)");
    expectFault(bind(0, 1, -1, &full, &vals), {},
                "negative offset into acc");
}

// float32 is float32 on every tier: a float32 op rounds its result,
// so a*b + c is fl(fl(a*b) + c), never the double sum rounded once.
// The inputs are picked so the two differ for `*`, `/` and exp.
TEST(NativeKernel, Float32RuleBitwiseOnEveryTier)
{
    CacheDirGuard cache;
    const ir::DataType f32 = ir::DataType::float32();
    auto func = ir::primFunc("float32_rule");
    ir::Buffer in = ir::denseBuffer("in", {ir::intImm(8)}, f32);
    ir::Buffer out = ir::denseBuffer("out", {ir::intImm(3)}, f32);
    func->params = {in->data, out->data};
    func->bufferMap.emplace_back(in->data, in);
    func->bufferMap.emplace_back(out->data, out);
    auto at = [&](int64_t k) { return ir::bufferLoad(in, {ir::intImm(k)}); };
    auto put = [&](int64_t k, ir::Expr v) {
        return ir::bufferStore(out, {ir::intImm(k)}, std::move(v));
    };
    func->body = ir::seq(
        {put(0, ir::add(ir::mul(at(0), at(1)), at(2))),
         put(1, ir::add(ir::div(at(3), at(4)), at(5))),
         put(2, ir::add(ir::call(f32, ir::Builtin::kExp, {at(6)}), at(7)))});
    func->stage = ir::IrStage::kStage3;

    const float x[8] = {0x1.001p+0f,      0x1.001p+0f,     0x1p-24f,
                        0x1.bf6db6p+6f,   0x1.46c4ecp+5f,  0x1.39d174p+6f,
                        0x1.6ac9ep-3f,    0x1.8ba2e8p+2f};
    const float product = x[0] * x[1];
    const float quotient = x[3] / x[4];
    const float power = static_cast<float>(std::exp(double{x[6]}));
    const float expected[3] = {product + x[2], quotient + x[5],
                               power + x[7]};
    const float once[3] = {
        static_cast<float>(double{x[0]} * x[1] + x[2]),
        static_cast<float>(double{x[3]} / x[4] + x[5]),
        static_cast<float>(std::exp(double{x[6]}) + x[7])};
    for (int k = 0; k < 3; ++k) {
        ASSERT_NE(expected[k], once[k]) << "inputs do not separate op " << k;
    }

    NDArray input = NDArray::fromFloat(std::vector<float>(x, x + 8));
    auto check = [&](const char *tier, const auto &run) {
        NDArray result({3}, f32);
        Bindings bindings;
        bindings.arrays = {{"in_data", &input}, {"out_data", &result}};
        run(bindings);
        for (int k = 0; k < 3; ++k) {
            EXPECT_EQ(result.floatAt(k), double{expected[k]})
                << tier << " op " << k;
        }
    };
    check("interpreter",
          [&](const Bindings &b) { runtime::runInterpreted(func, b); });
    ASSERT_NE(runtime::bytecode::programFor(func), nullptr);
    check("bytecode", [&](const Bindings &b) { runtime::run(func, b); });
    auto checked = native::compileNative(func, "float32-rule");
    EXPECT_FALSE(checked->proven);
    check("native", [&](const Bindings &b) {
        EXPECT_TRUE(native::execute(*checked, b, runtime::RunOptions()));
    });
    native::KernelProof proof;  // no scalars to fix
    auto proven = native::compileNativeModule({func}, "float32-rule",
                                              nullptr, {&proof})[0];
    ASSERT_NE(proven, nullptr);
    EXPECT_TRUE(proven->proven);
    check("proven native", [&](const Bindings &b) {
        EXPECT_TRUE(native::execute(*proven, b, runtime::RunOptions()));
    });
}

// A kernel whose proof fails (the verifier corpus's guard-strip case)
// never gets a KernelProof: it is emitted checked and still faults on
// native with the bytecode VM's diagnostic.
TEST(NativeKernel, UnprovenKernelKeepsChecksAndDiagnostic)
{
    CacheDirGuard cache;
    SpmmFixture fx(40, 200, 17, 37);
    ir::PrimFunc func =
        core::compileSpmmCsrFunc(fx.feat, core::SpmmSchedule());
    ir::PrimFunc bad = ir::copyFunc(func);
    GuardStripper strip("feat_size");
    bad->body = strip.mutateStmt(func->body);
    ASSERT_FALSE(verify::verifyFunc(bad, csrFacts(fx.a, fx.feat)).ok);

    native::EmitResult emitted = native::emitC(bad, "guard-strip");
    EXPECT_FALSE(emitted.proven);
    std::string body = kernelBody(emitted);
    EXPECT_NE(body.find("ST_ST("), std::string::npos);
    EXPECT_EQ(body.find("ST_UNPROVEN"), std::string::npos);

    auto kernel = native::compileNative(bad, "guard-strip");
    NDArray c({fx.a.rows * fx.feat}, ir::DataType::float32());
    std::string native_text = raised(
        [&] { native::execute(*kernel, fx.bindings(&c), {}); });
    c.zero();
    std::string vm_text =
        raised([&] { runtime::run(bad, fx.bindings(&c)); });
    EXPECT_NE(native_text.find("out of bounds"), std::string::npos)
        << native_text;
    EXPECT_EQ(native_text, vm_text);
}

// execute() binds only the parameter slots a kernel accesses. A
// proven kernel runs natively with an unused parameter left unbound;
// an unbound parameter it does read is refused by the proven entry
// guard and faults on the checked kernel with the VM's diagnostic.
TEST(NativeKernel, BindsOnlyTheParametersItAccesses)
{
    CacheDirGuard cache;
    // f(n, out, unused, v): for i in [0, n): out[i] = v[i]
    auto func = ir::primFunc("copy_used");
    ir::Var n = ir::var("n");
    ir::Var i = ir::var("i");
    ir::Buffer out = ir::denseBuffer("out", {ir::intImm(16)},
                                     ir::DataType::float32());
    ir::Buffer unused = ir::denseBuffer("unused", {ir::intImm(16)},
                                        ir::DataType::float32());
    ir::Buffer v = ir::denseBuffer("v", {ir::intImm(16)},
                                   ir::DataType::float32());
    func->params = {n, out->data, unused->data, v->data};
    for (const ir::Buffer &buffer : {out, unused, v}) {
        func->bufferMap.emplace_back(buffer->data, buffer);
    }
    func->body = ir::forLoop(i, ir::intImm(0), n,
                             ir::bufferStore(out, {i},
                                             ir::bufferLoad(v, {i})));
    func->stage = ir::IrStage::kStage3;
    verify::VerifyContext facts;
    facts.scalar("n", 8);
    ASSERT_TRUE(verify::verifyFunc(func, facts).ok);
    native::KernelProof proof;
    proof.scalars = {{"n", 8}};
    auto proven = native::compileNativeModule({func}, "bind-used", nullptr,
                                              {&proof})[0];
    ASSERT_NE(proven, nullptr);
    ASSERT_TRUE(proven->proven);
    EXPECT_EQ(proven->usedParamSlots, (std::vector<int>{0, 2}));
    auto checked = native::compileNative(func, "bind-used");
    EXPECT_EQ(checked->usedParamSlots, (std::vector<int>{0, 2}));

    std::vector<float> v_host = randomVector(16, 29);
    NDArray v_arr = NDArray::fromFloat(v_host);
    NDArray c({16}, ir::DataType::float32());
    Bindings bound;
    bound.scalars = {{"n", 8}};
    bound.arrays = {{"out_data", &c}, {"v_data", &v_arr}};
    EXPECT_TRUE(native::execute(*proven, bound, {}));
    NDArray reference({16}, ir::DataType::float32());
    Bindings ref_bound = bound;
    ref_bound.arrays["out_data"] = &reference;
    runtime::runInterpreted(func, ref_bound);
    EXPECT_TRUE(bitwiseEqual(reference, c));

    Bindings no_v = bound;
    no_v.arrays.erase("v_data");
    EXPECT_FALSE(native::execute(*proven, no_v, {}));
    std::string native_text =
        raised([&] { native::execute(*checked, no_v, {}); });
    runtime::RunOptions vm;
    vm.backend = Backend::kBytecode;
    std::string vm_text = raised([&] { runtime::run(func, no_v, vm); });
    EXPECT_NE(native_text.find("no storage bound for buffer 'v_data'"),
              std::string::npos)
        << native_text;
    EXPECT_EQ(native_text, vm_text);
}

// A proven kernel called with a scalar off its proof: the entry guard
// refuses before any side effect, the executor reruns the execution
// on bytecode, which raises its own diagnostic, and the miss counts.
TEST(NativeEngine, ProofGuardRefusesScalarOffItsProof)
{
    CacheDirGuard cache;
    SpmmFixture fx(40, 200, 19);
    engine::CompiledKernel kernel = engine::compileKernel(
        core::compileSpmmCsrFunc(fx.feat, core::SpmmSchedule()));
    verify::VerifyContext facts = csrFacts(fx.a, fx.feat);
    ASSERT_TRUE(verify::verifyFunc(kernel.func, facts).ok);
    auto proof = std::make_shared<native::KernelProof>();
    proof->scalars = {{"m", fx.a.rows},
                      {"n", fx.a.cols},
                      {"nnz", fx.a.nnz()},
                      {"feat_size", fx.feat}};
    kernel.proof = proof;
    auto natives = native::compileNativeModule({kernel.func}, "off-proof",
                                               nullptr, {proof.get()});
    ASSERT_NE(natives[0], nullptr);
    ASSERT_TRUE(natives[0]->proven);
    kernel.native->set(natives[0]);

    engine::ParallelExecutor executor(
        std::make_shared<engine::ThreadPool>(1));
    observe::Counter misses;
    engine::ExecOptions native_exec;
    native_exec.backend = Backend::kNative;
    native_exec.guardMisses = &misses;
    engine::ExecOptions bytecode_exec;

    // On its proof: served natively, bitwise the interpreter's.
    NDArray c({fx.a.rows * fx.feat}, ir::DataType::float32());
    Bindings bound = fx.bindings(&c);
    executor.run({&kernel}, {&bound}, native_exec);
    EXPECT_EQ(misses.value(), 0u);
    EXPECT_TRUE(bitwiseEqual(c, fx.interpreterReference()));

    // One row more than proven: J_indptr is read past its end.
    Bindings off = fx.bindings(&c);
    off.scalars["m"] = fx.a.rows + 1;
    std::string native_text =
        raised([&] { executor.run({&kernel}, {&off}, native_exec); });
    EXPECT_EQ(misses.value(), 1u);
    std::string vm_text =
        raised([&] { executor.run({&kernel}, {&off}, bytecode_exec); });
    EXPECT_NE(native_text.find("out of bounds for buffer 'J_indptr'"),
              std::string::npos)
        << native_text;
    EXPECT_EQ(native_text, vm_text);
}

// A native spmmHyb whose output is one row short: the proven kernel's
// guard refuses the short C, and the dispatch fails exactly as on a
// bytecode engine. The structure has one bucket, so one kernel runs.
TEST(NativeEngine, ProofGuardRefusesShortOutput)
{
    CacheDirGuard cache;
    const int64_t rows = 9;
    const int64_t cols = 7;
    const int64_t feat = 8;
    std::vector<float> dense(rows * cols, 0.0f);
    for (int64_t r = 0; r < rows; ++r) {
        dense[r * cols + r % cols] = 1.0f + 0.25f * static_cast<float>(r);
        dense[r * cols + (r + 3) % cols] = -0.5f;
    }
    Csr a = format::csrFromDense(rows, cols, dense);
    engine::HybConfig config;
    std::vector<float> b_host = randomVector(cols * feat, 23);
    NDArray b = NDArray::fromFloat(b_host);

    auto dispatch = [&](engine::Engine *eng, NDArray *c) {
        return raised([&] { eng->spmmHyb(a, feat, &b, c, config); });
    };
    engine::EngineOptions options;
    options.numThreads = 1;
    engine::Engine bytecode_engine(options);
    options.backend = Backend::kNative;
    options.nativePromoteAfter = 0;
    engine::Engine native_engine(options);

    NDArray short_c({(rows - 1) * feat}, ir::DataType::float32());
    std::string vm_text = dispatch(&bytecode_engine, &short_c);
    std::string native_text = dispatch(&native_engine, &short_c);
    EXPECT_NE(vm_text.find("out of bounds for buffer 'C_data'"),
              std::string::npos)
        << vm_text;
    EXPECT_EQ(native_text, vm_text);
    engine::NativeStats stats = native_engine.nativeStats();
    EXPECT_EQ(stats.compiles + stats.diskHits, 1u);
    EXPECT_EQ(stats.guardMisses, 1u);
    EXPECT_EQ(native_engine.metricsSnapshot()
                  .counters.at("native.guard_misses"),
              1u);

    // A full-size C passes the guard and is served natively.
    NDArray c({rows * feat}, ir::DataType::float32());
    EXPECT_EQ(dispatch(&native_engine, &c), "");
    EXPECT_EQ(native_engine.nativeStats().guardMisses, 1u);
    EXPECT_TRUE(bitwiseEqual(c, engineHybReference(a, feat, b_host, config)));
}

// The served hyb kernels, as the engine emits them: proven, so every
// access is a plain typed load or store behind one entry guard, the
// accumulator init sits in its own loop, and no row index is
// recomputed through a floor division.
TEST(NativeEmitter, ProvenHybKernelsAreUncheckedAndDivisionFree)
{
    Csr a = graph::powerLawGraph(300, 1800, 2.0, 7919);
    format::Hyb hyb = format::hybFromCsr(a, 4);
    const int64_t feat = 32;
    std::vector<ir::PrimFunc> funcs;
    for (const core::HybKernelPlan &plan :
         core::compileSpmmHybFuncs(hyb, feat)) {
        funcs.push_back(plan.func);
    }
    native::KernelProof proof;
    proof.scalars = {{"m", a.rows},
                     {"n", a.cols},
                     {"nnz", a.nnz()},
                     {"feat_size", feat}};
    std::vector<const native::KernelProof *> proofs(funcs.size(), &proof);
    native::ModuleEmitResult proven = native::emitModule(funcs, "hyb", proofs);
    native::ModuleEmitResult checked = native::emitModule(funcs, "hyb");
    ASSERT_GT(funcs.size(), 1u);
    for (const native::ModuleEmitResult *module : {&proven, &checked}) {
        std::string kernels =
            module->source.substr(module->source.find("/* kernel: "));
        EXPECT_EQ(kernels.find("st_floordiv"), std::string::npos);
        EXPECT_EQ(kernels.find("== 0)) {"), std::string::npos)
            << "an init still tests for the first reduction step";
    }
    for (const native::EmitResult &kernel : proven.kernels) {
        EXPECT_TRUE(kernel.proven) << kernel.name;
    }
    std::string kernels =
        proven.source.substr(proven.source.find("/* kernel: "));
    EXPECT_EQ(kernels.find("ST_LD("), std::string::npos);
    EXPECT_EQ(kernels.find("ST_ST("), std::string::npos);
    EXPECT_EQ(kernels.find("double "), std::string::npos);
    EXPECT_NE(kernels.find("return ST_UNPROVEN;"), std::string::npos);
}

/** Occurrences of `needle` in `text`. */
size_t
countOf(const std::string &text, const std::string &needle)
{
    size_t count = 0;
    for (size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1)) {
        ++count;
    }
    return count;
}

// The kernels the engine serves take each bucket's row count as a
// scalar, so a module emits one body per bucket shape (width, rows per
// block) and every kernel is a stub that hands the body its table.
// The bodies stay proven and division-free.
TEST(NativeEmitter, HybModuleEmitsOneBodyPerBucketShape)
{
    Csr a = graph::powerLawGraph(300, 1800, 2.0, 7919);
    format::Hyb hyb = format::hybFromCsr(a, 4);
    const int64_t feat = 32;
    std::vector<core::HybKernelPlan> plans = core::compileSpmmHybFuncs(
        hyb, feat, core::ScheduleTarget::kHostRowScalar);
    native::KernelProof proof;
    proof.scalars = {{"m", a.rows},
                     {"n", a.cols},
                     {"nnz", a.nnz()},
                     {"feat_size", feat}};
    std::vector<ir::PrimFunc> funcs;
    std::set<std::pair<int, int>> shapes;
    for (const core::HybKernelPlan &plan : plans) {
        funcs.push_back(plan.func);
        shapes.emplace(plan.width, plan.rowsPerBlock);
        proof.scalars[core::ellRowsParam(plan.suffix)] = plan.numRows;
    }
    ASSERT_GT(plans.size(), shapes.size()) << "no two buckets share a shape";
    std::vector<const native::KernelProof *> proofs(funcs.size(), &proof);
    native::ModuleEmitResult module = native::emitModule(funcs, "shapes", proofs);
    EXPECT_EQ(module.numEntries, static_cast<int>(plans.size()));
    EXPECT_EQ(countOf(module.source, "static int32_t st_body_"), shapes.size());
    EXPECT_EQ(countOf(module.source, "static int32_t st_entry_"), plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
        EXPECT_TRUE(module.kernels[i].proven) << plans[i].suffix;
        EXPECT_EQ(module.kernels[i].scalarNames,
                  std::vector<std::string>{core::ellRowsParam(plans[i].suffix)});
    }
    std::string kernels =
        module.source.substr(module.source.find("/* kernel: "));
    EXPECT_EQ(kernels.find("st_floordiv"), std::string::npos);
    EXPECT_EQ(kernels.find("ST_LD("), std::string::npos);
    EXPECT_EQ(kernels.find("ST_ST("), std::string::npos);

    native::EmitResult csr = native::emitC(
        core::compileSpmmCsrFunc(16, core::SpmmSchedule()), "one");
    EXPECT_EQ(countOf(csr.source, "static int32_t st_body_"), 1u);
}

/** One `#pragma GCC unroll` loop of an emitted source. */
struct HintedLoop
{
    int64_t count = 0;
    std::string var;  ///< the loop variable
    std::string body; ///< the text between the loop's braces
};

/** Every hinted loop of `source`, in source order. */
std::vector<HintedLoop>
hintedLoops(const std::string &source)
{
    const std::string pragma = "#pragma GCC unroll ";
    std::vector<HintedLoop> loops;
    for (size_t at = source.find(pragma); at != std::string::npos;
         at = source.find(pragma, at + 1)) {
        HintedLoop loop;
        size_t count_end = source.find('\n', at);
        loop.count = std::stoll(source.substr(
            at + pragma.size(), count_end - at - pragma.size()));
        // The pragma's very next line is the loop it hints.
        size_t header = source.find_first_not_of(' ', count_end + 1);
        EXPECT_EQ(source.compare(header, 13, "for (int64_t "), 0);
        size_t var_begin = header + 13;
        loop.var = source.substr(
            var_begin, source.find(' ', var_begin) - var_begin);
        size_t open = source.find('{', header);
        int depth = 1;
        size_t close = open + 1;
        for (; depth > 0; ++close) {
            depth += source[close] == '{' ? 1 : source[close] == '}' ? -1 : 0;
        }
        loop.body = source.substr(open + 1, close - open - 2);
        loops.push_back(loop);
    }
    return loops;
}

/** The proven hyb module the engine serves at `feat`, one source per
 *  shared body. */
std::vector<std::string>
provenHybBodies(const Csr &a, int64_t feat)
{
    format::Hyb hyb = format::hybFromCsr(a, 4);
    native::KernelProof proof;
    proof.scalars = {{"m", a.rows},
                     {"n", a.cols},
                     {"nnz", a.nnz()},
                     {"feat_size", feat}};
    std::vector<ir::PrimFunc> funcs;
    for (const core::HybKernelPlan &plan : core::compileSpmmHybFuncs(
             hyb, feat, core::ScheduleTarget::kHostRowScalar)) {
        funcs.push_back(plan.func);
        proof.scalars[core::ellRowsParam(plan.suffix)] = plan.numRows;
    }
    std::vector<const native::KernelProof *> proofs(funcs.size(), &proof);
    std::string source = native::emitModule(funcs, "hint", proofs).source;
    const std::string marker = "static int32_t st_body_";
    std::vector<std::string> bodies;
    for (size_t at = source.find(marker); at != std::string::npos;) {
        size_t next = source.find(marker, at + 1);
        bodies.push_back(source.substr(at, next - at));
        at = next;
    }
    return bodies;
}

// A proven kernel's feature-accumulator loops (constant bounds, a
// straight-line body over a stack array indexed by the loop variable)
// carry `#pragma GCC unroll` with their count of 16-byte vector
// iterations, so gcc vectorizes and then peels them and the array
// stays in registers. No other loop is hinted, and a checked kernel
// is emitted as before.
TEST(NativeEmitter, AccumulatorLoopsCarryUnrollHint)
{
    Csr a = graph::powerLawGraph(300, 1800, 2.0, 7919);
    for (auto [feat, count] : {std::pair<int64_t, int64_t>{32, 8},
                               std::pair<int64_t, int64_t>{8, 2},
                               std::pair<int64_t, int64_t>{4, 0}}) {
        SCOPED_TRACE("feat " + std::to_string(feat));
        std::vector<std::string> bodies = provenHybBodies(a, feat);
        ASSERT_FALSE(bodies.empty());
        for (const std::string &body : bodies) {
            // Zero-init, accumulate over one non-zero, write-back.
            std::vector<HintedLoop> loops = hintedLoops(body);
            EXPECT_EQ(loops.size(), count == 0 ? 0u : 3u);
            for (const HintedLoop &loop : loops) {
                EXPECT_EQ(loop.count, count);
                EXPECT_NE(loop.body.find("a0[" + loop.var + "]"),
                          std::string::npos);
            }
        }
    }

    // The fused attention kernel: only the head-dim accumulator's
    // loops. The QK dot reduces into a constant-index a3[0], the
    // softmax loops are guarded per row, one of them calls exp, and
    // the outer loops nest; none of those is hinted.
    auto mask = dfg::SparsityPattern::fromCsr(
        graph::powerLawGraph(64, 512, 1.8, 6));
    dfg::GraphLowering attention =
        dfg::lowerGraph(model::buildAttentionGraph(mask, 32), true);
    ASSERT_EQ(attention.funcs.size(), 1u);
    native::KernelProof proof;
    std::vector<const native::KernelProof *> proofs = {&proof};
    native::ModuleEmitResult fused =
        native::emitModule(attention.funcs, "hint", proofs);
    ASSERT_TRUE(fused.kernels[0].proven);
    std::vector<HintedLoop> loops = hintedLoops(fused.source);
    EXPECT_EQ(loops.size(), 3u);
    EXPECT_GT(countOf(fused.source, "for (int64_t "), loops.size());
    for (const HintedLoop &loop : loops) {
        EXPECT_EQ(loop.count, 8);
        EXPECT_EQ(loop.body.find("for ("), std::string::npos);
        EXPECT_EQ(loop.body.find("if ("), std::string::npos);
        EXPECT_EQ(loop.body.find("exp("), std::string::npos);
        EXPECT_EQ(loop.body.find("[INT64_C(0)]"), std::string::npos);
        EXPECT_NE(loop.body.find("[" + loop.var + "]"), std::string::npos);
    }

    // Without a proof the kernels keep their checked views and no
    // loop is hinted.
    format::Hyb hyb = format::hybFromCsr(a, 4);
    for (const core::HybKernelPlan &plan : core::compileSpmmHybFuncs(
             hyb, 32, core::ScheduleTarget::kHostRowScalar)) {
        EXPECT_EQ(native::emitC(plan.func, "hint").source.find("#pragma"),
                  std::string::npos);
    }
    EXPECT_EQ(native::emitC(attention.funcs[0], "hint").source.find(
                  "#pragma"),
              std::string::npos);
}

// Two buckets of one width share a native body; each entry still
// checks its own proof. Bound with the other bucket's row count, or
// with its shorter row-index array, the entry refuses before any side
// effect and the execution reruns on bytecode: bitwise the
// interpreter's result when the bindings stay in bounds, else the
// same diagnostic.
TEST(NativeEngine, SharedBodyGuardRefusesAnotherBucketsRows)
{
    CacheDirGuard cache;
    Csr a = graph::powerLawGraph(300, 1800, 2.0, 7919);
    format::Hyb hyb = format::hybFromCsr(a, 4);
    const int64_t feat = 8;
    std::vector<core::HybKernelPlan> plans = core::compileSpmmHybFuncs(
        hyb, feat, core::ScheduleTarget::kHostRowScalar);

    // The engine's table: the CSR facts, every bucket's row count and
    // index arrays, and the bindings they describe.
    verify::VerifyContext facts = csrFacts(a, feat);
    auto proof = std::make_shared<native::KernelProof>();
    proof->scalars = {{"m", a.rows},
                      {"n", a.cols},
                      {"nnz", a.nnz()},
                      {"feat_size", feat}};
    Bindings bound;
    bound.scalars.insert(proof->scalars.begin(), proof->scalars.end());
    std::vector<NDArray> storage;
    storage.reserve(3 * plans.size() + 2);
    for (const core::HybKernelPlan &plan : plans) {
        const format::Ell &ell = hyb.buckets[plan.partition][plan.bucket];
        std::string rows = core::ellRowsParam(plan.suffix);
        facts.scalar(rows, ell.numRows());
        proof->scalars[rows] = ell.numRows();
        bound.scalars[rows] = ell.numRows();
        facts.int32Array(core::ellRowIndicesParam(plan.suffix), ell.rowIndices);
        facts.int32Array(core::ellColIndicesParam(plan.suffix), ell.colIndices);
        storage.push_back(NDArray::fromInt32(ell.rowIndices));
        bound.arrays[core::ellRowIndicesParam(plan.suffix)] = &storage.back();
        storage.push_back(NDArray::fromInt32(ell.colIndices));
        bound.arrays[core::ellColIndicesParam(plan.suffix)] = &storage.back();
        storage.push_back(NDArray::fromFloat(ell.values));
        bound.arrays[core::hybValuesParam(plan.suffix)] = &storage.back();
    }
    storage.push_back(NDArray::fromFloat(randomVector(a.cols * feat, 31)));
    bound.arrays["B_data"] = &storage.back();
    storage.push_back(NDArray({a.rows * feat}, ir::DataType::float32()));
    bound.arrays["C_data"] = &storage.back();

    // Two buckets of one shape; `big` has more rows than `small`.
    const core::HybKernelPlan *big = nullptr;
    const core::HybKernelPlan *small = nullptr;
    for (const core::HybKernelPlan &p : plans) {
        for (const core::HybKernelPlan &q : plans) {
            if (big == nullptr && p.width == q.width &&
                p.rowsPerBlock == q.rowsPerBlock && p.numRows > q.numRows) {
                big = &p;
                small = &q;
            }
        }
    }
    ASSERT_NE(big, nullptr) << "no two same-shape buckets";
    std::vector<ir::PrimFunc> funcs = {big->func, small->func};
    std::vector<const native::KernelProof *> proofs = {proof.get(),
                                                       proof.get()};
    EXPECT_EQ(countOf(native::emitModule(funcs, "shared", proofs).source,
                      "static int32_t st_body_"),
              1u);
    engine::CompiledKernel kernel = engine::compileKernel(big->func);
    ASSERT_TRUE(verify::verifyFunc(kernel.func, facts).ok);
    kernel.proof = proof;
    auto natives =
        native::compileNativeModule(funcs, "shared-body", nullptr, proofs);
    ASSERT_NE(natives[0], nullptr);
    ASSERT_TRUE(natives[0]->proven);
    kernel.native->set(natives[0]);

    engine::ParallelExecutor executor(std::make_shared<engine::ThreadPool>(1));
    observe::Counter misses;
    engine::ExecOptions native_exec;
    native_exec.backend = Backend::kNative;
    native_exec.guardMisses = &misses;
    engine::ExecOptions bytecode_exec;
    NDArray *c = bound.arrays["C_data"];
    auto interpreted = [&](const Bindings &with) {
        Bindings ref = with;
        NDArray out({a.rows * feat}, ir::DataType::float32());
        ref.arrays["C_data"] = &out;
        runtime::runInterpreted(big->func, ref);
        return out;
    };

    // On its own proof: served natively.
    executor.run({&kernel}, {&bound}, native_exec);
    EXPECT_EQ(misses.value(), 0u);
    EXPECT_TRUE(bitwiseEqual(*c, interpreted(bound)));

    // The small bucket's row count: refused, then bytecode runs the
    // fewer rows exactly as the interpreter does.
    Bindings fewer = bound;
    fewer.scalars[core::ellRowsParam(big->suffix)] = small->numRows;
    c->zero();
    executor.run({&kernel}, {&fewer}, native_exec);
    EXPECT_EQ(misses.value(), 1u);
    EXPECT_TRUE(bitwiseEqual(*c, interpreted(fewer)));

    // The small bucket's row ids: read past their end on every tier.
    Bindings shorter = bound;
    std::string row_ids = core::ellRowIndicesParam(big->suffix);
    shorter.arrays[row_ids] =
        bound.arrays[core::ellRowIndicesParam(small->suffix)];
    std::string native_text =
        raised([&] { executor.run({&kernel}, {&shorter}, native_exec); });
    EXPECT_EQ(misses.value(), 2u);
    std::string vm_text =
        raised([&] { executor.run({&kernel}, {&shorter}, bytecode_exec); });
    EXPECT_NE(native_text.find("out of bounds for buffer '" + row_ids + "'"),
              std::string::npos)
        << native_text;
    EXPECT_EQ(native_text, vm_text);
}

// ---------------------------------------------------------------------
// Persistent artifact cache
// ---------------------------------------------------------------------

TEST(NativeCompiler, PersistedArtifactServesWarmStart)
{
    CacheDirGuard cache;
    SpmmFixture fx(200, 2200, 73, 8);
    auto func = core::compileSpmmCsrFunc(fx.feat, core::SpmmSchedule());

    uint64_t before = native::nativeCompileCount();
    auto first = native::compileNative(func, "warm");
    ASSERT_NE(first, nullptr);
    EXPECT_FALSE(first->diskHit);
    EXPECT_EQ(native::nativeCompileCount(), before + 1);

    // A second load of the same (source, tag) — the restarted-process
    // shape — finds the persisted .so and never invokes the compiler.
    auto second = native::compileNative(func, "warm");
    ASSERT_NE(second, nullptr);
    EXPECT_TRUE(second->diskHit);
    EXPECT_EQ(second->soPath, first->soPath);
    EXPECT_EQ(native::nativeCompileCount(), before + 1);

    NDArray c_native({fx.a.rows * fx.feat}, ir::DataType::float32());
    native::execute(*second, fx.bindings(&c_native),
                    runtime::RunOptions());
    EXPECT_TRUE(bitwiseEqual(fx.interpreterReference(), c_native));
}

TEST(NativeCompiler, CorruptedArtifactRejectedAndRebuilt)
{
    CacheDirGuard cache;
    SpmmFixture fx(150, 1500, 74, 8);
    auto func = core::compileSpmmCsrFunc(fx.feat, core::SpmmSchedule());
    auto first = native::compileNative(func, "corrupt");
    ASSERT_NE(first, nullptr);
    std::string so_path = first->soPath;
    // Drop the dlopen handle before scribbling over its backing file
    // (truncating a mapped object is a SIGBUS, not a test).
    first.reset();

    // Truncate the persisted artifact to garbage: dlopen fails, the
    // loader must rebuild rather than serve the corpse.
    {
        std::ofstream trash(so_path,
                            std::ios::binary | std::ios::trunc);
        trash << "not an ELF object";
    }
    uint64_t before = native::nativeCompileCount();
    auto rebuilt = native::compileNative(func, "corrupt");
    ASSERT_NE(rebuilt, nullptr);
    EXPECT_FALSE(rebuilt->diskHit);
    EXPECT_EQ(native::nativeCompileCount(), before + 1);

    NDArray c_native({fx.a.rows * fx.feat}, ir::DataType::float32());
    native::execute(*rebuilt, fx.bindings(&c_native),
                    runtime::RunOptions());
    EXPECT_TRUE(bitwiseEqual(fx.interpreterReference(), c_native));
}

TEST(NativeCompiler, StaleArtifactRejectedByMetaCheck)
{
    CacheDirGuard cache;
    auto func = core::compileSpmmCsrFunc(8, core::SpmmSchedule());
    // Two tags bake two distinct meta strings (and hashes). Copying
    // artifact A over B's path simulates a stale/foreign file at a
    // colliding name: B's load must reject A's meta and rebuild.
    auto a = native::compileNative(func, "stale-a");
    auto b = native::compileNative(func, "stale-b");
    ASSERT_NE(a->soPath, b->soPath);
    std::string a_path = a->soPath;
    std::string b_path = b->soPath;
    // Release the mapped handles before rewriting b's backing file.
    a.reset();
    b.reset();
    {
        std::ifstream src(a_path, std::ios::binary);
        std::ofstream dst(b_path, std::ios::binary | std::ios::trunc);
        dst << src.rdbuf();
    }
    uint64_t before = native::nativeCompileCount();
    auto rebuilt = native::compileNative(func, "stale-b");
    ASSERT_NE(rebuilt, nullptr);
    EXPECT_FALSE(rebuilt->diskHit);
    EXPECT_EQ(native::nativeCompileCount(), before + 1);
}

TEST(NativeCompiler, ExactlyOneCompileUnderContention)
{
    CacheDirGuard cache;
    auto func = core::compileSpmmCsrFunc(16, core::SpmmSchedule());
    uint64_t before = native::nativeCompileCount();

    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const native::NativeKernel>> kernels(
        kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            kernels[t] = native::compileNative(func, "race");
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }

    // The process-wide cache lock serializes probe-or-build: one
    // thread compiles, the other seven load its installed artifact.
    EXPECT_EQ(native::nativeCompileCount(), before + 1);
    int misses = 0;
    for (const auto &kernel : kernels) {
        ASSERT_NE(kernel, nullptr);
        ASSERT_NE(kernel->entry, nullptr);
        misses += kernel->diskHit ? 0 : 1;
    }
    EXPECT_EQ(misses, 1);
}

TEST(NativeCompiler, MissingCompilerFailsAsUserError)
{
    CacheDirGuard cache;
    EnvGuard cc("SPARSETIR_NATIVE_CC",
                "/nonexistent/sparsetir-test-cc");
    auto func = core::compileSpmmCsrFunc(8, core::SpmmSchedule());
    uint64_t before = native::nativeCompileCount();
    EXPECT_THROW(native::compileNative(func, "no-cc"), UserError);
    EXPECT_EQ(native::nativeCompileCount(), before);
}

// Bitwise parity must not depend on how the compiler is configured:
// -ffp-contract=off keeps `acc + a * b` from fusing into one FMA under
// -march=native, and the compiler command is part of the artifact's
// identity, so a .so built under other flags is never reused.
TEST(NativeCompiler, CompilerCommandKeepsParityAndIdentity)
{
    CacheDirGuard cache;
    SpmmFixture fx(300, 3600, 75);
    auto func = core::compileSpmmCsrFunc(fx.feat, core::SpmmSchedule());
    auto plain = native::compileNative(func, "flags");
    ASSERT_NE(plain, nullptr);

    EnvGuard cc("SPARSETIR_NATIVE_CC", "cc -march=native");
    uint64_t before = native::nativeCompileCount();
    auto tuned = native::compileNative(func, "flags");
    ASSERT_NE(tuned, nullptr);
    EXPECT_NE(tuned->soPath, plain->soPath);
    EXPECT_FALSE(tuned->diskHit);
    EXPECT_EQ(native::nativeCompileCount(), before + 1);

    NDArray c_native({fx.a.rows * fx.feat}, ir::DataType::float32());
    native::execute(*tuned, fx.bindings(&c_native),
                    runtime::RunOptions());
    EXPECT_TRUE(bitwiseEqual(fx.interpreterReference(), c_native));
}

// A module keeps the kernels the emitter accepts and reports the rest
// one by one: one compiler run serves the accepted kernel.
TEST(NativeCompiler, ModuleLeavesRejectedKernelOut)
{
    CacheDirGuard cache;
    SpmmFixture fx(160, 1700, 76, 8);
    auto stage3 = core::compileSpmmCsrFunc(fx.feat, core::SpmmSchedule());
    ir::PrimFunc stage1 = core::buildSddmm(true);

    uint64_t before = native::nativeCompileCount();
    std::vector<std::string> rejected;
    auto kernels =
        native::compileNativeModule({stage3, stage1}, "mixed", &rejected);
    EXPECT_EQ(native::nativeCompileCount(), before + 1);
    ASSERT_EQ(kernels.size(), 2u);
    ASSERT_NE(kernels[0], nullptr);
    EXPECT_EQ(kernels[1], nullptr);
    ASSERT_EQ(rejected.size(), 2u);
    EXPECT_TRUE(rejected[0].empty());
    EXPECT_NE(rejected[1].find("cannot compile"), std::string::npos);

    NDArray c_native({fx.a.rows * fx.feat}, ir::DataType::float32());
    native::execute(*kernels[0], fx.bindings(&c_native),
                    runtime::RunOptions());
    EXPECT_TRUE(bitwiseEqual(fx.interpreterReference(), c_native));

    // Nothing accepted: no compiler run, every kernel null.
    auto none = native::compileNativeModule({stage1}, "none");
    ASSERT_EQ(none.size(), 1u);
    EXPECT_EQ(none[0], nullptr);
    EXPECT_EQ(native::nativeCompileCount(), before + 1);
}

// The compiler is spawned over an argv, never through a shell: a
// cache directory whose path holds a space and a quote still builds
// and loads.
TEST(NativeCompiler, CacheDirWithSpaceAndQuoteCompilesAndLoads)
{
    ScratchDir odd("/tmp/sparsetir native 'q-");
    EnvGuard dir("SPARSETIR_NATIVE_CACHE_DIR", odd.dir().c_str());
    SpmmFixture fx(120, 1300, 77, 8);
    auto func = core::compileSpmmCsrFunc(fx.feat, core::SpmmSchedule());

    auto kernel = native::compileNative(func, "odd-dir");
    ASSERT_NE(kernel, nullptr);
    EXPECT_EQ(kernel->soPath.rfind(odd.dir() + "/", 0), 0u);
    EXPECT_EQ(countModules(odd.dir()), 1);

    NDArray c_native({fx.a.rows * fx.feat}, ir::DataType::float32());
    native::execute(*kernel, fx.bindings(&c_native),
                    runtime::RunOptions());
    EXPECT_TRUE(bitwiseEqual(fx.interpreterReference(), c_native));
}

// ---------------------------------------------------------------------
// Engine promotion policy
// ---------------------------------------------------------------------

TEST(NativeEngine, SynchronousPromotionSwapsArtifactTransparently)
{
    CacheDirGuard cache;
    Csr a = graph::powerLawGraph(350, 4200, 1.9, 81);
    int64_t feat = 16;
    auto b_host = randomVector(a.cols * feat, 82);
    NDArray reference = engineSpmmReference(a, feat, b_host);

    engine::EngineOptions options;
    options.backend = Backend::kNative;
    options.nativePromoteAfter = 0;  // promote inside the first resolve
    engine::Engine eng(options);

    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    eng.spmmCsr(a, feat, &b, &c);
    EXPECT_TRUE(bitwiseEqual(reference, c));

    engine::NativeStats stats = eng.nativeStats();
    EXPECT_EQ(stats.promotions, 1u);
    EXPECT_EQ(stats.compiles, 1u);
    EXPECT_EQ(stats.fallbacks, 0u);

    // Warm dispatch runs the swapped-in native kernel; still bitwise.
    NDArray c_warm({a.rows * feat}, ir::DataType::float32());
    eng.spmmCsr(a, feat, &b, &c_warm);
    EXPECT_TRUE(bitwiseEqual(reference, c_warm));
    EXPECT_EQ(eng.nativeStats().promotions, 1u);
}

TEST(NativeEngine, WarmStartedEngineServesPersistedArtifact)
{
    CacheDirGuard cache;
    Csr a = graph::powerLawGraph(250, 3000, 1.7, 83);
    int64_t feat = 16;
    auto b_host = randomVector(a.cols * feat, 84);
    NDArray reference = engineSpmmReference(a, feat, b_host);

    engine::EngineOptions options;
    options.backend = Backend::kNative;
    options.nativePromoteAfter = 0;

    {
        engine::Engine cold(options);
        NDArray b = NDArray::fromFloat(b_host);
        NDArray c({a.rows * feat}, ir::DataType::float32());
        cold.spmmCsr(a, feat, &b, &c);
        EXPECT_TRUE(bitwiseEqual(reference, c));
        EXPECT_GE(cold.nativeStats().compiles, 1u);
    }

    // A second engine (the restarted-server shape) finds the
    // persisted .so: zero compiler invocations, pure disk hits.
    uint64_t cc_before = native::nativeCompileCount();
    engine::Engine warm(options);
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    warm.spmmCsr(a, feat, &b, &c);
    EXPECT_TRUE(bitwiseEqual(reference, c));

    engine::NativeStats stats = warm.nativeStats();
    EXPECT_EQ(stats.promotions, 1u);
    EXPECT_EQ(stats.compiles, 0u);
    EXPECT_GE(stats.diskHits, 1u);
    EXPECT_EQ(stats.fallbacks, 0u);
    EXPECT_EQ(native::nativeCompileCount(), cc_before);

    // The warm engine's own compile cache still records its (one)
    // artifact build — native promotion rides on the regular miss.
    engine::CacheStats cache_stats = warm.cacheStats();
    EXPECT_EQ(cache_stats.misses, 1u);
    NDArray c2({a.rows * feat}, ir::DataType::float32());
    warm.spmmCsr(a, feat, &b, &c2);
    EXPECT_EQ(warm.cacheStats().hits, 1u);
    EXPECT_TRUE(bitwiseEqual(reference, c2));
}

TEST(NativeEngine, BackgroundPromotionOnceUnderContention)
{
    CacheDirGuard cache;
    Csr a = graph::powerLawGraph(300, 3600, 1.8, 85);
    int64_t feat = 16;
    auto b_host = randomVector(a.cols * feat, 86);
    NDArray reference = engineSpmmReference(a, feat, b_host);

    engine::EngineOptions options;
    options.backend = Backend::kNative;
    options.nativePromoteAfter = 2;  // background, third resolve
    engine::Engine eng(options);

    uint64_t cc_before = native::nativeCompileCount();
    constexpr int kThreads = 8;
    std::vector<NDArray> outputs;
    outputs.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        outputs.emplace_back(
            NDArray({a.rows * feat}, ir::DataType::float32()));
    }
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            NDArray b = NDArray::fromFloat(b_host);
            eng.spmmCsr(a, feat, &b, &outputs[t]);
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }
    // Pre-promotion dispatches served on bytecode; all bitwise.
    for (const NDArray &c : outputs) {
        EXPECT_TRUE(bitwiseEqual(reference, c));
    }

    // The threshold crossed during the contention burst; exactly one
    // background promotion (and one compiler run) results.
    ASSERT_TRUE(waitFor(
        [&] { return eng.nativeStats().promotions >= 1; }))
        << "background promotion never completed";
    EXPECT_EQ(eng.nativeStats().promotions, 1u);
    EXPECT_EQ(eng.nativeStats().compiles, 1u);
    EXPECT_EQ(native::nativeCompileCount(), cc_before + 1);

    // Post-swap dispatch runs the native artifact; still bitwise.
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c_after({a.rows * feat}, ir::DataType::float32());
    eng.spmmCsr(a, feat, &b, &c_after);
    EXPECT_TRUE(bitwiseEqual(reference, c_after));
}

// Destroying an engine with a background promotion still in flight
// must join the promotion task first: the task captures the engine
// and records into its registry, so letting it outlive the engine is
// a use-after-free (caught by ASan before ~Engine waited on the
// promotion futures).
TEST(NativeEngine, DestructionJoinsInFlightPromotion)
{
    CacheDirGuard cache;
    Csr a = graph::powerLawGraph(250, 3000, 1.8, 93);
    int64_t feat = 16;
    auto b_host = randomVector(a.cols * feat, 94);

    uint64_t cc_before = native::nativeCompileCount();
    {
        engine::EngineOptions options;
        options.backend = Backend::kNative;
        options.nativePromoteAfter = 1;  // background, second resolve
        engine::Engine eng(options);
        NDArray b = NDArray::fromFloat(b_host);
        NDArray c({a.rows * feat}, ir::DataType::float32());
        eng.spmmCsr(a, feat, &b, &c);
        eng.spmmCsr(a, feat, &b, &c);  // crosses the threshold
        // Engine destructs here, racing the promotion task's cc run.
    }
    // The destructor waited: the compile finished (and nothing it
    // touched was freed — this test exists for the sanitizer jobs).
    EXPECT_EQ(native::nativeCompileCount(), cc_before + 1);
}

// Served proven, the bucket kernels' feature loops carry unroll hints
// (2, 16 and 32 vector iterations at feat 8, 64 and 128); every width
// stays bitwise the interpreter's.
TEST(NativeEngine, HybBucketsPromoteEveryKernel)
{
    CacheDirGuard cache;
    Csr a = graph::powerLawGraph(200, 2400, 1.9, 87);
    engine::HybConfig config;
    config.partitions = 2;
    for (int64_t feat : {8, 64, 128}) {
        SCOPED_TRACE("feat " + std::to_string(feat));
        auto b_host = randomVector(a.cols * feat, 88);
        NDArray reference({a.rows * feat}, ir::DataType::float32());
        {
            engine::EngineOptions options;
            options.backend = Backend::kInterpreter;
            engine::Engine eng(options);
            NDArray b = NDArray::fromFloat(b_host);
            eng.spmmHyb(a, feat, &b, &reference, config);
        }

        engine::EngineOptions options;
        options.backend = Backend::kNative;
        options.nativePromoteAfter = 0;
        engine::Engine eng(options);
        NDArray b = NDArray::fromFloat(b_host);
        NDArray c({a.rows * feat}, ir::DataType::float32());
        eng.spmmHyb(a, feat, &b, &c, config);
        EXPECT_TRUE(bitwiseEqual(reference, c));

        // One promotion covers every bucket kernel of the artifact.
        engine::NativeStats stats = eng.nativeStats();
        EXPECT_EQ(stats.promotions, 1u);
        EXPECT_GE(stats.compiles, 2u);
        EXPECT_EQ(stats.fallbacks, 0u);

        NDArray c_warm({a.rows * feat}, ir::DataType::float32());
        eng.spmmHyb(a, feat, &b, &c_warm, config);
        EXPECT_TRUE(bitwiseEqual(reference, c_warm));
        EXPECT_EQ(eng.nativeStats().guardMisses, 0u);
    }
}

// A batched dispatch counts toward promotion like a single request:
// a caller that serves only multi-request batches must reach the
// native tier, not stay on bytecode forever.
TEST(NativeEngine, HybBatchesReachNative)
{
    CacheDirGuard cache;
    Csr a = graph::powerLawGraph(200, 2400, 1.9, 99);
    int64_t feat = 8;
    engine::HybConfig config;
    config.partitions = 2;
    constexpr int kRequests = 3;

    std::vector<NDArray> bs;
    std::vector<NDArray> cs;
    std::vector<NDArray> references;
    for (int i = 0; i < kRequests; ++i) {
        bs.push_back(
            NDArray::fromFloat(randomVector(a.cols * feat, 100 + i)));
        cs.emplace_back(std::vector<int64_t>{a.rows * feat},
                        ir::DataType::float32());
        references.emplace_back(std::vector<int64_t>{a.rows * feat},
                                ir::DataType::float32());
    }
    std::vector<engine::SpmmRequest> requests;
    std::vector<engine::SpmmRequest> reference_requests;
    for (int i = 0; i < kRequests; ++i) {
        requests.push_back(engine::SpmmRequest{&bs[i], &cs[i]});
        reference_requests.push_back(
            engine::SpmmRequest{&bs[i], &references[i]});
    }
    {
        engine::EngineOptions options;
        options.backend = Backend::kInterpreter;
        engine::Engine eng(options);
        eng.spmmHybBatch(a, feat, reference_requests, config);
    }

    engine::EngineOptions options;
    options.backend = Backend::kNative;
    options.nativePromoteAfter = 2;  // background, third use
    engine::Engine eng(options);
    for (int round = 0; round < 3; ++round) {
        eng.spmmHybBatch(a, feat, requests, config);
        for (int i = 0; i < kRequests; ++i) {
            EXPECT_TRUE(bitwiseEqual(references[i], cs[i]))
                << "round " << round << ", request " << i;
        }
    }
    ASSERT_TRUE(waitFor(
        [&] { return eng.nativeStats().promotions >= 1; }))
        << "batched dispatches never triggered promotion";
    engine::NativeStats stats = eng.nativeStats();
    EXPECT_EQ(stats.promotions, 1u);
    EXPECT_GE(stats.compiles, 2u);
    EXPECT_EQ(stats.fallbacks, 0u);

    // Post-swap batches run native; still bitwise.
    eng.spmmHybBatch(a, feat, requests, config);
    for (int i = 0; i < kRequests; ++i) {
        EXPECT_TRUE(bitwiseEqual(references[i], cs[i]))
            << "native request " << i;
    }
}

// Promotion state rides on the artifact: once LRU eviction drops an
// artifact, its rebuild must be promoted again rather than silently
// serving bytecode for the rest of the session.
TEST(NativeEngine, EvictedArtifactIsPromotedAgainOnRebuild)
{
    CacheDirGuard cache;
    int64_t feat = 16;
    Csr a = graph::powerLawGraph(240, 2800, 1.8, 95);
    Csr b_graph = graph::powerLawGraph(260, 3000, 1.8, 96);
    auto a_host = randomVector(a.cols * feat, 97);
    auto b_host = randomVector(b_graph.cols * feat, 98);
    NDArray a_reference = engineSpmmReference(a, feat, a_host);

    engine::EngineOptions options;
    options.backend = Backend::kNative;
    options.nativePromoteAfter = 0;
    options.cacheCapacity = 1;
    engine::Engine eng(options);

    NDArray a_b = NDArray::fromFloat(a_host);
    NDArray b_b = NDArray::fromFloat(b_host);
    NDArray a_c({a.rows * feat}, ir::DataType::float32());
    NDArray b_c({b_graph.rows * feat}, ir::DataType::float32());
    eng.spmmCsr(a, feat, &a_b, &a_c);
    eng.spmmCsr(b_graph, feat, &b_b, &b_c);  // evicts A
    NDArray a_again({a.rows * feat}, ir::DataType::float32());
    eng.spmmCsr(a, feat, &a_b, &a_again);  // rebuilds A, evicts B
    EXPECT_EQ(eng.cacheStats().evictions, 2u);
    EXPECT_TRUE(bitwiseEqual(a_reference, a_again));

    // The rebuilt A was promoted: its kernel loaded A's persisted .so.
    engine::NativeStats stats = eng.nativeStats();
    EXPECT_EQ(stats.promotions, 3u);
    EXPECT_EQ(stats.compiles, 2u);
    EXPECT_EQ(stats.diskHits, 1u);
    EXPECT_EQ(stats.fallbacks, 0u);
}

TEST(NativeEngine, MissingCompilerDegradesToBytecode)
{
    CacheDirGuard cache;
    EnvGuard cc("SPARSETIR_NATIVE_CC",
                "/nonexistent/sparsetir-test-cc");
    Csr a = graph::powerLawGraph(220, 2600, 1.8, 89);
    int64_t feat = 16;
    auto b_host = randomVector(a.cols * feat, 90);
    NDArray reference = engineSpmmReference(a, feat, b_host);

    engine::EngineOptions options;
    options.backend = Backend::kNative;
    options.nativePromoteAfter = 0;
    engine::Engine eng(options);

    uint64_t cc_before = native::nativeCompileCount();
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    eng.spmmCsr(a, feat, &b, &c);
    EXPECT_TRUE(bitwiseEqual(reference, c));

    // The promotion ran, the compiler bailed, the dispatch fell back
    // to bytecode — never an error on the request path.
    engine::NativeStats stats = eng.nativeStats();
    EXPECT_EQ(stats.promotions, 1u);
    EXPECT_EQ(stats.compiles, 0u);
    EXPECT_GE(stats.fallbacks, 1u);
    EXPECT_EQ(native::nativeCompileCount(), cc_before);

    NDArray c_warm({a.rows * feat}, ir::DataType::float32());
    eng.spmmCsr(a, feat, &b, &c_warm);
    EXPECT_TRUE(bitwiseEqual(reference, c_warm));
}

// One promotion of a multi-kernel hyb artifact is one module: one
// compiler run, one installed .so shared by every bucket kernel. A
// restarted engine loads that module whole from disk.
TEST(NativeEngine, HybArtifactPromotesAsOneModule)
{
    CacheDirGuard cache;
    Csr a = graph::powerLawGraph(200, 2400, 1.9, 101);
    int64_t feat = 8;
    auto b_host = randomVector(a.cols * feat, 102);
    engine::HybConfig config;
    config.partitions = 2;
    NDArray reference = engineHybReference(a, feat, b_host, config);

    engine::EngineOptions options;
    options.backend = Backend::kNative;
    options.nativePromoteAfter = 0;
    NDArray b = NDArray::fromFloat(b_host);
    uint64_t cc_before = native::nativeCompileCount();
    {
        // Every kernel compiled natively by one compiler run into one
        // installed module.
        engine::Engine cold(options);
        NDArray c({a.rows * feat}, ir::DataType::float32());
        engine::DispatchInfo info = cold.spmmHyb(a, feat, &b, &c, config);
        EXPECT_TRUE(bitwiseEqual(reference, c));
        ASSERT_GE(info.numKernels, 2);
        EXPECT_EQ(native::nativeCompileCount(), cc_before + 1);
        EXPECT_EQ(countModules(cache.dir()), 1);
        engine::NativeStats stats = cold.nativeStats();
        EXPECT_EQ(stats.promotions, 1u);
        EXPECT_EQ(stats.compiles, static_cast<uint64_t>(info.numKernels));
        EXPECT_EQ(stats.fallbacks, 0u);
    }

    engine::Engine warm(options);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    engine::DispatchInfo info = warm.spmmHyb(a, feat, &b, &c, config);
    EXPECT_TRUE(bitwiseEqual(reference, c));
    engine::NativeStats stats = warm.nativeStats();
    EXPECT_EQ(stats.promotions, 1u);
    EXPECT_EQ(stats.compiles, 0u);
    EXPECT_EQ(stats.diskHits, static_cast<uint64_t>(info.numKernels));
    EXPECT_EQ(stats.fallbacks, 0u);
    EXPECT_EQ(native::nativeCompileCount(), cc_before + 1);
}

/** `a` with every column index moved by `shift` (mod cols), each row
 *  re-sorted: the same row lengths, nnz and shape over other columns. */
Csr
shiftedColumns(const Csr &a, int32_t shift)
{
    Csr out = a;
    for (int64_t r = 0; r < a.rows; ++r) {
        std::vector<std::pair<int32_t, float>> row;
        for (int32_t q = a.indptr[r]; q < a.indptr[r + 1]; ++q) {
            row.emplace_back(
                static_cast<int32_t>((a.indices[q] + shift) % a.cols),
                a.values[q]);
        }
        std::sort(row.begin(), row.end());
        for (size_t i = 0; i < row.size(); ++i) {
            out.indices[a.indptr[r] + i] = row[i].first;
            out.values[a.indptr[r] + i] = row[i].second;
        }
    }
    return out;
}

// A module is addressed by its C source alone: structures whose
// kernels emit the same C (for CSR SpMM: equal m, n, nnz and feat; for
// hyb: equal bucket row counts) load the first one's module from disk
// instead of running the compiler again.
TEST(NativeEngine, SameSourceModuleIsServedFromDisk)
{
    CacheDirGuard cache;
    int64_t feat = 8;
    Csr base = graph::powerLawGraph(180, 1800, 1.8, 111);
    auto b_host = randomVector(base.cols * feat, 112);
    NDArray b = NDArray::fromFloat(b_host);

    engine::EngineOptions options;
    options.backend = Backend::kNative;
    options.nativePromoteAfter = 0;
    engine::Engine eng(options);

    auto spmm_csr = [&](const Csr &a) {
        NDArray c({a.rows * feat}, ir::DataType::float32());
        eng.spmmCsr(a, feat, &b, &c);
        EXPECT_TRUE(bitwiseEqual(engineSpmmReference(a, feat, b_host), c));
    };
    uint64_t cc_before = native::nativeCompileCount();
    spmm_csr(base);
    EXPECT_EQ(native::nativeCompileCount(), cc_before + 1);
    for (int32_t shift : {1, 2}) {
        Csr other = shiftedColumns(base, shift);
        ASSERT_NE(engine::structureHash(other), engine::structureHash(base));
        uint64_t disk_hits = eng.nativeStats().diskHits;
        spmm_csr(other);
        EXPECT_EQ(native::nativeCompileCount(), cc_before + 1)
            << "shift " << shift;
        EXPECT_EQ(eng.nativeStats().diskHits, disk_hits + 1)
            << "shift " << shift;
    }
    // Another nnz is another proof guard, so another module.
    spmm_csr(graph::powerLawGraph(180, 1500, 1.8, 113));
    EXPECT_EQ(native::nativeCompileCount(), cc_before + 2);

    engine::HybConfig config;
    auto spmm_hyb = [&](const Csr &a) {
        NDArray c({a.rows * feat}, ir::DataType::float32());
        engine::DispatchInfo info = eng.spmmHyb(a, feat, &b, &c, config);
        EXPECT_TRUE(bitwiseEqual(engineHybReference(a, feat, b_host, config),
                                 c));
        return info;
    };
    spmm_hyb(base);
    EXPECT_EQ(native::nativeCompileCount(), cc_before + 3);
    // One column partition: equal row lengths give equal bucket row
    // counts.
    uint64_t disk_hits = eng.nativeStats().diskHits;
    engine::DispatchInfo info = spmm_hyb(shiftedColumns(base, 3));
    EXPECT_FALSE(info.cacheHit);
    ASSERT_GE(info.numKernels, 2);
    EXPECT_EQ(native::nativeCompileCount(), cc_before + 3);
    EXPECT_EQ(eng.nativeStats().diskHits,
              disk_hits + static_cast<uint64_t>(info.numKernels));
    EXPECT_EQ(eng.nativeStats().fallbacks, 0u);
    EXPECT_EQ(countModules(cache.dir()), 3);
}

// A compiler that exits 0 but writes nothing, or writes a file that
// is not a loadable object: the promotion still completes and counts
// every kernel of the module as a fallback, no exception reaches the
// request, the bad install is removed and bytecode keeps serving
// bitwise.
TEST(NativeEngine, BrokenCompilerOutputFallsBackEveryKernel)
{
    ScratchDir scripts;
    std::string no_output = scripts.script("no-output-cc", "exit 0\n");
    std::string garbage = scripts.script(
        "garbage-cc",
        "out=\n"
        "while [ $# -gt 0 ]; do\n"
        "  if [ \"$1\" = -o ]; then out=\"$2\"; fi\n"
        "  shift\n"
        "done\n"
        "printf 'not an ELF object' > \"$out\"\n");
    Csr a = graph::powerLawGraph(200, 2400, 1.9, 103);
    int64_t feat = 8;
    auto b_host = randomVector(a.cols * feat, 104);
    engine::HybConfig config;
    config.partitions = 2;
    NDArray reference = engineHybReference(a, feat, b_host, config);

    for (const std::string &cc_script : {no_output, garbage}) {
        SCOPED_TRACE(cc_script);
        CacheDirGuard cache;
        EnvGuard cc("SPARSETIR_NATIVE_CC", cc_script.c_str());
        engine::EngineOptions options;
        options.backend = Backend::kNative;
        options.nativePromoteAfter = 1;  // background, second resolve
        engine::Engine eng(options);
        NDArray b = NDArray::fromFloat(b_host);
        NDArray c({a.rows * feat}, ir::DataType::float32());
        engine::DispatchInfo info;
        for (int round = 0; round < 2; ++round) {
            info = eng.spmmHyb(a, feat, &b, &c, config);
            EXPECT_TRUE(bitwiseEqual(reference, c));
        }
        ASSERT_TRUE(waitFor(
            [&] { return eng.nativeStats().promotions >= 1; }))
            << "a failed promotion was never counted";
        engine::NativeStats stats = eng.nativeStats();
        EXPECT_EQ(stats.promotions, 1u);
        EXPECT_EQ(stats.compiles, 0u);
        EXPECT_EQ(stats.diskHits, 0u);
        EXPECT_GE(info.numKernels, 2);
        EXPECT_EQ(stats.fallbacks, static_cast<uint64_t>(info.numKernels));
        EXPECT_EQ(countModules(cache.dir()), 0);

        NDArray c_after({a.rows * feat}, ir::DataType::float32());
        eng.spmmHyb(a, feat, &b, &c_after, config);
        EXPECT_TRUE(bitwiseEqual(reference, c_after));
    }
}

// Builds lock per module, not per process: while the compiler blocks
// on one artifact's module, another artifact promotes and serves
// native. The blocking script waits for a release file (30 s at most,
// so a regression fails the test instead of hanging it).
TEST(NativeEngine, BlockedCompileDoesNotStallOtherArtifacts)
{
    CacheDirGuard cache;
    ScratchDir scripts;
    std::string started = scripts.dir() + "/started";
    std::string release = scripts.dir() + "/release";
    // The CSR kernel is named "spmm"; the meta string ends each kernel
    // name with ';' or the closing quote.
    std::string blocking = scripts.script(
        "blocking-cc",
        "for last; do :; done\n"
        "if grep -q 'kernel=spmm\"' \"$last\"; then\n"
        "  : > '" + started + "'\n"
        "  i=0\n"
        "  while [ ! -e '" + release + "' ] && [ $i -lt 600 ]; do\n"
        "    sleep 0.05; i=$((i + 1))\n"
        "  done\n"
        "fi\n"
        "exec cc \"$@\"\n");
    EnvGuard cc("SPARSETIR_NATIVE_CC", blocking.c_str());

    int64_t feat = 8;
    Csr csr = graph::powerLawGraph(180, 2000, 1.8, 105);
    auto csr_b_host = randomVector(csr.cols * feat, 106);
    NDArray csr_reference = engineSpmmReference(csr, feat, csr_b_host);
    Csr a = graph::powerLawGraph(200, 2400, 1.9, 107);
    auto b_host = randomVector(a.cols * feat, 108);
    engine::HybConfig config;
    config.partitions = 2;
    NDArray reference = engineHybReference(a, feat, b_host, config);

    engine::EngineOptions options;
    options.backend = Backend::kNative;
    options.nativePromoteAfter = 0;  // promote inside the resolve
    engine::Engine eng(options);

    std::atomic<bool> csr_done{false};
    NDArray csr_b = NDArray::fromFloat(csr_b_host);
    NDArray csr_c({csr.rows * feat}, ir::DataType::float32());
    std::thread blocked([&] {
        eng.spmmCsr(csr, feat, &csr_b, &csr_c);
        csr_done.store(true);
    });
    ASSERT_TRUE(waitFor([&] {
        return std::filesystem::exists(started);
    })) << "the blocking compiler never started";

    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    engine::DispatchInfo info = eng.spmmHyb(a, feat, &b, &c, config);
    bool hyb_first = !csr_done.load();
    EXPECT_TRUE(bitwiseEqual(reference, c));
    // Only the hyb module finished: every one of its kernels compiled
    // natively while the CSR compile still blocks.
    engine::NativeStats hyb_stats = eng.nativeStats();
    EXPECT_EQ(hyb_stats.promotions, 1u);
    EXPECT_EQ(hyb_stats.compiles, static_cast<uint64_t>(info.numKernels));
    EXPECT_EQ(hyb_stats.fallbacks, 0u);

    { std::ofstream touch(release); }
    blocked.join();
    EXPECT_TRUE(hyb_first)
        << "the hyb promotion waited for the blocked CSR compile";
    EXPECT_TRUE(bitwiseEqual(csr_reference, csr_c));
    engine::NativeStats stats = eng.nativeStats();
    EXPECT_EQ(stats.promotions, 2u);
    EXPECT_EQ(stats.fallbacks, 0u);
}

// A background promotion runs on a pool worker pinned to one CPU,
// and a spawned child inherits the spawning thread's affinity; the
// compiler must still get every CPU of the process. The script
// records the CPU list it runs on, then compiles.
TEST(NativeEngine, CompilerRunsOnEveryCpuOfTheProcess)
{
    CacheDirGuard cache;
    ScratchDir scripts;
    std::string seen = scripts.dir() + "/cpus";
    std::string recording = scripts.script(
        "recording-cc",
        "grep Cpus_allowed_list /proc/self/status >> '" + seen + "'\n"
        "exec cc \"$@\"\n");
    EnvGuard cc("SPARSETIR_NATIVE_CC", recording.c_str());

    Csr a = graph::powerLawGraph(150, 1600, 1.7, 111);
    int64_t feat = 8;
    auto b_host = randomVector(a.cols * feat, 112);
    engine::EngineOptions options;
    options.backend = Backend::kNative;
    options.numThreads = 2;
    options.nativePromoteAfter = 1;  // background, second resolve
    engine::Engine eng(options);
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    eng.spmmCsr(a, feat, &b, &c);
    eng.spmmCsr(a, feat, &b, &c);
    ASSERT_TRUE(waitFor([&] { return eng.nativeStats().promotions >= 1; }))
        << "background promotion never completed";
    EXPECT_EQ(eng.nativeStats().compiles, 1u);
    EXPECT_EQ(eng.nativeStats().fallbacks, 0u);

    auto cpuList = [](const std::string &status_path) {
        std::ifstream in(status_path);
        std::vector<std::string> lines;
        for (std::string line; std::getline(in, line);) {
            if (line.rfind("Cpus_allowed_list:", 0) == 0) {
                lines.push_back(line);
            }
        }
        return lines;
    };
    std::vector<std::string> process = cpuList("/proc/self/status");
    ASSERT_EQ(process.size(), 1u);
    EXPECT_EQ(cpuList(seen), process);
}

/** Output of one dispatch and the kernels it ran per request. */
using Served = std::pair<NDArray, int>;

/** One op family of the native coverage table: serves one request. */
struct OpFamily
{
    std::string name;
    std::function<Served(engine::Engine &)> serve;
};

/** C = A @ B through `dispatch`, with B (cols x feat) random and C
 *  rows x feat. */
template <typename Dispatch>
Served
serveSpmm(int64_t rows, int64_t cols, int64_t feat, Dispatch dispatch)
{
    NDArray b = NDArray::fromFloat(randomVector(cols * feat, 112));
    NDArray c({rows * feat}, ir::DataType::float32());
    int kernels = dispatch(&b, &c).numKernels;
    return {std::move(c), kernels};
}

std::vector<OpFamily>
everyOpFamily()
{
    constexpr int64_t kFeat = 16;
    Csr a = graph::powerLawGraph(300, 3000, 1.8, 111);
    format::Bsr bsr = format::bsrFromCsr(a, 4);
    format::SrBcrs sr = format::srbcrsFromCsr(a, 4, 8);
    std::vector<OpFamily> families;
    families.push_back({"spmm_csr", [a](engine::Engine &eng) {
                            return serveSpmm(
                                a.rows, a.cols, kFeat,
                                [&](NDArray *b, NDArray *c) {
                                    return eng.spmmCsr(a, kFeat, b, c);
                                });
                        }});
    families.push_back({"hyb", [a](engine::Engine &eng) {
                            engine::HybConfig config;
                            config.partitions = 2;
                            return serveSpmm(
                                a.rows, a.cols, kFeat,
                                [&](NDArray *b, NDArray *c) {
                                    return eng.spmmHyb(a, kFeat, b, c,
                                                       config);
                                });
                        }});
    families.push_back({"bsr", [bsr](engine::Engine &eng) {
                            return serveSpmm(
                                bsr.blockRows * bsr.blockSize,
                                bsr.blockCols * bsr.blockSize, kFeat,
                                [&](NDArray *b, NDArray *c) {
                                    return eng.spmmBsr(bsr, kFeat, b, c);
                                });
                        }});
    families.push_back({"srbcrs", [sr](engine::Engine &eng) {
                            return serveSpmm(
                                sr.stripes * sr.tileHeight, sr.cols, kFeat,
                                [&](NDArray *b, NDArray *c) {
                                    return eng.spmmSrbcrs(sr, kFeat, b, c);
                                });
                        }});
    families.push_back({"sddmm", [a](engine::Engine &eng) {
                            NDArray x = NDArray::fromFloat(
                                randomVector(a.rows * kFeat, 113));
                            NDArray y = NDArray::fromFloat(
                                randomVector(kFeat * a.cols, 114));
                            NDArray out({a.nnz()}, ir::DataType::float32());
                            int kernels =
                                eng.sddmm(a, kFeat, &x, &y, &out).numKernels;
                            return Served{std::move(out), kernels};
                        }});

    format::RelationalCsr hetero;
    hetero.rows = 120;
    hetero.cols = 120;
    for (int r = 0; r < 3; ++r) {
        hetero.relations.push_back(
            graph::powerLawGraph(120, 700, 1.8, 117 + r));
    }
    for (int64_t fout : {8, 4}) {
        families.push_back(
            {"rgcn 8x" + std::to_string(fout),
             [hetero, fout](engine::Engine &eng) {
                 constexpr int64_t kFin = 8;
                 NDArray x = NDArray::fromFloat(
                     randomVector(hetero.cols * kFin, 120));
                 NDArray w =
                     NDArray::fromFloat(randomVector(kFin * fout, 121));
                 NDArray y({hetero.rows * fout}, ir::DataType::float32());
                 int kernels =
                     eng.rgcn(hetero, kFin, fout, &x, &w, &y).numKernels;
                 return Served{std::move(y), kernels};
             }});
    }

    dfg::PatternRef mask = dfg::SparsityPattern::fromCsr(a);
    for (bool fuse : {true, false}) {
        families.push_back(
            {fuse ? "graph fused" : "graph chain",
             [a, mask, fuse](engine::Engine &eng) {
                 constexpr int64_t kHead = 8;
                 NDArray q = NDArray::fromFloat(
                     randomVector(a.rows * kHead, 122));
                 NDArray kt = NDArray::fromFloat(
                     randomVector(kHead * a.cols, 123));
                 NDArray v = NDArray::fromFloat(
                     randomVector(a.cols * kHead, 124));
                 NDArray out({a.rows * kHead}, ir::DataType::float32());
                 int kernels = model::attentionPipeline(
                                   eng, mask, kHead, &q, &kt, &v, &out,
                                   fuse)
                                   .numKernels;
                 EXPECT_EQ(kernels == 1, fuse);
                 return Served{std::move(out), kernels};
             }});
    }
    return families;
}

// Every op family runs natively on a pool of two, proven and
// unchecked: each kernel of its artifact is served native (no
// fallback), every execution passes its entry guard, and the output
// is bitwise the interpreter's.
TEST(NativeEngine, EveryOpFamilyServesNativeWithoutGuardMisses)
{
    CacheDirGuard cache;
    for (const OpFamily &family : everyOpFamily()) {
        SCOPED_TRACE(family.name);
        engine::EngineOptions reference_options;
        reference_options.backend = Backend::kInterpreter;
        engine::Engine reference_engine(reference_options);
        NDArray reference = family.serve(reference_engine).first;

        engine::EngineOptions options;
        options.backend = Backend::kNative;
        options.nativePromoteAfter = 0;
        options.numThreads = 2;
        engine::Engine eng(options);
        auto [cold, kernels] = family.serve(eng);
        auto [warm, warm_kernels] = family.serve(eng);
        EXPECT_TRUE(bitwiseEqual(reference, cold));
        EXPECT_TRUE(bitwiseEqual(reference, warm));
        EXPECT_EQ(kernels, warm_kernels);

        engine::NativeStats stats = eng.nativeStats();
        EXPECT_EQ(stats.promotions, 1u);
        EXPECT_EQ(stats.fallbacks, 0u);
        EXPECT_EQ(stats.guardMisses, 0u);
        EXPECT_EQ(stats.compiles + stats.diskHits,
                  static_cast<uint64_t>(kernels));
    }
}

TEST(NativeEngine, EnvVarSelectsNativeTier)
{
    CacheDirGuard cache;
    Csr a = graph::powerLawGraph(150, 1600, 1.7, 91);
    int64_t feat = 8;
    auto b_host = randomVector(a.cols * feat, 92);

    {
        EnvGuard enable("SPARSETIR_NATIVE", "1");
        engine::EngineOptions options;  // default backend: bytecode
        options.nativePromoteAfter = 0;
        engine::Engine eng(options);
        NDArray b = NDArray::fromFloat(b_host);
        NDArray c({a.rows * feat}, ir::DataType::float32());
        eng.spmmCsr(a, feat, &b, &c);
        EXPECT_EQ(eng.nativeStats().promotions, 1u)
            << "SPARSETIR_NATIVE=1 must upgrade bytecode to native";
        EXPECT_TRUE(
            bitwiseEqual(engineSpmmReference(a, feat, b_host), c));
    }
    {
        EnvGuard disable("SPARSETIR_NATIVE", "0");
        engine::EngineOptions options;
        options.nativePromoteAfter = 0;
        engine::Engine eng(options);
        NDArray b = NDArray::fromFloat(b_host);
        NDArray c({a.rows * feat}, ir::DataType::float32());
        eng.spmmCsr(a, feat, &b, &c);
        EXPECT_EQ(eng.nativeStats().promotions, 0u);
    }
}

} // namespace
} // namespace sparsetir
