#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <initializer_list>
#include <string>
#include <unordered_set>
#include <utility>

#include "dfg/lower.h"
#include "format/hyb.h"
#include "model/rgcn.h"
#include "observe/trace.h"
#include "runtime/interpreter.h"
#include "runtime/native/native_compiler.h"
#include "support/logging.h"

namespace sparsetir {
namespace engine {

using format::Csr;
using runtime::NDArray;

namespace {

double
msSince(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Tag of every module native promotion builds. A module is addressed
 * by its C source, which carries each kernel's proof guard, so
 * structures whose kernels emit the same C share one module (one
 * `cc` run, one `.so`).
 */
constexpr const char *kNativeModuleTag = "engine";

/** Every array the artifact's value gathers bind, in gather order,
 *  each filled from its `sources` entry. */
std::vector<NDArray>
gatherValues(const Artifact &artifact,
             const std::vector<const std::vector<float> *> &sources)
{
    std::vector<NDArray> values;
    values.reserve(artifact.gathers.size());
    for (const Artifact::ValueGather &gather : artifact.gathers) {
        const std::vector<float> &source = *sources[gather.source];
        if (gather.sourcePos.empty()) {
            values.push_back(NDArray::fromFloat(source));
            continue;
        }
        NDArray &out = values.emplace_back(
            std::vector<int64_t>{
                static_cast<int64_t>(gather.sourcePos.size())},
            ir::DataType::float32());
        float *slots = static_cast<float *>(out.rawData());
        for (size_t i = 0; i < gather.sourcePos.size(); ++i) {
            int32_t p = gather.sourcePos[i];
            if (p >= 0) {
                ICHECK_LT(static_cast<size_t>(p), source.size())
                    << "provenance map does not match the request's "
                       "values array; compile-cache key mismatch";
                slots[i] = source[p];
            }
        }
    }
    return values;
}

// ---------------------------------------------------------------------
// Proofs
//
// Since artifact version 2 (see kArtifactVersion) every kernel is
// cached as an engine::CompiledKernel: Stage III IR + compiled
// bytecode program + write-set analysis (+ proven block hulls for
// scatter kernels). Warm dispatches execute the program directly.
// ---------------------------------------------------------------------

/** Declare a compiled kernel's accumulated outputs to the verifier. */
void
declareAccumSpec(verify::VerifyContext *ctx, const CompiledKernel &kernel)
{
    ctx->hasAccumSpec = true;
    for (const AccumOutput &out : kernel.accums) {
        verify::AccumWriteSet set;
        set.buffer = out.name;
        ctx->accums.push_back(std::move(set));
    }
}

/**
 * What a proof under `ctx` rests on that the kernel's entry can check
 * (runtime::native::KernelProof): every scalar parameter `ctx` fixes.
 * Null when a scalar parameter's fact is not one fixed value, which
 * no entry check covers; the kernel then stays checked. The int32
 * array facts come from the artifact's table, which every dispatch
 * binds.
 */
std::shared_ptr<const runtime::native::KernelProof>
kernelProof(const ir::PrimFunc &func, const verify::VerifyContext &ctx)
{
    auto proof = std::make_shared<runtime::native::KernelProof>();
    for (const ir::Var &param : func->params) {
        auto fact = ctx.facts.find(param->name);
        if (param->dtype.isHandle() || fact == ctx.facts.end()) {
            continue;
        }
        int64_t lo = 0;
        int64_t hi = 0;
        if (!ir::tryConstInt(fact->second.lo, &lo) ||
            !ir::tryConstInt(fact->second.hi, &hi) || lo != hi) {
            return nullptr;
        }
        proof->scalars[param->name] = lo;
    }
    return proof;
}

/**
 * Prove one kernel's bounds / write-set / race obligations under
 * `ctx` (a copy of the artifact's facts, plus the kernel's
 * accumulated outputs unless the caller declared them) and fold the
 * outcome into the artifact's cached report; a proven kernel keeps
 * its proof's facts. Facts are looked up by name, so the table's
 * entries for other kernels change no proof. Failures do not throw
 * here: the verdict (with its diagnostics) is cached on the artifact,
 * and Engine::resolve raises it as a UserError on every dispatch that
 * touches the bad artifact — including warm hits, at zero re-proving
 * cost. Returns whether the proof succeeded.
 */
bool
verifyKernelInto(Artifact *artifact, CompiledKernel *kernel,
                 verify::VerifyContext ctx, const std::string &what)
{
    SPARSETIR_TRACE_SCOPE("verify", "verify.artifact");
    if (!ctx.hasAccumSpec) {
        declareAccumSpec(&ctx, *kernel);
    }
    auto start = std::chrono::steady_clock::now();
    verify::VerifyResult result = verify::verifyFunc(kernel->func, ctx);
    artifact->verify.kernels += 1;
    artifact->verify.verifyMs += msSince(start);
    if (result.ok) {
        kernel->proof = kernelProof(kernel->func, ctx);
    } else {
        artifact->verify.ok = false;
        for (verify::Diagnostic &diag : result.diagnostics) {
            diag.message = "kernel '" + what + "': " + diag.message;
            artifact->verify.diagnostics.push_back(std::move(diag));
        }
    }
    return result.ok;
}

/**
 * A scatter kernel whose block b updates entries [b * rowsPerBlock,
 * (b + 1) * rowsPerBlock) of `rows` (bound as `rowsBuffer`), each row
 * `rowWidth` elements wide: hyb and RGCN bucket kernels.
 */
struct ScatterPlan
{
    std::string what;
    std::string rowsBuffer;
    const std::vector<int32_t> *rows = nullptr;
    int64_t rowWidth = 0;
    int64_t rowsPerBlock = 0;
};

/**
 * Prove every kernel of a scatter artifact, kernel i with the block
 * hulls of plans[i] on top of the artifact's facts, and attach the
 * hulls once proven. A failed proof refuses the artifact; serial
 * sessions carry the hulls and ignore them.
 */
void
proveBlockHulls(Artifact *artifact, const std::vector<ScatterPlan> &plans)
{
    for (size_t i = 0; i < plans.size(); ++i) {
        const ScatterPlan &plan = plans[i];
        CompiledKernel *kernel = &artifact->kernels[i];
        std::vector<Span> hulls =
            blockHulls(*plan.rows, plan.rowsPerBlock, plan.rowWidth);
        verify::VerifyContext ctx = artifact->facts;
        declareAccumSpec(&ctx, *kernel);
        for (verify::AccumWriteSet &set : ctx.accums) {
            set.rowsBuffer = plan.rowsBuffer;
            set.rows = plan.rows;
            set.rowWidth = plan.rowWidth;
            set.rowsPerBlock = plan.rowsPerBlock;
            set.blockHulls = hulls;
        }
        if (verifyKernelInto(artifact, kernel, std::move(ctx),
                             plan.what)) {
            for (AccumOutput &out : kernel->accums) {
                out.hulls = hulls;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Builders (miss path): declare the table, compile, prove
// ---------------------------------------------------------------------

/** The CSR structure table shared by the CSR-backed kernels. */
std::shared_ptr<Artifact>
csrArtifact(const Csr &a, int64_t feat)
{
    auto artifact = std::make_shared<Artifact>();
    artifact->scalar("m", a.rows);
    artifact->scalar("n", a.cols);
    artifact->scalar("nnz", a.nnz());
    artifact->scalar("feat_size", feat);
    artifact->int32Array("J_indptr", a.indptr);
    artifact->int32Array("J_indices", a.indices);
    return artifact;
}

/**
 * Finish a single-kernel artifact whose structure table is declared:
 * bind the request's values whole as `A_data`, compile `func` and
 * prove it.
 */
std::shared_ptr<Artifact>
singleKernel(std::shared_ptr<Artifact> artifact, const ir::PrimFunc &func,
             const std::string &what)
{
    artifact->gather("A_data", 0, {});
    artifact->kernels.push_back(compileKernel(func));
    verifyKernelInto(artifact.get(), &artifact->kernels.back(),
                     artifact->facts, what);
    return artifact;
}

std::shared_ptr<Artifact>
buildSpmmCsr(const Csr &a, int64_t feat, const core::SpmmSchedule &schedule)
{
    return singleKernel(csrArtifact(a, feat),
                        core::compileSpmmCsrFunc(feat, schedule),
                        "spmm_csr");
}

std::shared_ptr<Artifact>
buildSddmm(const Csr &a, int64_t feat, const core::SddmmSchedule &schedule)
{
    return singleKernel(csrArtifact(a, feat),
                        core::compileSddmmFunc(feat, schedule), "sddmm");
}

std::shared_ptr<Artifact>
buildBsr(const format::Bsr &a, int64_t feat, const BsrConfig &config)
{
    auto artifact = std::make_shared<Artifact>();
    artifact->scalar("mb", a.blockRows);
    artifact->scalar("nb", a.blockCols);
    artifact->scalar("nnzb", a.nnzBlocks());
    artifact->scalar("feat_size", feat);
    artifact->int32Array("JO_indptr", a.indptr);
    artifact->int32Array("JO_indices", a.indices);
    return singleKernel(std::move(artifact),
                        core::compileBsrSpmmFunc(a.blockSize, feat,
                                                 config.tensorCores),
                        "bsr_spmm");
}

std::shared_ptr<Artifact>
buildSrbcrs(const format::SrBcrs &a, int64_t feat)
{
    auto artifact = std::make_shared<Artifact>();
    artifact->scalar("stripes", a.stripes);
    artifact->scalar("n", a.cols);
    artifact->scalar("total_groups", a.numGroups());
    artifact->scalar("feat_size", feat);
    artifact->int32Array("G_indptr", a.groupIndptr);
    artifact->int32Array("T_indices", a.tileCols);
    return singleKernel(std::move(artifact),
                        core::compileSrbcrsSpmmFunc(a.tileHeight,
                                                    a.groupSize, feat),
                        "srbcrs_spmm");
}

/**
 * The bucket compute kernels read only the gathered A_ell_* values,
 * so no dispatch copies the CSR values whole; the CSR arrays stay in
 * the table because the kernels' proofs rest on their facts. Each
 * bucket's row count is a scalar of the table, so buckets of one
 * width share one native kernel body.
 */
std::shared_ptr<Artifact>
buildSpmmHyb(const Csr &a, int64_t feat, const HybConfig &config)
{
    format::Hyb hyb =
        format::hybFromCsr(a, config.partitions, config.bucketCapLog2);
    std::vector<core::HybKernelPlan> plans = core::compileSpmmHybFuncs(
        hyb, feat, core::ScheduleTarget::kHostRowScalar);

    std::shared_ptr<Artifact> artifact = csrArtifact(a, feat);
    std::vector<ScatterPlan> scatters;
    for (const core::HybKernelPlan &plan : plans) {
        const format::Ell &ell =
            hyb.buckets[plan.partition][plan.bucket];
        artifact->scalar(core::ellRowsParam(plan.suffix), ell.numRows());
        std::string rows = core::ellRowIndicesParam(plan.suffix);
        artifact->int32Array(rows, ell.rowIndices);
        artifact->int32Array(core::ellColIndicesParam(plan.suffix),
                             ell.colIndices);
        artifact->gather(core::hybValuesParam(plan.suffix), 0,
                         ell.sourcePos);
        artifact->kernels.push_back(compileKernel(plan.func));
        scatters.push_back(ScatterPlan{"spmm_ell_" + plan.suffix, rows,
                                       &ell.rowIndices, feat,
                                       plan.rowsPerBlock});
    }
    proveBlockHulls(artifact.get(), scatters);
    return artifact;
}

std::shared_ptr<Artifact>
buildRgcn(const format::RelationalCsr &graph, int64_t feat_in,
          int64_t feat_out, const RgcnConfig &config)
{
    auto artifact = std::make_shared<Artifact>();
    artifact->scalar("m", graph.rows);
    artifact->scalar("n", graph.cols);
    // Bucket row lists the hull proofs read, one decomposition per
    // relation.
    std::vector<format::Hyb> hybs;
    hybs.reserve(graph.numRelations());
    std::vector<ScatterPlan> scatters;
    for (int64_t r = 0; r < graph.numRelations(); ++r) {
        const Csr &rel = graph.relations[r];
        if (rel.nnz() == 0) {
            continue;
        }
        hybs.push_back(format::hybFromCsr(
            rel, 1, model::rgcnBucketCap(rel, config.bucketCapLog2)));
        const format::Hyb &hyb = hybs.back();
        for (size_t b = 0; b < hyb.buckets[0].size(); ++b) {
            const format::Ell &bucket = hyb.buckets[0][b];
            if (bucket.numRows() == 0) {
                continue;
            }
            std::string suffix =
                "r" + std::to_string(r) + "b" + std::to_string(b);
            std::string rows = core::ellRowIndicesParam(suffix);
            artifact->int32Array(rows, bucket.rowIndices);
            artifact->int32Array(core::ellColIndicesParam(suffix),
                                 bucket.colIndices);
            artifact->gather(core::rgmsValuesParam(suffix),
                             static_cast<int>(r), bucket.sourcePos);
            int rows_per_block = model::rgcnRowsPerBlock(bucket.width);
            artifact->kernels.push_back(
                compileKernel(core::compileEllRgmsFunc(
                    bucket.numRows(), bucket.width, feat_in, feat_out,
                    suffix, config.tensorCores, rows_per_block)));
            scatters.push_back(ScatterPlan{
                "rgms_" + suffix, rows, &bucket.rowIndices, feat_out,
                std::min<int64_t>(rows_per_block, bucket.numRows())});
        }
    }
    USER_CHECK(!artifact->kernels.empty())
        << "relational graph has no non-zeros";
    proveBlockHulls(artifact.get(), scatters);
    return artifact;
}

std::shared_ptr<Artifact>
buildGraph(const dfg::OpGraph &graph, bool fuse)
{
    auto artifact = std::make_shared<Artifact>();
    dfg::GraphLowering lowering;
    {
        SPARSETIR_TRACE_SCOPE("dfg", fuse ? "dfg.fuse" : "dfg.lower");
        lowering = dfg::lowerGraph(graph, fuse);
    }
    for (const dfg::StructureBinding &s : lowering.structures) {
        artifact->int32Array(s.indptrName, s.pattern->indptr);
        artifact->int32Array(s.indicesName, s.pattern->indices);
    }
    for (const dfg::LoweredTemp &temp : lowering.temps) {
        artifact->temps.push_back(Artifact::Temp{temp.name, temp.numel});
    }
    for (const ir::PrimFunc &func : lowering.funcs) {
        artifact->kernels.push_back(compileKernel(func));
        verifyKernelInto(artifact.get(), &artifact->kernels.back(),
                         artifact->facts, func->name);
    }
    return artifact;
}

// ---------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------

/**
 * The one key shape: `op`, one digest of every input the op's builder
 * compiles from (structure hash, schedule / config fields, feature
 * dims), and the raw row and non-zero counts as the collision guard.
 */
CacheKey
cacheKey(OpKind op, const Fingerprint &inputs, int64_t rows, int64_t nnz)
{
    CacheKey key;
    key.op = op;
    key.digest = inputs.digest();
    key.rows = rows;
    key.nnz = nnz;
    return key;
}

/**
 * The bind step every dispatch shares: a copy of the artifact's
 * table, each value gather pointed at its array in `values` (the
 * result of gatherValues; it must outlive the returned bindings, and
 * may be null for an artifact that declares no gathers), then the
 * request's own `arrays`.
 */
runtime::Bindings
bindArtifact(const Artifact &artifact, std::vector<NDArray> *values,
             std::initializer_list<std::pair<const char *, NDArray *>>
                 arrays = {})
{
    size_t gathered = values == nullptr ? 0 : values->size();
    ICHECK_EQ(gathered, artifact.gathers.size());
    runtime::Bindings bound = artifact.bindings;
    for (size_t i = 0; i < gathered; ++i) {
        bound.arrays[artifact.gathers[i].param] = &(*values)[i];
    }
    for (const auto &[name, array] : arrays) {
        bound.arrays[name] = array;
    }
    return bound;
}

/**
 * Per-request binding views of an SpMM dispatch over the sparse
 * operand's `values`: the gathered arrays (into `gathered`, shared by
 * every view), then one table copy per request with its private B/C.
 * Outputs must be distinct, and no output may alias any request's
 * input — requests run concurrently (and a kernel reading its own
 * output races with itself), so such a write would break the bitwise
 * contract. Sharing one read-only B across requests is fine. With
 * `zero_outputs` (hyb: the bucket kernels accumulate, the dispatch
 * owns the overwrite contract C = A @ B) every output is cleared —
 * only after the whole batch validated, so a rejected batch leaves
 * every caller array untouched.
 */
std::vector<runtime::Bindings>
requestViews(const Artifact &artifact, const std::vector<float> &values,
             const std::vector<SpmmRequest> &requests, bool zero_outputs,
             std::vector<NDArray> *gathered)
{
    std::unordered_set<const NDArray *> outputs;
    outputs.reserve(requests.size());
    for (const SpmmRequest &request : requests) {
        USER_CHECK(request.b != nullptr && request.c != nullptr)
            << "SpMM request is missing a feature or output array";
        USER_CHECK(outputs.insert(request.c).second)
            << "batched SpMM requests must bind distinct output "
               "arrays";
    }
    for (const SpmmRequest &request : requests) {
        USER_CHECK(outputs.count(request.b) == 0)
            << "SpMM request aliases a feature matrix with an output "
               "array";
    }
    *gathered = gatherValues(artifact, {&values});
    std::vector<runtime::Bindings> views;
    views.reserve(requests.size());
    for (const SpmmRequest &request : requests) {
        views.push_back(bindArtifact(
            artifact, gathered,
            {{"B_data", request.b}, {"C_data", request.c}}));
    }
    if (zero_outputs) {
        for (const SpmmRequest &request : requests) {
            request.c->zero();
        }
    }
    return views;
}

} // namespace

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

Engine::Engine(EngineOptions options)
    : options_(options),
      pool_(std::make_shared<ThreadPool>(options.numThreads)),
      executor_(pool_),
      metrics_(std::make_unique<observe::MetricsRegistry>()),
      cache_(options.cacheCapacity, metrics_.get())
{
    if (options.trace || observe::traceRequestedByEnv()) {
        observe::TraceRecorder::global().setEnabled(true);
    }
    // SPARSETIR_NATIVE=1 upgrades the default serving backend to the
    // tiered native path; an explicit interpreter selection wins.
    if (options_.backend == runtime::Backend::kBytecode &&
        runtime::native::nativeEnabledByEnv()) {
        options_.backend = runtime::Backend::kNative;
    }
    requests_ = metrics_->counter("engine.requests");
    cacheHits_ = metrics_->counter("engine.cache_hits");
    cacheMisses_ = metrics_->counter("engine.cache_misses");
    compileMs_ = metrics_->histogram("engine.compile_ms");
    execMs_ = metrics_->histogram("engine.exec_ms");
    nativePromotions_ = metrics_->counter("native.promotions");
    nativeCompiles_ = metrics_->counter("native.compiles");
    nativeDiskHits_ = metrics_->counter("native.disk_hits");
    nativeFallbacks_ = metrics_->counter("native.fallbacks");
    nativeGuardMisses_ = metrics_->counter("native.guard_misses");
    nativeCompileMs_ = metrics_->histogram("native.compile_ms");
    metrics_->counter("engine.pool.unpinned_workers")
        ->add(static_cast<uint64_t>(pool_->unpinnedWorkers()));
    for (OpKind op :
         {OpKind::kSpmmCsr, OpKind::kSpmmHyb, OpKind::kSddmm,
          OpKind::kRgcnHyb, OpKind::kSpmmBsr, OpKind::kSpmmSrbcrs,
          OpKind::kGraph}) {
        for (bool warm : {true, false}) {
            std::string name =
                std::string(warm ? "engine.warm_dispatch_ms."
                                 : "engine.cold_dispatch_ms.") +
                opKindName(op);
            opLatency_[warm ? 0 : 1][static_cast<int>(op)] =
                metrics_->histogram(name);
        }
    }
}

Engine::~Engine()
{
    // Background promotion tasks capture `this` and record into the
    // session registry; members destruct in reverse declaration
    // order, so the registry would be gone before pool_ joins its
    // workers. Wait for every launched promotion first. No dispatch
    // runs concurrently with destruction (usual dtor contract), so
    // the future list cannot grow under us after the swap.
    std::vector<std::future<void>> pending;
    {
        std::lock_guard<std::mutex> lock(promoMu_);
        pending.swap(promoFutures_);
    }
    for (std::future<void> &done : pending) {
        if (done.valid()) {
            done.wait();
        }
    }
}

observe::LatencyHistogram *
Engine::opLatency(OpKind op, bool warm)
{
    return opLatency_[warm ? 0 : 1][static_cast<int>(op)];
}

observe::MetricsSnapshot
Engine::metricsSnapshot() const
{
    observe::MetricsSnapshot snap = metrics_->snapshot();
    ScratchStats scratch = scratchStats();
    snap.counters["scratch.leases"] = scratch.leases;
    snap.gauges["scratch.leased_bytes"] = scratch.leasedBytes;
    snap.gauges["scratch.peak_leased_bytes"] = scratch.peakLeasedBytes;
    return snap;
}

ScratchStats
Engine::scratchStats() const
{
    std::lock_guard<std::mutex> lock(scratchMu_);
    return scratch_;
}

void
Engine::resetScratchPeak()
{
    std::lock_guard<std::mutex> lock(scratchMu_);
    scratch_.peakLeasedBytes = scratch_.leasedBytes;
}

void
Engine::accountScratch(int64_t bytes, uint64_t leases)
{
    std::lock_guard<std::mutex> lock(scratchMu_);
    scratch_.leasedBytes += bytes;
    scratch_.peakLeasedBytes =
        std::max(scratch_.peakLeasedBytes, scratch_.leasedBytes);
    scratch_.leases += leases;
}

ExecOptions
Engine::execOptions() const
{
    ExecOptions exec;
    exec.parallel = options_.parallel;
    exec.minBlocksPerChunk = options_.minBlocksPerChunk;
    exec.backend = options_.backend;
    exec.guardMisses = nativeGuardMisses_;
    return exec;
}

std::shared_ptr<Artifact>
Engine::resolve(OpKind op, const KeyFn &key, const Builder &builder,
                DispatchInfo *info)
{
    SPARSETIR_TRACE_SCOPE1("engine", "engine.resolve", "op",
                           static_cast<int64_t>(op));
    auto start = std::chrono::steady_clock::now();
    bool hit = false;
    std::shared_ptr<Artifact> artifact =
        cache_.getOrBuild(key(), builder, &hit);
    // The verify verdict rides on the artifact: a failed proof was paid
    // for once at build, and every dispatch that touches the artifact —
    // including warm hits — refuses it at zero re-proving cost.
    if (!artifact->verify.ok) {
        verify::VerifyResult failed;
        failed.ok = false;
        failed.diagnostics = artifact->verify.diagnostics;
        USER_CHECK(false)
            << "compiled artifact failed static verification:\n"
            << verify::formatDiagnostics(failed);
    }
    info->cacheHit = hit;
    info->compileMs = msSince(start);
    maybePromote(op, artifact);
    return artifact;
}

DispatchInfo
Engine::dispatch(OpKind op, const KeyFn &key, const Builder &builder,
                 const Binder &bind)
{
    SPARSETIR_TRACE_SCOPE1("engine", "engine.dispatch", "op",
                           static_cast<int64_t>(op));
    DispatchInfo info;
    std::shared_ptr<Artifact> artifact = resolve(op, key, builder, &info);
    auto bind_start = std::chrono::steady_clock::now();
    std::vector<runtime::Bindings> views = bind(*artifact);
    std::vector<const runtime::Bindings *> requests;
    requests.reserve(views.size());
    for (const runtime::Bindings &view : views) {
        requests.push_back(&view);
    }
    std::vector<const CompiledKernel *> kernels;
    kernels.reserve(artifact->kernels.size());
    for (const CompiledKernel &kernel : artifact->kernels) {
        kernels.push_back(&kernel);
    }
    info.bindMs = msSince(bind_start);
    auto kernel_start = std::chrono::steady_clock::now();
    {
        SPARSETIR_TRACE_SCOPE("engine", "engine.exec");
        ExecOptions exec = execOptions();
        if (op == OpKind::kGraph) {
            // Chain-mode graph kernels consume each other's outputs,
            // so each runs as its own task graph, in dataflow order
            // (a fused graph is a single kernel either way).
            for (const CompiledKernel *kernel : kernels) {
                executor_.run({kernel}, requests, exec);
            }
        } else {
            executor_.run(kernels, requests, exec);
        }
    }
    info.kernelMs = msSince(kernel_start);
    info.execMs = info.bindMs + info.kernelMs;
    info.numRequests = static_cast<int>(views.size());
    info.numKernels = static_cast<int>(kernels.size());
    finish(info, op);
    return info;
}

void
Engine::maybePromote(OpKind op, const std::shared_ptr<Artifact> &artifact)
{
    if (options_.backend != runtime::Backend::kNative ||
        options_.nativePromoteAfter < 0) {
        return;
    }
    {
        Artifact::NativePromotion &state = artifact->promotion;
        std::lock_guard<std::mutex> lock(state.mu);
        if (state.launched ||
            ++state.warmHits <= options_.nativePromoteAfter) {
            return;
        }
        state.launched = true;
    }
    if (options_.nativePromoteAfter == 0) {
        // Synchronous promotion: deterministic for tests — the first
        // resolve already serves native.
        promoteNow(op, *artifact);
        return;
    }
    std::shared_ptr<Artifact> keep = artifact;
    std::future<void> done = pool_->submit([this, op, keep] {
        // promoteNow never submits to or waits on the pool, so a
        // promotion task cannot deadlock behind dispatch work.
        promoteNow(op, *keep);
    });
    std::lock_guard<std::mutex> lock(promoMu_);
    promoFutures_.erase(
        std::remove_if(promoFutures_.begin(), promoFutures_.end(),
                       [](const std::future<void> &f) {
                           return f.wait_for(std::chrono::seconds(0)) ==
                                  std::future_status::ready;
                       }),
        promoFutures_.end());
    promoFutures_.push_back(std::move(done));
}

void
Engine::promoteNow(OpKind op, const Artifact &artifact)
{
    SPARSETIR_TRACE_SCOPE1("native", "native.promote", "op",
                           static_cast<int64_t>(op));
    std::vector<const CompiledKernel *> pending;
    std::vector<ir::PrimFunc> funcs;
    std::vector<const runtime::native::KernelProof *> proofs;
    for (const CompiledKernel &kernel : artifact.kernels) {
        if (kernel.native != nullptr && kernel.native->get() == nullptr) {
            pending.push_back(&kernel);
            funcs.push_back(kernel.func);
            proofs.push_back(kernel.proof.get());
        }
    }
    std::vector<std::shared_ptr<const runtime::native::NativeKernel>>
        natives(pending.size());
    if (!pending.empty()) {
        auto start = std::chrono::steady_clock::now();
        try {
            natives = runtime::native::compileNativeModule(
                funcs, kNativeModuleTag, nullptr, proofs);
            nativeCompileMs_->record(msSince(start));
        } catch (...) {
            // cc missing or failed, or its output would not load:
            // every kernel of the module keeps serving bytecode.
            natives.assign(pending.size(), nullptr);
        }
    }
    for (size_t i = 0; i < pending.size(); ++i) {
        if (natives[i] == nullptr) {
            nativeFallbacks_->add(1);
            continue;
        }
        (natives[i]->diskHit ? nativeDiskHits_ : nativeCompiles_)->add(1);
        pending[i]->native->set(std::move(natives[i]));
    }
    nativePromotions_->add(1);
}

NativeStats
Engine::nativeStats() const
{
    NativeStats stats;
    stats.promotions = nativePromotions_->value();
    stats.compiles = nativeCompiles_->value();
    stats.diskHits = nativeDiskHits_->value();
    stats.fallbacks = nativeFallbacks_->value();
    stats.guardMisses = nativeGuardMisses_->value();
    return stats;
}

void
Engine::finish(const DispatchInfo &info, OpKind op)
{
    uint64_t requests = static_cast<uint64_t>(info.numRequests);
    requests_->add(requests);
    // One resolve serves the whole batch: on a miss exactly one
    // request paid the compile, the rest rode the fresh artifact.
    cacheHits_->add(info.cacheHit ? requests : requests - 1);
    if (!info.cacheHit) {
        cacheMisses_->add(1);
    }
    compileMs_->record(info.compileMs);
    execMs_->record(info.execMs);
    double per_request = info.execMs / static_cast<double>(requests);
    observe::LatencyHistogram *hist = opLatency(op, info.cacheHit);
    for (uint64_t i = 0; i < requests; ++i) {
        hist->record(per_request);
    }
}

EngineStats
Engine::stats() const
{
    EngineStats stats;
    stats.requests = requests_->value();
    stats.cacheHits = cacheHits_->value();
    stats.cacheMisses = cacheMisses_->value();
    stats.totalCompileMs = compileMs_->sumMs();
    stats.totalExecMs = execMs_->sumMs();
    return stats;
}

// ---------------------------------------------------------------------
// Entry points: a key, a builder and a bind step each
// ---------------------------------------------------------------------

DispatchInfo
Engine::spmmCsr(const Csr &a, int64_t feat, NDArray *b, NDArray *c,
                const core::SpmmSchedule &schedule)
{
    return spmmCsrBatch(a, feat, {SpmmRequest{b, c}}, schedule);
}

DispatchInfo
Engine::spmmHyb(const Csr &a, int64_t feat, NDArray *b, NDArray *c,
                const HybConfig &config)
{
    return spmmHybBatch(a, feat, {SpmmRequest{b, c}}, config);
}

DispatchInfo
Engine::spmmBsr(const format::Bsr &a, int64_t feat, NDArray *b,
                NDArray *c, const BsrConfig &config)
{
    return spmmBsrBatch(a, feat, {SpmmRequest{b, c}}, config);
}

DispatchInfo
Engine::spmmSrbcrs(const format::SrBcrs &a, int64_t feat, NDArray *b,
                   NDArray *c)
{
    return spmmSrbcrsBatch(a, feat, {SpmmRequest{b, c}});
}

DispatchInfo
Engine::dispatchGraph(const dfg::OpGraph &graph,
                      const std::map<std::string, NDArray *> &io,
                      const GraphDispatchOptions &options)
{
    // Chain mode materializes interior tensors in plain arrays this
    // dispatch owns; they count as held scratch until it returns or
    // throws. The fused kernel has none (per-row locals), so its
    // dispatch holds nothing and the scratch peak stays at zero.
    std::vector<NDArray> temps;
    int64_t held_bytes = 0;
    struct Release
    {
        Engine *engine;
        const int64_t &bytes;
        ~Release()
        {
            if (bytes != 0) {
                engine->accountScratch(-bytes, 0);
            }
        }
    } release{this, held_bytes};
    return dispatch(
        OpKind::kGraph,
        [&] {
            // The topology fingerprint carries op kinds, dataflow
            // edges, feature shapes and every pattern's structure
            // hash: two graphs differing only in edge sparsity miss.
            return cacheKey(OpKind::kGraph,
                            Fingerprint()
                                .i64(graph.topologyFingerprint())
                                .i64(options.fuse),
                            graph.rows(), graph.totalNnz());
        },
        [&] {
            return buildGraph(graph, options.fuse);
        },
        [&](const Artifact &artifact) {
            // Every named value (graph input or marked output) needs
            // an array of the exact element count; unknown names are
            // request bugs.
            size_t named = 0;
            for (const dfg::ValueDesc &desc : graph.values()) {
                if (desc.name.empty()) {
                    continue;
                }
                named += 1;
                auto it = io.find(desc.name);
                USER_CHECK(it != io.end() && it->second != nullptr)
                    << "graph dispatch is missing an array for value '"
                    << desc.name << "'";
                int64_t numel = desc.edge ? desc.pattern->nnz()
                                          : desc.rows * desc.cols;
                USER_CHECK(it->second->numel() == numel)
                    << "array for graph value '" << desc.name
                    << "' has " << it->second->numel()
                    << " elements, graph expects " << numel;
            }
            USER_CHECK(io.size() == named)
                << "graph dispatch got " << io.size()
                << " arrays for " << named
                << " named values — unknown names in the io map";

            // Graph artifacts declare no value gathers: every array
            // but the chain temps comes from `io`.
            runtime::Bindings bound = bindArtifact(artifact, nullptr);
            for (const auto &kv : io) {
                bound.arrays[kv.first] = kv.second;
            }
            int64_t bytes = 0;
            temps.reserve(artifact.temps.size());
            for (const Artifact::Temp &temp : artifact.temps) {
                temps.emplace_back(std::vector<int64_t>{temp.numel},
                                   ir::DataType::float32());
                bound.arrays[temp.name] = &temps.back();
                bytes += temp.numel * static_cast<int64_t>(sizeof(float));
            }
            if (!temps.empty()) {
                held_bytes = bytes;
                accountScratch(bytes, temps.size());
            }
            return std::vector<runtime::Bindings>{std::move(bound)};
        });
}

DispatchInfo
Engine::sddmm(const Csr &a, int64_t feat, NDArray *x, NDArray *y,
              NDArray *out, const core::SddmmSchedule &schedule)
{
    std::vector<NDArray> values;
    return dispatch(
        OpKind::kSddmm,
        [&] {
            return cacheKey(OpKind::kSddmm,
                            Fingerprint()
                                .i64(structureHash(a))
                                .i64(schedule.workloadsPerBlock)
                                .i64(schedule.groupSize)
                                .i64(feat),
                            a.rows, a.nnz());
        },
        [&] {
            return buildSddmm(a, feat, schedule);
        },
        [&](const Artifact &artifact) {
            values = gatherValues(artifact, {&a.values});
            return std::vector<runtime::Bindings>{bindArtifact(
                artifact, &values,
                {{"X_data", x}, {"Y_data", y}, {"B_data", out}})};
        });
}

DispatchInfo
Engine::rgcn(const format::RelationalCsr &graph, int64_t feat,
             NDArray *x, NDArray *w, NDArray *y,
             const RgcnConfig &config)
{
    return rgcn(graph, feat, feat, x, w, y, config);
}

DispatchInfo
Engine::rgcn(const format::RelationalCsr &graph, int64_t featIn,
             int64_t featOut, NDArray *x, NDArray *w, NDArray *y,
             const RgcnConfig &config)
{
    std::vector<NDArray> values;
    return dispatch(
        OpKind::kRgcnHyb,
        [&] {
            return cacheKey(OpKind::kRgcnHyb,
                            Fingerprint()
                                .i64(structureHash(graph))
                                .i64(config.bucketCapLog2)
                                .i64(config.tensorCores)
                                .i64(featIn)
                                .i64(featOut),
                            graph.rows, graph.totalNnz());
        },
        [&] {
            return buildRgcn(graph, featIn, featOut, config);
        },
        [&](const Artifact &artifact) {
            std::vector<const std::vector<float> *> sources;
            for (const Csr &rel : graph.relations) {
                sources.push_back(&rel.values);
            }
            values = gatherValues(artifact, sources);
            return std::vector<runtime::Bindings>{
                bindArtifact(artifact, &values,
                             {{"X_data", x}, {"W_data", w}, {"Y_data", y}})};
        });
}

DispatchInfo
Engine::spmmBatch(OpKind op, const KeyFn &key, const Builder &builder,
                  const std::vector<float> &values,
                  const std::vector<SpmmRequest> &requests,
                  bool zero_outputs)
{
    if (requests.empty()) {
        return DispatchInfo();
    }
    std::vector<NDArray> gathered;
    return dispatch(op, key, builder, [&](const Artifact &artifact) {
        return requestViews(artifact, values, requests, zero_outputs,
                            &gathered);
    });
}

DispatchInfo
Engine::spmmCsrBatch(const Csr &a, int64_t feat,
                     const std::vector<SpmmRequest> &requests,
                     const core::SpmmSchedule &schedule)
{
    return spmmBatch(OpKind::kSpmmCsr,
                     [&] {
                         return cacheKey(OpKind::kSpmmCsr,
                                         Fingerprint()
                                             .i64(structureHash(a))
                                             .i64(schedule.threadX)
                                             .i64(feat),
                                         a.rows, a.nnz());
                     },
                     [&] { return buildSpmmCsr(a, feat, schedule); },
                     a.values, requests, /*zero_outputs=*/false);
}

DispatchInfo
Engine::spmmHybBatch(const Csr &a, int64_t feat,
                     const std::vector<SpmmRequest> &requests,
                     const HybConfig &config)
{
    return spmmBatch(OpKind::kSpmmHyb,
                     [&] {
                         return cacheKey(OpKind::kSpmmHyb,
                                         Fingerprint()
                                             .i64(structureHash(a))
                                             .i64(config.partitions)
                                             .i64(config.bucketCapLog2)
                                             .i64(feat),
                                         a.rows, a.nnz());
                     },
                     [&] { return buildSpmmHyb(a, feat, config); },
                     a.values, requests, /*zero_outputs=*/true);
}

DispatchInfo
Engine::spmmBsrBatch(const format::Bsr &a, int64_t feat,
                     const std::vector<SpmmRequest> &requests,
                     const BsrConfig &config)
{
    return spmmBatch(OpKind::kSpmmBsr,
                     [&] {
                         // The structure hash carries the block size.
                         return cacheKey(OpKind::kSpmmBsr,
                                         Fingerprint()
                                             .i64(structureHash(a))
                                             .i64(config.tensorCores)
                                             .i64(feat),
                                         a.rows, a.nnzBlocks());
                     },
                     [&] { return buildBsr(a, feat, config); }, a.values,
                     requests, /*zero_outputs=*/false);
}

DispatchInfo
Engine::spmmSrbcrsBatch(const format::SrBcrs &a, int64_t feat,
                        const std::vector<SpmmRequest> &requests)
{
    return spmmBatch(OpKind::kSpmmSrbcrs,
                     [&] {
                         // The structure hash carries (t, g).
                         return cacheKey(OpKind::kSpmmSrbcrs,
                                         Fingerprint()
                                             .i64(structureHash(a))
                                             .i64(feat),
                                         a.rows, a.storedTiles());
                     },
                     [&] { return buildSrbcrs(a, feat); }, a.values,
                     requests, /*zero_outputs=*/false);
}

} // namespace engine
} // namespace sparsetir
