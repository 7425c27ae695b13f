#include "engine/engine.h"

#include <algorithm>
#include <chrono>
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

using core::BindingSet;
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
 * Identification tag of one artifact's persisted native module: the
 * full cache key and the artifact version. Baked into the .so's meta
 * string, so a restarted process can validate an on-disk file
 * against exactly the key it would build for.
 */
std::string
nativeKeyTag(const CacheKey &key)
{
    std::string tag = "v" + std::to_string(key.version);
    tag += ".op" + std::to_string(static_cast<int>(key.op));
    tag += ".s" + std::to_string(key.structure);
    tag += ".h" + std::to_string(key.schedule);
    tag += ".fi" + std::to_string(key.featIn);
    tag += ".fo" + std::to_string(key.featOut);
    tag += ".r" + std::to_string(key.rows);
    tag += ".z" + std::to_string(key.nnz);
    tag += ".b" + std::to_string(key.blockSize);
    tag += ".t" + std::to_string(key.tileHeight);
    tag += ".g" + std::to_string(key.groupSize);
    return tag;
}

/** Re-bind stored values through a provenance map (padding -> 0). */
std::vector<float>
gatherValues(const std::vector<int32_t> &source_pos,
             const std::vector<float> &values)
{
    std::vector<float> out(source_pos.size(), 0.0f);
    for (size_t i = 0; i < source_pos.size(); ++i) {
        int32_t p = source_pos[i];
        if (p >= 0) {
            ICHECK_LT(static_cast<size_t>(p), values.size())
                << "provenance map does not match the request's "
                   "values array; compile-cache key mismatch";
            out[i] = values[p];
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Artifacts
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
 * array facts are the artifact's own structure arrays, which every
 * dispatch binds.
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
 * Prove one kernel's bounds / write-set / race obligations under the
 * structure facts in `ctx` (plus the kernel's accumulated outputs,
 * unless the caller declared them) and fold the outcome into the
 * artifact's cached report; a proven kernel keeps its proof's facts.
 * Failures do not throw here: the verdict (with its diagnostics) is
 * cached on the artifact, and Engine::resolve raises it as a
 * UserError on every dispatch that touches the bad artifact —
 * including warm hits, at zero re-proving cost. Returns whether the
 * proof succeeded.
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
 * Verify a scatter kernel together with the block hulls of its
 * accumulated output, whose block b updates entries [b *
 * rows_per_block, (b + 1) * rows_per_block) of `rows` (bound as
 * `rows_buffer`), and attach the hulls once proven. `ctx` holds the
 * kernel's structure facts. A failed proof refuses the artifact;
 * serial sessions carry the hulls and ignore them.
 */
void
proveBlockHulls(Artifact *artifact, CompiledKernel *kernel,
                verify::VerifyContext ctx, const std::string &rows_buffer,
                const std::vector<int32_t> &rows, int64_t row_width,
                int64_t rows_per_block, const std::string &what)
{
    std::vector<Span> hulls = blockHulls(rows, rows_per_block, row_width);
    declareAccumSpec(&ctx, *kernel);
    for (verify::AccumWriteSet &set : ctx.accums) {
        set.rowsBuffer = rows_buffer;
        set.rows = &rows;
        set.rowWidth = row_width;
        set.rowsPerBlock = rows_per_block;
        set.blockHulls = hulls;
    }
    if (verifyKernelInto(artifact, kernel, std::move(ctx), what)) {
        for (AccumOutput &out : kernel->accums) {
            out.hulls = hulls;
        }
    }
}

/** Concrete structure facts shared by the CSR-backed kernels. */
verify::VerifyContext
csrVerifyContext(const Csr &a, int64_t feat)
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

/**
 * Artifact of the single-kernel ops (CSR/BSR/SR-BCRS SpMM, SDDMM): the
 * kernel plus its two structure arrays — row pointer and column
 * indices (SR-BCRS: group pointer and tile columns).
 */
struct KernelArtifact : Artifact
{
    CompiledKernel kernel;
    NDArray indptr;
    NDArray indices;

    std::vector<const CompiledKernel *>
    kernels() const override
    {
        return {&kernel};
    }
};

/** One non-empty (partition, bucket) of a cached hyb decomposition. */
struct HybBucketData
{
    std::string suffix;
    CompiledKernel kernel;
    NDArray rowIndices;
    NDArray colIndices;
    /** Slot -> position in the source CSR values (-1: padding). */
    std::vector<int32_t> gather;
};

struct SpmmHybArtifact : Artifact
{
    int bucketCapLog2 = 0;
    NDArray indptr;
    NDArray indices;
    std::vector<HybBucketData> buckets;

    std::vector<const CompiledKernel *>
    kernels() const override
    {
        std::vector<const CompiledKernel *> out;
        for (const HybBucketData &bucket : buckets) {
            out.push_back(&bucket.kernel);
        }
        return out;
    }
};

/** One (relation, bucket) RGMS kernel of a cached RGCN layer. */
struct RgcnUnit
{
    int relation = 0;
    std::string suffix;
    CompiledKernel kernel;
    NDArray rowIndices;
    NDArray colIndices;
    std::vector<int32_t> gather;
};

struct RgcnArtifact : Artifact
{
    std::vector<RgcnUnit> units;

    std::vector<const CompiledKernel *>
    kernels() const override
    {
        std::vector<const CompiledKernel *> out;
        for (const RgcnUnit &unit : units) {
            out.push_back(&unit.kernel);
        }
        return out;
    }
};

/** A chain-mode intermediate the dispatch allocates. */
struct GraphTemp
{
    std::string name;
    int64_t numel = 0;
};

/**
 * A whole OpGraph's compiled program: one fused kernel (interior
 * tensors live in per-row locals) or the per-node chain plus its
 * intermediate-materialization plan. Structure arrays are keyed by
 * the lowering's binding names ("J<p>_indptr"/"J<p>_indices").
 */
struct GraphArtifact : Artifact
{
    bool fused = false;
    /** Why fusion bailed to the chain; empty when fused. */
    std::string modeReason;
    /** Dataflow order: chain kernels consume earlier outputs. */
    std::vector<CompiledKernel> program;
    std::map<std::string, NDArray> structures;
    std::vector<GraphTemp> temps;
    /** Bytes of scratch a chain dispatch allocates (0 when fused). */
    int64_t tempBytes = 0;

    std::vector<const CompiledKernel *>
    kernels() const override
    {
        std::vector<const CompiledKernel *> out;
        for (const CompiledKernel &kernel : program) {
            out.push_back(&kernel);
        }
        return out;
    }
};

// ---------------------------------------------------------------------
// Builders (miss path)
// ---------------------------------------------------------------------

std::shared_ptr<Artifact>
buildSpmmCsrArtifact(const Csr &a, int64_t feat,
                     const core::SpmmSchedule &schedule)
{
    auto artifact = std::make_shared<KernelArtifact>();
    artifact->kernel =
        compileKernel(core::compileSpmmCsrFunc(feat, schedule));
    verifyKernelInto(artifact.get(), &artifact->kernel,
                     csrVerifyContext(a, feat), "spmm_csr");
    artifact->indptr = NDArray::fromInt32(a.indptr);
    artifact->indices = NDArray::fromInt32(a.indices);
    return artifact;
}

std::shared_ptr<Artifact>
buildSddmmArtifact(const Csr &a, int64_t feat,
                   const core::SddmmSchedule &schedule)
{
    auto artifact = std::make_shared<KernelArtifact>();
    artifact->kernel =
        compileKernel(core::compileSddmmFunc(feat, schedule));
    verifyKernelInto(artifact.get(), &artifact->kernel,
                     csrVerifyContext(a, feat), "sddmm");
    artifact->indptr = NDArray::fromInt32(a.indptr);
    artifact->indices = NDArray::fromInt32(a.indices);
    return artifact;
}

std::shared_ptr<Artifact>
buildBsrArtifact(const format::Bsr &a, int64_t feat,
                 const BsrConfig &config)
{
    auto artifact = std::make_shared<KernelArtifact>();
    artifact->kernel = compileKernel(core::compileBsrSpmmFunc(
        a.blockSize, feat, config.tensorCores));
    verify::VerifyContext ctx;
    ctx.scalar("mb", a.blockRows);
    ctx.scalar("nb", a.blockCols);
    ctx.scalar("nnzb", a.nnzBlocks());
    ctx.scalar("feat_size", feat);
    ctx.int32Array("JO_indptr", a.indptr);
    ctx.int32Array("JO_indices", a.indices);
    verifyKernelInto(artifact.get(), &artifact->kernel, std::move(ctx),
                     "bsr_spmm");
    artifact->indptr = NDArray::fromInt32(a.indptr);
    artifact->indices = NDArray::fromInt32(a.indices);
    return artifact;
}

std::shared_ptr<Artifact>
buildSrbcrsArtifact(const format::SrBcrs &a, int64_t feat)
{
    auto artifact = std::make_shared<KernelArtifact>();
    artifact->kernel = compileKernel(
        core::compileSrbcrsSpmmFunc(a.tileHeight, a.groupSize, feat));
    verify::VerifyContext ctx;
    ctx.scalar("stripes", a.stripes);
    ctx.scalar("n", a.cols);
    ctx.scalar("total_groups", a.numGroups());
    ctx.scalar("feat_size", feat);
    ctx.int32Array("G_indptr", a.groupIndptr);
    ctx.int32Array("T_indices", a.tileCols);
    verifyKernelInto(artifact.get(), &artifact->kernel, std::move(ctx),
                     "srbcrs_spmm");
    artifact->indptr = NDArray::fromInt32(a.groupIndptr);
    artifact->indices = NDArray::fromInt32(a.tileCols);
    return artifact;
}

std::shared_ptr<Artifact>
buildSpmmHybArtifact(const Csr &a, int64_t feat,
                     const HybConfig &config)
{
    format::Hyb hyb =
        format::hybFromCsr(a, config.partitions, config.bucketCapLog2);
    std::vector<core::HybKernelPlan> plans =
        core::compileSpmmHybFuncs(hyb, feat);

    auto artifact = std::make_shared<SpmmHybArtifact>();
    artifact->bucketCapLog2 = hyb.maxWidthLog2;
    artifact->indptr = NDArray::fromInt32(a.indptr);
    artifact->indices = NDArray::fromInt32(a.indices);
    artifact->buckets.reserve(plans.size());
    for (const core::HybKernelPlan &plan : plans) {
        const format::Ell &ell =
            hyb.buckets[plan.partition][plan.bucket];
        HybBucketData bucket;
        bucket.suffix = plan.suffix;
        bucket.kernel = compileKernel(plan.func);
        verify::VerifyContext ctx = csrVerifyContext(a, feat);
        ctx.int32Array(core::ellRowIndicesParam(plan.suffix),
                       ell.rowIndices);
        ctx.int32Array(core::ellColIndicesParam(plan.suffix),
                       ell.colIndices);
        proveBlockHulls(artifact.get(), &bucket.kernel, std::move(ctx),
                        core::ellRowIndicesParam(plan.suffix),
                        ell.rowIndices, feat, plan.rowsPerBlock,
                        "spmm_ell_" + plan.suffix);
        bucket.rowIndices = NDArray::fromInt32(ell.rowIndices);
        bucket.colIndices = NDArray::fromInt32(ell.colIndices);
        bucket.gather = ell.sourcePos;
        artifact->buckets.push_back(std::move(bucket));
    }
    return artifact;
}

std::shared_ptr<Artifact>
buildRgcnArtifact(const format::RelationalCsr &graph, int64_t feat_in,
                  int64_t feat_out, const RgcnConfig &config)
{
    auto artifact = std::make_shared<RgcnArtifact>();
    for (int64_t r = 0; r < graph.numRelations(); ++r) {
        const Csr &rel = graph.relations[r];
        if (rel.nnz() == 0) {
            continue;
        }
        format::Hyb hyb = format::hybFromCsr(
            rel, 1, model::rgcnBucketCap(rel, config.bucketCapLog2));
        for (size_t b = 0; b < hyb.buckets[0].size(); ++b) {
            const format::Ell &bucket = hyb.buckets[0][b];
            if (bucket.numRows() == 0) {
                continue;
            }
            RgcnUnit unit;
            unit.relation = static_cast<int>(r);
            unit.suffix =
                "r" + std::to_string(r) + "b" + std::to_string(b);
            int rows_per_block = model::rgcnRowsPerBlock(bucket.width);
            unit.kernel = compileKernel(core::compileEllRgmsFunc(
                bucket.numRows(), bucket.width, feat_in, feat_out,
                unit.suffix, config.tensorCores, rows_per_block));
            verify::VerifyContext ctx;
            ctx.scalar("m", graph.rows);
            ctx.scalar("n", graph.cols);
            ctx.int32Array(core::ellRowIndicesParam(unit.suffix),
                           bucket.rowIndices);
            ctx.int32Array(core::ellColIndicesParam(unit.suffix),
                           bucket.colIndices);
            proveBlockHulls(
                artifact.get(), &unit.kernel, std::move(ctx),
                core::ellRowIndicesParam(unit.suffix),
                bucket.rowIndices, feat_out,
                std::min<int64_t>(rows_per_block, bucket.numRows()),
                "rgms_" + unit.suffix);
            unit.rowIndices = NDArray::fromInt32(bucket.rowIndices);
            unit.colIndices = NDArray::fromInt32(bucket.colIndices);
            unit.gather = bucket.sourcePos;
            artifact->units.push_back(std::move(unit));
        }
    }
    USER_CHECK(!artifact->units.empty())
        << "relational graph has no non-zeros";
    return artifact;
}

std::shared_ptr<Artifact>
buildGraphArtifact(const dfg::OpGraph &graph, bool fuse)
{
    auto artifact = std::make_shared<GraphArtifact>();
    dfg::GraphLowering lowering;
    {
        SPARSETIR_TRACE_SCOPE("dfg", fuse ? "dfg.fuse" : "dfg.lower");
        lowering = dfg::lowerGraph(graph, fuse);
    }
    artifact->fused = lowering.fused;
    artifact->modeReason = lowering.reason;
    artifact->program.reserve(lowering.funcs.size());
    for (const ir::PrimFunc &func : lowering.funcs) {
        artifact->program.push_back(compileKernel(func));
    }
    verify::VerifyContext base;
    for (const dfg::StructureBinding &s : lowering.structures) {
        base.int32Array(s.indptrName, s.pattern->indptr);
        base.int32Array(s.indicesName, s.pattern->indices);
    }
    for (CompiledKernel &kernel : artifact->program) {
        verifyKernelInto(artifact.get(), &kernel, base, kernel.func->name);
    }
    for (const dfg::StructureBinding &s : lowering.structures) {
        artifact->structures.emplace(
            s.indptrName, NDArray::fromInt32(s.pattern->indptr));
        artifact->structures.emplace(
            s.indicesName, NDArray::fromInt32(s.pattern->indices));
    }
    for (const dfg::LoweredTemp &temp : lowering.temps) {
        artifact->temps.push_back(GraphTemp{temp.name, temp.numel});
        artifact->tempBytes +=
            temp.numel * static_cast<int64_t>(sizeof(float));
    }
    return artifact;
}

// ---------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------

CacheKey
spmmCsrKey(const Csr &a, int64_t feat,
           const core::SpmmSchedule &schedule)
{
    CacheKey key;
    key.op = OpKind::kSpmmCsr;
    key.structure = structureHash(a);
    key.schedule = Fingerprint().i64(schedule.threadX).digest();
    key.featIn = feat;
    key.featOut = feat;
    key.rows = a.rows;
    key.nnz = a.nnz();
    return key;
}

CacheKey
spmmHybKey(const Csr &a, int64_t feat, const HybConfig &config)
{
    CacheKey key;
    key.op = OpKind::kSpmmHyb;
    key.structure = structureHash(a);
    key.schedule = Fingerprint()
                       .i64(config.partitions)
                       .i64(config.bucketCapLog2)
                       .digest();
    key.featIn = feat;
    key.featOut = feat;
    key.rows = a.rows;
    key.nnz = a.nnz();
    return key;
}

CacheKey
sddmmKey(const Csr &a, int64_t feat,
         const core::SddmmSchedule &schedule)
{
    CacheKey key;
    key.op = OpKind::kSddmm;
    key.structure = structureHash(a);
    key.schedule = Fingerprint()
                       .i64(schedule.workloadsPerBlock)
                       .i64(schedule.groupSize)
                       .digest();
    key.featIn = feat;
    key.featOut = feat;
    key.rows = a.rows;
    key.nnz = a.nnz();
    return key;
}

CacheKey
rgcnKey(const format::RelationalCsr &graph, int64_t feat_in,
        int64_t feat_out, const RgcnConfig &config)
{
    CacheKey key;
    key.op = OpKind::kRgcnHyb;
    key.structure = structureHash(graph);
    key.schedule = Fingerprint()
                       .i64(config.bucketCapLog2)
                       .i64(config.tensorCores ? 1 : 0)
                       .digest();
    key.featIn = feat_in;
    key.featOut = feat_out;
    key.rows = graph.rows;
    key.nnz = graph.totalNnz();
    return key;
}

CacheKey
spmmBsrKey(const format::Bsr &a, int64_t feat,
           const BsrConfig &config)
{
    CacheKey key;
    key.op = OpKind::kSpmmBsr;
    key.structure = structureHash(a);
    key.schedule =
        Fingerprint().i64(config.tensorCores ? 1 : 0).digest();
    key.featIn = feat;
    key.featOut = feat;
    key.rows = a.rows;
    key.nnz = a.nnzBlocks();
    key.blockSize = a.blockSize;
    return key;
}

CacheKey
graphKey(const dfg::OpGraph &graph, bool fuse)
{
    CacheKey key;
    key.op = OpKind::kGraph;
    // The structure field carries the whole topology: op kinds,
    // dataflow edges, feature shapes, and every pattern's structure
    // hash — two graphs differing only in edge sparsity miss.
    key.structure = graph.topologyFingerprint();
    key.schedule = Fingerprint().i64(fuse ? 1 : 0).digest();
    key.rows = graph.rows();
    key.nnz = graph.totalNnz();
    return key;
}

CacheKey
spmmSrbcrsKey(const format::SrBcrs &a, int64_t feat)
{
    CacheKey key;
    key.op = OpKind::kSpmmSrbcrs;
    key.structure = structureHash(a);
    key.featIn = feat;
    key.featOut = feat;
    key.rows = a.rows;
    key.nnz = a.storedTiles();
    key.tileHeight = a.tileHeight;
    key.groupSize = a.groupSize;
    return key;
}

/** Scalars, structure arrays and values of a CSR-backed dispatch. */
void
bindCsrShared(BindingSet *bindings, KernelArtifact &artifact,
              const Csr &a, int64_t feat)
{
    bindings->scalar("m", a.rows);
    bindings->scalar("n", a.cols);
    bindings->scalar("nnz", a.nnz());
    bindings->scalar("feat_size", feat);
    bindings->external("J_indptr", &artifact.indptr);
    bindings->external("J_indices", &artifact.indices);
    bindings->own("A_data", NDArray::fromFloat(a.values));
}

/**
 * Bindings for a hyb SpMM request over a cached artifact. The bucket
 * compute kernels only read the gathered A_ell_* arrays (the copy
 * iterations were split off and replaced by the format library), so
 * the host dispatch path skips the original CSR arrays entirely —
 * the interpreter resolves bindings lazily. The simulator path
 * (`for_simulation`) must bind every parameter, as gpusim rejects
 * unbound handles.
 */
std::shared_ptr<BindingSet>
bindSpmmHyb(SpmmHybArtifact &artifact, const Csr &a, int64_t feat,
            bool for_simulation)
{
    auto shared = std::make_shared<BindingSet>();
    shared->scalar("m", a.rows);
    shared->scalar("n", a.cols);
    shared->scalar("nnz", a.nnz());
    shared->scalar("feat_size", feat);
    if (for_simulation) {
        shared->external("J_indptr", &artifact.indptr);
        shared->external("J_indices", &artifact.indices);
        shared->own("A_data", NDArray::fromFloat(a.values));
    }
    for (HybBucketData &bucket : artifact.buckets) {
        shared->external(core::ellRowIndicesParam(bucket.suffix),
                         &bucket.rowIndices);
        shared->external(core::ellColIndicesParam(bucket.suffix),
                         &bucket.colIndices);
        shared->own(core::hybValuesParam(bucket.suffix),
                    NDArray::fromFloat(
                        gatherValues(bucket.gather, a.values)));
    }
    return shared;
}

/** Scalars, structure arrays and values shared by a BSR dispatch. */
void
bindBsrShared(BindingSet *bindings, KernelArtifact &artifact,
              const format::Bsr &a, int64_t feat)
{
    bindings->scalar("mb", a.blockRows);
    bindings->scalar("nb", a.blockCols);
    bindings->scalar("nnzb", a.nnzBlocks());
    bindings->scalar("feat_size", feat);
    bindings->external("JO_indptr", &artifact.indptr);
    bindings->external("JO_indices", &artifact.indices);
    bindings->own("A_data", NDArray::fromFloat(a.values));
}

/** Scalars, structure arrays and values of an SR-BCRS dispatch. */
void
bindSrbcrsShared(BindingSet *bindings, KernelArtifact &artifact,
                 const format::SrBcrs &a, int64_t feat)
{
    bindings->scalar("stripes", a.stripes);
    bindings->scalar("n", a.cols);
    bindings->scalar("total_groups", a.numGroups());
    bindings->scalar("feat_size", feat);
    bindings->external("G_indptr", &artifact.indptr);
    bindings->external("T_indices", &artifact.indices);
    bindings->own("A_data", NDArray::fromFloat(a.values));
}

/**
 * Per-request binding views of an SpMM dispatch: the shared base plus
 * each request's private B/C. Outputs must be distinct, and no output
 * may alias any request's input — requests run concurrently (and a
 * kernel reading its own output races with itself), so such a write
 * would break the bitwise contract. Sharing one read-only B across
 * requests is fine. With `zero_outputs` (hyb: the bucket kernels
 * accumulate, the dispatch owns the overwrite contract C = A @ B)
 * every output is cleared — only after the whole batch validated, so
 * a rejected batch leaves every caller array untouched.
 */
std::vector<runtime::Bindings>
requestViews(const runtime::Bindings &base,
             const std::vector<SpmmRequest> &requests, bool zero_outputs)
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
    std::vector<runtime::Bindings> views;
    views.reserve(requests.size());
    for (const SpmmRequest &request : requests) {
        USER_CHECK(outputs.count(request.b) == 0)
            << "SpMM request aliases a feature matrix with an output "
               "array";
        runtime::Bindings view = base;
        view.arrays["B_data"] = request.b;
        view.arrays["C_data"] = request.c;
        views.push_back(std::move(view));
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
Engine::resolve(const CacheKey &key, const Builder &builder,
                DispatchInfo *info)
{
    SPARSETIR_TRACE_SCOPE1("engine", "engine.resolve", "op",
                           static_cast<int64_t>(key.op));
    auto start = std::chrono::steady_clock::now();
    bool hit = false;
    std::shared_ptr<Artifact> artifact =
        cache_.getOrBuild(key, builder, &hit);
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
    maybePromote(artifact);
    return artifact;
}

DispatchInfo
Engine::dispatch(OpKind op, const CacheKey &key, const Builder &builder,
                 const Binder &bind)
{
    SPARSETIR_TRACE_SCOPE1("engine", "engine.dispatch", "op",
                           static_cast<int64_t>(op));
    DispatchInfo info;
    std::shared_ptr<Artifact> artifact = resolve(key, builder, &info);
    return execute(op, *artifact, bind, info);
}

DispatchInfo
Engine::execute(OpKind op, Artifact &artifact, const Binder &bind,
                DispatchInfo info)
{
    auto bind_start = std::chrono::steady_clock::now();
    std::vector<runtime::Bindings> views = bind(artifact);
    std::vector<const runtime::Bindings *> requests;
    requests.reserve(views.size());
    for (const runtime::Bindings &view : views) {
        requests.push_back(&view);
    }
    std::vector<const CompiledKernel *> kernels = artifact.kernels();
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
Engine::maybePromote(const std::shared_ptr<Artifact> &artifact)
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
        promoteNow(*artifact);
        return;
    }
    std::shared_ptr<Artifact> keep = artifact;
    std::future<void> done = pool_->submit([this, keep] {
        // promoteNow never submits to or waits on the pool, so a
        // promotion task cannot deadlock behind dispatch work.
        promoteNow(*keep);
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
Engine::promoteNow(const Artifact &artifact)
{
    SPARSETIR_TRACE_SCOPE1("native", "native.promote", "op",
                           static_cast<int64_t>(artifact.key.op));
    std::vector<const CompiledKernel *> pending;
    std::vector<ir::PrimFunc> funcs;
    std::vector<const runtime::native::KernelProof *> proofs;
    for (const CompiledKernel *kernel : artifact.kernels()) {
        if (kernel->native != nullptr &&
            kernel->native->get() == nullptr) {
            pending.push_back(kernel);
            funcs.push_back(kernel->func);
            proofs.push_back(kernel->proof.get());
        }
    }
    std::vector<std::shared_ptr<const runtime::native::NativeKernel>>
        natives(pending.size());
    if (!pending.empty()) {
        auto start = std::chrono::steady_clock::now();
        try {
            natives = runtime::native::compileNativeModule(
                funcs, nativeKeyTag(artifact.key), nullptr, proofs);
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
    // prepareSpmmHyb finishes with no kernels executed; keep its
    // zero-latency "dispatch" out of the latency distributions.
    if (info.numKernels > 0) {
        double per_request =
            info.execMs / static_cast<double>(info.numRequests);
        observe::LatencyHistogram *hist = opLatency(op, info.cacheHit);
        for (int i = 0; i < info.numRequests; ++i) {
            hist->record(per_request);
        }
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
    BindingSet bindings;
    // Chain mode materializes interior tensors in plain arrays this
    // dispatch owns; they count as held scratch until it returns or
    // throws. The fused kernel has none (per-row locals), so its
    // dispatch holds nothing and the scratch peak stays at zero.
    std::vector<NDArray> temps;
    class Held
    {
      public:
        explicit Held(Engine *engine) : engine_(engine) {}
        Held(const Held &) = delete;
        Held &operator=(const Held &) = delete;
        ~Held()
        {
            if (bytes != 0) {
                engine_->accountScratch(-bytes, 0);
            }
        }
        int64_t bytes = 0;

      private:
        Engine *engine_;
    } held(this);
    return dispatch(
        OpKind::kGraph, graphKey(graph, options.fuse),
        [&] {
            return buildGraphArtifact(graph, options.fuse);
        },
        [&](Artifact &resolved) {
            auto &artifact = static_cast<GraphArtifact &>(resolved);
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

            for (auto &kv : artifact.structures) {
                bindings.external(kv.first, &kv.second);
            }
            for (const auto &kv : io) {
                bindings.external(kv.first, kv.second);
            }
            temps.reserve(artifact.temps.size());
            for (const GraphTemp &temp : artifact.temps) {
                temps.emplace_back(std::vector<int64_t>{temp.numel},
                                   ir::DataType::float32());
                bindings.external(temp.name, &temps.back());
            }
            if (!temps.empty()) {
                held.bytes = artifact.tempBytes;
                accountScratch(artifact.tempBytes, temps.size());
            }
            return std::vector<runtime::Bindings>{bindings.view()};
        });
}

DispatchInfo
Engine::sddmm(const Csr &a, int64_t feat, NDArray *x, NDArray *y,
              NDArray *out, const core::SddmmSchedule &schedule)
{
    BindingSet bindings;
    return dispatch(
        OpKind::kSddmm, sddmmKey(a, feat, schedule),
        [&] {
            return buildSddmmArtifact(a, feat, schedule);
        },
        [&](Artifact &artifact) {
            bindCsrShared(&bindings,
                          static_cast<KernelArtifact &>(artifact), a,
                          feat);
            bindings.external("X_data", x);
            bindings.external("Y_data", y);
            bindings.external("B_data", out);
            return std::vector<runtime::Bindings>{bindings.view()};
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
    BindingSet bindings;
    return dispatch(
        OpKind::kRgcnHyb, rgcnKey(graph, featIn, featOut, config),
        [&] {
            return buildRgcnArtifact(graph, featIn, featOut, config);
        },
        [&](Artifact &artifact) {
            bindings.scalar("m", graph.rows);
            bindings.scalar("n", graph.cols);
            bindings.scalar("feat_in", featIn);
            bindings.scalar("feat_out", featOut);
            bindings.external("X_data", x);
            bindings.external("W_data", w);
            bindings.external("Y_data", y);
            for (RgcnUnit &unit :
                 static_cast<RgcnArtifact &>(artifact).units) {
                bindings.external(core::ellRowIndicesParam(unit.suffix),
                                  &unit.rowIndices);
                bindings.external(core::ellColIndicesParam(unit.suffix),
                                  &unit.colIndices);
                bindings.own(core::rgmsValuesParam(unit.suffix),
                             NDArray::fromFloat(gatherValues(
                                 unit.gather,
                                 graph.relations[unit.relation].values)));
            }
            return std::vector<runtime::Bindings>{bindings.view()};
        });
}

DispatchInfo
Engine::spmmCsrBatch(const Csr &a, int64_t feat,
                     const std::vector<SpmmRequest> &requests,
                     const core::SpmmSchedule &schedule)
{
    if (requests.empty()) {
        return DispatchInfo();
    }
    BindingSet base;
    return dispatch(
        OpKind::kSpmmCsr, spmmCsrKey(a, feat, schedule),
        [&] {
            return buildSpmmCsrArtifact(a, feat, schedule);
        },
        [&](Artifact &artifact) {
            bindCsrShared(&base, static_cast<KernelArtifact &>(artifact),
                          a, feat);
            return requestViews(base.view(), requests,
                                /*zero_outputs=*/false);
        });
}

DispatchInfo
Engine::spmmHybBatch(const Csr &a, int64_t feat,
                     const std::vector<SpmmRequest> &requests,
                     const HybConfig &config)
{
    if (requests.empty()) {
        return DispatchInfo();
    }
    std::shared_ptr<BindingSet> base;
    return dispatch(
        OpKind::kSpmmHyb, spmmHybKey(a, feat, config),
        [&] {
            return buildSpmmHybArtifact(a, feat, config);
        },
        [&](Artifact &artifact) {
            base = bindSpmmHyb(static_cast<SpmmHybArtifact &>(artifact),
                               a, feat, /*for_simulation=*/false);
            return requestViews(base->view(), requests,
                                /*zero_outputs=*/true);
        });
}

DispatchInfo
Engine::spmmHybBatch(const PreparedSpmmHyb &prepared,
                     const std::vector<SpmmRequest> &requests)
{
    if (requests.empty()) {
        return DispatchInfo();
    }
    USER_CHECK(prepared.artifact != nullptr &&
               prepared.bindings != nullptr)
        << "batched dispatch needs a handle from prepareSpmmHyb";
    SPARSETIR_TRACE_SCOPE1("engine", "engine.dispatch", "op",
                           static_cast<int64_t>(OpKind::kSpmmHyb));
    // The handle pins a resolved artifact: no cache lookup, but it
    // still counts toward native promotion like a warm resolve.
    maybePromote(prepared.artifact);
    DispatchInfo info;
    info.cacheHit = true;
    return execute(OpKind::kSpmmHyb, *prepared.artifact,
                   [&](Artifact &) {
                       return requestViews(prepared.bindings->view(),
                                           requests,
                                           /*zero_outputs=*/true);
                   },
                   info);
}

DispatchInfo
Engine::spmmBsrBatch(const format::Bsr &a, int64_t feat,
                     const std::vector<SpmmRequest> &requests,
                     const BsrConfig &config)
{
    if (requests.empty()) {
        return DispatchInfo();
    }
    BindingSet base;
    return dispatch(
        OpKind::kSpmmBsr, spmmBsrKey(a, feat, config),
        [&] {
            return buildBsrArtifact(a, feat, config);
        },
        [&](Artifact &artifact) {
            bindBsrShared(&base, static_cast<KernelArtifact &>(artifact),
                          a, feat);
            return requestViews(base.view(), requests,
                                /*zero_outputs=*/false);
        });
}

DispatchInfo
Engine::spmmSrbcrsBatch(const format::SrBcrs &a, int64_t feat,
                        const std::vector<SpmmRequest> &requests)
{
    if (requests.empty()) {
        return DispatchInfo();
    }
    BindingSet base;
    return dispatch(
        OpKind::kSpmmSrbcrs, spmmSrbcrsKey(a, feat),
        [&] {
            return buildSrbcrsArtifact(a, feat);
        },
        [&](Artifact &artifact) {
            bindSrbcrsShared(&base,
                             static_cast<KernelArtifact &>(artifact), a,
                             feat);
            return requestViews(base.view(), requests,
                                /*zero_outputs=*/false);
        });
}

PreparedSpmmHyb
Engine::prepareSpmmHyb(const Csr &a, int64_t feat,
                       const HybConfig &config)
{
    SPARSETIR_TRACE_SCOPE("engine", "dispatch.prepare_spmm_hyb");
    DispatchInfo info;
    auto artifact = std::static_pointer_cast<SpmmHybArtifact>(
        resolve(spmmHybKey(a, feat, config),
                [&] { return buildSpmmHybArtifact(a, feat, config); },
                &info));
    // Counted as one request that executed nothing.
    info.numRequests = 1;
    finish(info, OpKind::kSpmmHyb);

    PreparedSpmmHyb prepared;
    prepared.cacheHit = info.cacheHit;
    prepared.bucketCapLog2 = artifact->bucketCapLog2;
    prepared.artifact = artifact;
    prepared.bindings =
        bindSpmmHyb(*artifact, a, feat, /*for_simulation=*/true);
    for (const HybBucketData &bucket : artifact->buckets) {
        prepared.kernels.push_back(std::make_shared<core::BoundKernel>(
            bucket.kernel.func, prepared.bindings));
    }
    return prepared;
}

} // namespace engine
} // namespace sparsetir
