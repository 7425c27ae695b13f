#include "core/pipeline.h"

#include <algorithm>

#include "core/ops.h"
#include "observe/trace.h"
#include "schedule/schedule.h"
#include "support/logging.h"
#include "transform/format_decompose.h"
#include "transform/hoist_invariants.h"
#include "transform/lower_sparse_buffer.h"
#include "transform/lower_sparse_iter.h"

namespace sparsetir {
namespace core {

using namespace ir;
using format::Csr;
using runtime::NDArray;

// ---------------------------------------------------------------------
// BindingSet / BoundKernel
// ---------------------------------------------------------------------

NDArray *
BindingSet::own(const std::string &param, NDArray arr)
{
    USER_CHECK(bindings_.arrays.find(param) == bindings_.arrays.end())
        << "parameter '" << param
        << "' is already bound in this BindingSet; owning it again "
           "would silently shadow the live binding";
    storage_.push_back(std::move(arr));
    NDArray *ptr = &storage_.back();
    bindings_.arrays[param] = ptr;
    owned_.insert(param);
    return ptr;
}

void
BindingSet::external(const std::string &param, NDArray *arr)
{
    USER_CHECK(owned_.find(param) == owned_.end())
        << "parameter '" << param
        << "' is bound to owned storage in this BindingSet; an "
           "external binding would silently shadow it";
    bindings_.arrays[param] = arr;
}

void
BindingSet::scalar(const std::string &param, int64_t value)
{
    bindings_.scalars[param] = value;
}

NDArray *
BindingSet::find(const std::string &param) const
{
    auto it = bindings_.arrays.find(param);
    return it == bindings_.arrays.end() ? nullptr : it->second;
}

BoundKernel::BoundKernel(PrimFunc stage3,
                         std::shared_ptr<BindingSet> bindings)
    : func_(std::move(stage3)), bindings_(std::move(bindings))
{}

void
BoundKernel::execute() const
{
    runtime::run(func_, bindings_->view());
}

gpusim::IrKernel &
BoundKernel::simKernel()
{
    if (sim_ == nullptr) {
        sim_ = std::make_unique<gpusim::IrKernel>(func_,
                                                  bindings_->view());
    }
    return *sim_;
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

namespace {

/** Feature lanes per GPU thread block row (clamped to feat). */
constexpr int kGpuThreadX = 32;

/** Lower a Stage I function to Stage II (schedulable loops). */
PrimFunc
lowerToStage2(const PrimFunc &stage1)
{
    SPARSETIR_TRACE_SCOPE("compile", "stage2.lower_sparse_iter");
    return transform::lowerSparseIterations(stage1);
}

/** Flatten a scheduled Stage II function to Stage III. */
PrimFunc
lowerToStage3(const schedule::Schedule &sch)
{
    SPARSETIR_TRACE_SCOPE("compile", "stage3.lower_sparse_buffer");
    return transform::lowerSparseBuffers(sch.func());
}

int
clampThreadX(int64_t feat, int want)
{
    int tx = static_cast<int>(std::min<int64_t>(want, feat));
    // Round down to a power of two for clean splits.
    int p = 1;
    while (p * 2 <= tx) {
        p *= 2;
    }
    return p;
}

/**
 * Compile-time self-check, run on every kernel the pipeline produces
 * in every build: prove the freshly lowered kernel's bounds and race
 * obligations from the format invariants alone (symbolic — the proof
 * holds for every structure the kernel can be bound to). A failure is
 * a lowering or scheduling bug — the class the cacheWrite
 * missing-split-tail-guard regression belonged to — so it trips
 * ICHECK, not UserError.
 */
PrimFunc
selfVerified(PrimFunc func, const std::string &what)
{
    SPARSETIR_TRACE_SCOPE("verify", "pipeline.self_verify");
    verify::VerifyContext ctx;
    declareFormatFacts(func, &ctx);
    verify::VerifyResult result = verify::verifyFunc(func, ctx);
    ICHECK(result.ok)
        << "pipeline produced a kernel that fails static "
           "verification ("
        << what << "):\n"
        << verify::formatDiagnostics(result);
    return func;
}

} // namespace

void
declareFormatFacts(const PrimFunc &func, verify::VerifyContext *ctx)
{
    auto param = [&](const std::string &name) -> Expr {
        for (const Var &p : func->params) {
            if (p->name == name) {
                return p;
            }
        }
        return nullptr;
    };
    // indptr arrays: element values in [0, total], sorted, with
    // fixed endpoints 0 and total (nnz of the structure they index).
    auto indptrFact = [&](const std::string &arr,
                          const std::string &total_name) {
        Expr total = param(total_name);
        if (param(arr) == nullptr || total == nullptr) {
            return;
        }
        verify::ValueFact fact;
        fact.lo = intImm(0);
        fact.hi = total;
        fact.first = intImm(0);
        fact.last = total;
        fact.sorted = true;
        ctx->facts[arr] = fact;
    };
    // index arrays: element values are valid ids in [0, count - 1].
    auto indexFact = [&](const std::string &arr,
                         const std::string &count_name) {
        Expr count = param(count_name);
        if (param(arr) == nullptr || count == nullptr) {
            return;
        }
        verify::ValueFact fact;
        fact.lo = intImm(0);
        fact.hi = sub(count, intImm(1));
        ctx->facts[arr] = fact;
    };
    indptrFact("J_indptr", "nnz");
    indptrFact("JO_indptr", "nnzb");
    indptrFact("G_indptr", "total_groups");
    indexFact("J_indices", "n");
    indexFact("JO_indices", "nb");
    indexFact("T_indices", "n");
    // Per-bucket ELL arrays: I<suffix>_indices holds original row
    // ids, J<suffix>_indices original column ids (see
    // ellRowIndicesParam / ellColIndicesParam).
    const std::string kIndices = "_indices";
    for (const Var &p : func->params) {
        const std::string &name = p->name;
        if (name.size() <= kIndices.size() + 1 ||
            name.compare(name.size() - kIndices.size(),
                         kIndices.size(), kIndices) != 0 ||
            name == "J_indices" || name == "JO_indices" ||
            name == "T_indices") {
            continue;
        }
        if (name[0] == 'I') {
            indexFact(name, "m");
        } else if (name[0] == 'J') {
            indexFact(name, "n");
        }
    }
}

// ---------------------------------------------------------------------
// CSR SpMM
// ---------------------------------------------------------------------

PrimFunc
compileSpmmCsrFunc(int64_t feat, const SpmmSchedule &params)
{
    PrimFunc stage2 = lowerToStage2(buildSpmm());
    schedule::Schedule sch(stage2);
    auto loops = sch.getLoops("spmm");  // i, j, k
    const std::string i = loops[0];
    const std::string j = loops[1];
    const std::string k = loops[2];
    sch.reorder({k, j});
    int tx = clampThreadX(feat, params.threadX);
    auto [k_o, k_i] = sch.split(k, tx);
    sch.bind(i, "blockIdx.x");
    sch.bind(k_i, "threadIdx.x");
    sch.cacheWrite("spmm", "C");
    return selfVerified(lowerToStage3(sch), "spmm_csr");
}

std::shared_ptr<BoundKernel>
compileSpmmCsr(const Csr &a, int64_t feat,
               const std::shared_ptr<BindingSet> &shared,
               const SpmmSchedule &params)
{
    PrimFunc stage3 = compileSpmmCsrFunc(feat, params);

    shared->scalar("m", a.rows);
    shared->scalar("n", a.cols);
    shared->scalar("nnz", a.nnz());
    shared->scalar("feat_size", feat);
    shared->own("J_indptr", NDArray::fromInt32(a.indptr));
    shared->own("J_indices", NDArray::fromInt32(a.indices));
    shared->own("A_data", NDArray::fromFloat(a.values));
    return std::make_shared<BoundKernel>(stage3, shared);
}

// ---------------------------------------------------------------------
// hyb(c, k) SpMM through format decomposition
// ---------------------------------------------------------------------

std::vector<HybKernelPlan>
compileSpmmHybFuncs(const format::Hyb &hyb, int64_t feat,
                    ScheduleTarget target)
{
    const bool host = target != ScheduleTarget::kGpu;
    const bool row_scalar = target == ScheduleTarget::kHostRowScalar;
    // One ELL rewrite rule per non-empty (partition, bucket).
    std::vector<transform::FormatRewriteRule> rules;
    std::vector<HybKernelPlan> plans;
    for (int p = 0; p < hyb.numPartitions; ++p) {
        for (size_t b = 0; b < hyb.buckets[p].size(); ++b) {
            const format::Ell &ell = hyb.buckets[p][b];
            if (ell.numRows() == 0) {
                continue;
            }
            std::string suffix =
                "p" + std::to_string(p) + "b" + std::to_string(b);
            Expr rows = row_scalar ? Expr(var(ellRowsParam(suffix),
                                              DataType::int32()))
                                   : intImm(ell.numRows());
            rules.push_back(ellRule(suffix, hyb.rows, hyb.cols,
                                    std::move(rows), ell.width));
            HybKernelPlan plan;
            plan.suffix = suffix;
            plan.partition = p;
            plan.bucket = static_cast<int>(b);
            plan.numRows = ell.numRows();
            plan.width = ell.width;
            plans.push_back(std::move(plan));
        }
    }
    USER_CHECK(!rules.empty()) << "matrix has no non-zeros";

    // The host schedule binds feat_size to the compile-time feat, so
    // the feature loop and its accumulator have a constant extent.
    PrimFunc stage1 = buildSpmm(host ? feat : 0);
    observe::TraceScope decompose_span("compile",
                                       "stage1.decompose_format");
    transform::DecomposeResult decomposed =
        transform::decomposeFormat(stage1, rules);
    decompose_span.end();
    auto [pre, compute] = transform::splitPreprocess(
        decomposed.func, decomposed.copyIterNames);
    (void)pre;  // bucket data is prepared by the format library

    // Per-bucket kernels: lower + schedule for the target.
    std::vector<PrimFunc> pieces = splitIterations(compute);
    ICHECK_EQ(pieces.size(), plans.size());
    for (size_t idx = 0; idx < pieces.size(); ++idx) {
        SPARSETIR_TRACE_SCOPE1("compile", "stage2.schedule_bucket",
                               "bucket", idx);
        HybKernelPlan &plan = plans[idx];
        const std::string block_name = "spmm_ell_" + plan.suffix;
        PrimFunc stage2 = lowerToStage2(pieces[idx]);
        schedule::Schedule sch(stage2);
        auto loops = sch.getLoops(block_name);  // o, i, j, k
        std::string fused = sch.fuse(loops[0], loops[1]);
        // Bucket b groups 2^(k - b) rows so each block covers ~2^k
        // non-zeros (compile-time load balancing, §4.2.1). Unclamped,
        // the factor stays a power of two and the row-scalar kernel
        // divides by none.
        int rows_per_block = std::max<int64_t>(
            1,
            (1 << hyb.maxWidthLog2) / std::max(plan.width, 1));
        plan.rowsPerBlock = static_cast<int>(
            row_scalar ? rows_per_block
                       : std::min<int64_t>(rows_per_block, plan.numRows));
        auto [f_o, f_i] = sch.split(fused, plan.rowsPerBlock);
        if (host) {
            sch.bind(f_o, "blockIdx.x");
        } else {
            // GE-SpMM: one feature lane per thread, each re-walking
            // the row with a 1-element accumulator.
            auto [k_o, k_i] =
                sch.split(loops[3], clampThreadX(feat, kGpuThreadX));
            sch.reorder({k_o, k_i, loops[2]});
            sch.bind(f_o, "blockIdx.x");
            sch.bind(f_i, "threadIdx.y");
            sch.bind(k_i, "threadIdx.x");
        }
        // Buckets contribute partial sums to a zero-initialized C.
        // On the host the feature loop stays inside the non-zero
        // loop, so the accumulator is feature-wide, and its init is
        // peeled into a loop of its own before the non-zero loop.
        sch.cacheWrite(block_name, "C", /*accumulate=*/true);
        if (host) {
            sch.decomposeReduction(block_name, loops[2]);
        }
        PrimFunc stage3 = lowerToStage3(sch);
        if (host) {
            stage3 = transform::hoistInvariants(stage3);
        }
        plan.func = selfVerified(stage3, block_name);
    }
    return plans;
}

HybSpmm
compileSpmmHyb(const Csr &a, int64_t feat, int c, int k,
               const std::shared_ptr<BindingSet> &shared)
{
    HybSpmm result;
    result.bindings = shared;
    result.hyb = format::hybFromCsr(a, c, k);
    const format::Hyb &hyb = result.hyb;

    std::vector<HybKernelPlan> plans =
        compileSpmmHybFuncs(hyb, feat, ScheduleTarget::kGpu);

    // Shared scalars and the original CSR arrays (the copy kernels
    // reference them; compute kernels only touch bucket data).
    shared->scalar("m", a.rows);
    shared->scalar("n", a.cols);
    shared->scalar("nnz", a.nnz());
    shared->scalar("feat_size", feat);
    shared->own("J_indptr", NDArray::fromInt32(a.indptr));
    shared->own("J_indices", NDArray::fromInt32(a.indices));
    shared->own("A_data", NDArray::fromFloat(a.values));

    // Bucket structure + values, prepared by the format library (the
    // pre-processing path; equivalent to running the generated copy
    // iterations once).
    for (const HybKernelPlan &plan : plans) {
        const format::Ell &ell =
            hyb.buckets[plan.partition][plan.bucket];
        shared->own(ellRowIndicesParam(plan.suffix),
                    NDArray::fromInt32(ell.rowIndices));
        shared->own(ellColIndicesParam(plan.suffix),
                    NDArray::fromInt32(ell.colIndices));
        shared->own(hybValuesParam(plan.suffix),
                    NDArray::fromFloat(ell.values));
    }

    for (const HybKernelPlan &plan : plans) {
        result.kernels.push_back(
            std::make_shared<BoundKernel>(plan.func, shared));
    }
    return result;
}

// ---------------------------------------------------------------------
// SDDMM
// ---------------------------------------------------------------------

PrimFunc
compileSddmmFunc(int64_t feat, const SddmmSchedule &params)
{
    PrimFunc stage2 = lowerToStage2(buildSddmm(/*fuse_ij=*/true));
    schedule::Schedule sch(stage2);
    auto loops = sch.getLoops("sddmm");  // ij, k
    auto [ij_o, ij_i] = sch.split(loops[0], params.workloadsPerBlock);
    int group = clampThreadX(feat, params.groupSize);
    auto [k_o, k_i] = sch.split(loops[1], group);
    sch.reorder({k_i, k_o});
    // Two-stage reduction (PRedS): factor the lane dimension out of
    // the reduction, then parallelize it over threadIdx.x.
    sch.rfactor("sddmm", k_i);
    sch.bind(ij_o, "blockIdx.x");
    sch.bind(ij_i, "threadIdx.y");
    sch.bind(k_i, "threadIdx.x");
    return selfVerified(lowerToStage3(sch), "sddmm");
}

std::shared_ptr<BoundKernel>
compileSddmm(const Csr &a, int64_t feat,
             const std::shared_ptr<BindingSet> &shared,
             const SddmmSchedule &params)
{
    PrimFunc stage3 = compileSddmmFunc(feat, params);

    shared->scalar("m", a.rows);
    shared->scalar("n", a.cols);
    shared->scalar("nnz", a.nnz());
    shared->scalar("feat_size", feat);
    shared->own("J_indptr", NDArray::fromInt32(a.indptr));
    shared->own("J_indices", NDArray::fromInt32(a.indices));
    shared->own("A_data", NDArray::fromFloat(a.values));
    return std::make_shared<BoundKernel>(stage3, shared);
}

// ---------------------------------------------------------------------
// BSR SpMM
// ---------------------------------------------------------------------

PrimFunc
compileBsrSpmmFunc(int32_t block_size, int64_t feat,
                   bool tensor_cores)
{
    PrimFunc stage2 = lowerToStage2(buildBsrSpmm(block_size));
    schedule::Schedule sch(stage2);
    auto loops = sch.getLoops("bsr_spmm");  // io, jo, k, ii, ji
    int tx = clampThreadX(feat, 32);
    auto [k_o, k_i] = sch.split(loops[2], tx);
    sch.bind(loops[0], "blockIdx.x");
    sch.bind(k_i, "threadIdx.x");
    if (tensor_cores) {
        sch.tensorize("bsr_spmm", "m16n16k16");
    }
    return selfVerified(lowerToStage3(sch), "bsr_spmm");
}

std::shared_ptr<BoundKernel>
compileBsrSpmm(const format::Bsr &a, int64_t feat,
               const std::shared_ptr<BindingSet> &shared,
               bool tensor_cores)
{
    PrimFunc stage3 =
        compileBsrSpmmFunc(a.blockSize, feat, tensor_cores);

    shared->scalar("mb", a.blockRows);
    shared->scalar("nb", a.blockCols);
    shared->scalar("nnzb", a.nnzBlocks());
    shared->scalar("feat_size", feat);
    shared->own("JO_indptr", NDArray::fromInt32(a.indptr));
    shared->own("JO_indices", NDArray::fromInt32(a.indices));
    shared->own("A_data", NDArray::fromFloat(a.values));
    return std::make_shared<BoundKernel>(stage3, shared);
}

// ---------------------------------------------------------------------
// BSR SDDMM
// ---------------------------------------------------------------------

PrimFunc
compileBsrSddmmFunc(int32_t block_size, int64_t feat,
                    bool tensor_cores)
{
    PrimFunc stage2 = lowerToStage2(buildBsrSddmm(block_size));
    schedule::Schedule sch(stage2);
    auto loops = sch.getLoops("bsr_sddmm");  // io, jo, ii, ji, k
    // One thread block per block row (the row-panel shape): the X
    // panel is loaded once per row and reused across every non-zero
    // block, unlike Triton's per-block reload.
    sch.bind(loops[0], "blockIdx.x");
    sch.bind(loops[3], "threadIdx.x");
    if (tensor_cores) {
        sch.tensorize("bsr_sddmm", "m16n16k16");
    }
    (void)feat;
    return selfVerified(lowerToStage3(sch), "bsr_sddmm");
}

std::shared_ptr<BoundKernel>
compileBsrSddmm(const format::Bsr &a, int64_t feat,
                const std::shared_ptr<BindingSet> &shared,
                bool tensor_cores)
{
    PrimFunc stage3 =
        compileBsrSddmmFunc(a.blockSize, feat, tensor_cores);

    shared->scalar("mb", a.blockRows);
    shared->scalar("nb", a.blockCols);
    shared->scalar("nnzb", a.nnzBlocks());
    shared->scalar("feat_size", feat);
    shared->own("JO_indptr", NDArray::fromInt32(a.indptr));
    shared->own("JO_indices", NDArray::fromInt32(a.indices));
    return std::make_shared<BoundKernel>(stage3, shared);
}

// ---------------------------------------------------------------------
// SR-BCRS SpMM
// ---------------------------------------------------------------------

PrimFunc
compileSrbcrsSpmmFunc(int32_t tile_height, int32_t group_size,
                      int64_t feat)
{
    PrimFunc stage2 = lowerToStage2(
        buildSrbcrsSpmm(tile_height, group_size));
    schedule::Schedule sch(stage2);
    auto loops = sch.getLoops("srbcrs_spmm");  // s, g, t, v, k
    int tx = clampThreadX(feat, 32);
    auto [k_o, k_i] = sch.split(loops[4], tx);
    sch.reorder({k_o, k_i, loops[3], loops[2]});
    sch.bind(loops[0], "blockIdx.x");
    sch.bind(k_i, "threadIdx.x");
    sch.tensorize("srbcrs_spmm", "m8n32k16");
    return selfVerified(lowerToStage3(sch), "srbcrs_spmm");
}

std::shared_ptr<BoundKernel>
compileSrbcrsSpmm(const format::SrBcrs &a, int64_t feat,
                  const std::shared_ptr<BindingSet> &shared)
{
    PrimFunc stage3 =
        compileSrbcrsSpmmFunc(a.tileHeight, a.groupSize, feat);

    shared->scalar("stripes", a.stripes);
    shared->scalar("n", a.cols);
    shared->scalar("total_groups", a.numGroups());
    shared->scalar("feat_size", feat);
    shared->own("G_indptr", NDArray::fromInt32(a.groupIndptr));
    shared->own("T_indices", NDArray::fromInt32(a.tileCols));
    shared->own("A_data", NDArray::fromFloat(a.values));
    return std::make_shared<BoundKernel>(stage3, shared);
}

// ---------------------------------------------------------------------
// ELL RGMS (fused gather-matmul-scatter)
// ---------------------------------------------------------------------

PrimFunc
compileEllRgmsFunc(int64_t num_rows, int width, int64_t feat_in,
                   int64_t feat_out, const std::string &suffix,
                   bool tensor_cores, int rows_per_block)
{
    const std::string block_name = "rgms_" + suffix;
    PrimFunc stage2 = lowerToStage2(
        buildEllRgms(num_rows, width, feat_in, feat_out, suffix));
    schedule::Schedule sch(stage2);
    auto loops = sch.getLoops(block_name);  // o, i, j, k, l
    std::string fused = sch.fuse(loops[0], loops[1]);
    int rpb = static_cast<int>(
        std::min<int64_t>(std::max(rows_per_block, 1), num_rows));
    auto [f_o, f_i] = sch.split(fused, rpb);
    int tx = clampThreadX(feat_out, 32);
    auto [l_o, l_i] = sch.split(loops[4], tx);
    sch.reorder({l_o, l_i, loops[2], loops[3]});
    sch.bind(f_o, "blockIdx.x");
    sch.bind(f_i, "threadIdx.y");
    sch.bind(l_i, "threadIdx.x");
    // Pin the relation's weight matrix in shared memory (Figure 21).
    sch.cacheRead(f_i, "W", MemScope::kShared);
    sch.cacheWrite(block_name, "Y", /*accumulate=*/true);
    if (tensor_cores) {
        sch.tensorize(block_name, "m16n16k16");
    }
    return selfVerified(lowerToStage3(sch), block_name);
}

std::shared_ptr<BoundKernel>
compileEllRgms(const format::Ell &bucket, int64_t feat_in,
               int64_t feat_out,
               const std::shared_ptr<BindingSet> &shared,
               const std::string &suffix, bool tensor_cores,
               int rows_per_block)
{
    PrimFunc stage3 =
        compileEllRgmsFunc(bucket.numRows(), bucket.width, feat_in,
                           feat_out, suffix, tensor_cores,
                           rows_per_block);

    shared->own(ellRowIndicesParam(suffix),
                NDArray::fromInt32(bucket.rowIndices));
    shared->own(ellColIndicesParam(suffix),
                NDArray::fromInt32(bucket.colIndices));
    shared->own(rgmsValuesParam(suffix),
                NDArray::fromFloat(bucket.values));
    return std::make_shared<BoundKernel>(stage3, shared);
}

// ---------------------------------------------------------------------
// References
// ---------------------------------------------------------------------

std::vector<float>
referenceSpmm(const Csr &a, const std::vector<float> &b, int64_t feat)
{
    ICHECK_EQ(static_cast<int64_t>(b.size()), a.cols * feat);
    std::vector<float> out(a.rows * feat, 0.0f);
    for (int64_t r = 0; r < a.rows; ++r) {
        for (int32_t p = a.indptr[r]; p < a.indptr[r + 1]; ++p) {
            float v = a.values[p];
            const float *brow = &b[static_cast<int64_t>(a.indices[p]) *
                                   feat];
            float *crow = &out[r * feat];
            for (int64_t k = 0; k < feat; ++k) {
                crow[k] += v * brow[k];
            }
        }
    }
    return out;
}

std::vector<float>
referenceSddmm(const Csr &a, const std::vector<float> &x,
               const std::vector<float> &y, int64_t feat)
{
    std::vector<float> out(a.nnz(), 0.0f);
    for (int64_t r = 0; r < a.rows; ++r) {
        for (int32_t p = a.indptr[r]; p < a.indptr[r + 1]; ++p) {
            int64_t c = a.indices[p];
            float acc = 0.0f;
            for (int64_t k = 0; k < feat; ++k) {
                acc += x[r * feat + k] * y[k * a.cols + c];
            }
            out[p] = a.values[p] * acc;
        }
    }
    return out;
}

} // namespace core
} // namespace sparsetir
