/**
 * @file
 * End-to-end compile pipelines: Stage I op -> (format decomposition)
 * -> lowering -> Stage II schedules -> Stage III -> bound, runnable,
 * simulatable kernels.
 *
 * This is the public API a downstream user programs against; the
 * bench harness and examples are built on it.
 */

#ifndef SPARSETIR_CORE_PIPELINE_H_
#define SPARSETIR_CORE_PIPELINE_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "format/bsr.h"
#include "format/csr.h"
#include "format/ell.h"
#include "format/hyb.h"
#include "format/srbcrs.h"
#include "gpusim/ir_kernel.h"
#include "ir/prim_func.h"
#include "runtime/interpreter.h"
#include "verify/verifier.h"

namespace sparsetir {
namespace core {

/** Owned + external arrays/scalars shared by a group of kernels. */
class BindingSet
{
  public:
    /**
     * Own an array under a parameter name; returns a stable pointer.
     * Throws UserError if the name is already bound (owned or
     * external): silently shadowing a live binding would leak the old
     * storage's purpose and almost always indicates a suffix clash
     * between kernels sharing the set.
     */
    runtime::NDArray *own(const std::string &param, runtime::NDArray arr);
    /**
     * Bind an external array (caller keeps ownership). Re-pointing an
     * existing external binding is allowed (swapping I/O buffers
     * between runs); shadowing owned storage throws UserError.
     */
    void external(const std::string &param, runtime::NDArray *arr);
    /** Bind a scalar. */
    void scalar(const std::string &param, int64_t value);

    const runtime::Bindings &view() const { return bindings_; }
    runtime::NDArray *find(const std::string &param) const;

  private:
    runtime::Bindings bindings_;
    std::deque<runtime::NDArray> storage_;
    std::set<std::string> owned_;
};

/** A Stage III function bound to data: executable and simulatable. */
class BoundKernel
{
  public:
    BoundKernel(ir::PrimFunc stage3,
                std::shared_ptr<BindingSet> bindings);

    const ir::PrimFunc &func() const { return func_; }
    const std::shared_ptr<BindingSet> &bindings() const
    {
        return bindings_;
    }

    /** Functional execution on the host interpreter. */
    void execute() const;

    /** Simulator adapter (built lazily, cached). */
    gpusim::IrKernel &simKernel();

  private:
    ir::PrimFunc func_;
    std::shared_ptr<BindingSet> bindings_;
    std::unique_ptr<gpusim::IrKernel> sim_;
};

/** Tunable schedule parameters for SpMM-family kernels. */
struct SpmmSchedule
{
    /** threadIdx.x width over the feature dimension. */
    int threadX = 32;
};

/** Tunable schedule parameters for SDDMM. */
struct SddmmSchedule
{
    /** Non-zeros per thread block. */
    int workloadsPerBlock = 8;
    /** Reduction lanes (rfactor width). */
    int groupSize = 32;
};

// ---------------------------------------------------------------------
// Compile-only entry points (no data binding)
//
// These produce Stage III kernel IR as a pure function of operator
// kind, format structure constants and schedule parameters — the unit
// the engine's compile cache memoizes. The compile-and-bind helpers
// below are implemented on top of them.
// ---------------------------------------------------------------------

/** Stage III CSR SpMM kernel (structure-independent). */
ir::PrimFunc compileSpmmCsrFunc(int64_t feat,
                                const SpmmSchedule &params);

/** One scheduled hyb bucket kernel plus its identifying structure. */
struct HybKernelPlan
{
    /** "p{partition}b{bucket}" — names the bucket's bound arrays. */
    std::string suffix;
    int partition = 0;
    int bucket = 0;
    int64_t numRows = 0;
    int width = 0;
    /** Bucket rows per grid block (the blockIdx.x split factor). */
    int rowsPerBlock = 1;
    ir::PrimFunc func;
};

/** Which machine a Stage II schedule is shaped for. */
enum class ScheduleTarget {
    /**
     * Host backends (interpreter, bytecode, native): the natural
     * (row-block, row, non-zero, feature) order with blockIdx.x over
     * row blocks, feat_size bound to the compile-time feat, a
     * feature-wide accumulator and loop invariants hoisted. Each
     * bucket's row count is a constant of its kernel.
     */
    kHost,
    /**
     * The kHost schedule with each bucket's row count a scalar
     * parameter (ellRowsParam) and rowsPerBlock never clamped to it,
     * so buckets of one width compile to one kernel body whatever
     * their row counts. What the engine serves; kHost stays for
     * callers that bind no row scalars.
     */
    kHostRowScalar,
    /**
     * The paper's GE-SpMM GPU schedule: feature lanes bound to
     * threadIdx.x outside the non-zero loop, rows to threadIdx.y,
     * one 1-element accumulator per lane. The GPU simulator's input.
     */
    kGpu,
};

/**
 * Stage III kernels for every non-empty (partition, bucket) of a hyb
 * decomposition, scheduled for `target`. Every target processes
 * rowsPerBlock rows per blockIdx.x block with the same per-element
 * order of additions, so their outputs are bitwise equal. Depends
 * only on the bucket shape of `hyb` (row counts and widths), not its
 * values; under kHostRowScalar only on the widths.
 */
std::vector<HybKernelPlan> compileSpmmHybFuncs(
    const format::Hyb &hyb, int64_t feat,
    ScheduleTarget target = ScheduleTarget::kHost);

/**
 * Parameter names the suffix-derived kernels bind. Everything that
 * binds data to these kernels (the compile-and-bind helpers below,
 * the engine's dispatchers) must derive names here so a rename in
 * the lowering cannot silently strand a binder on stale strings.
 */
inline std::string
ellRowIndicesParam(const std::string &suffix)
{
    return "I" + suffix + "_indices";
}
inline std::string
ellColIndicesParam(const std::string &suffix)
{
    return "J" + suffix + "_indices";
}
/** Row-count scalar of a kHostRowScalar hyb bucket kernel. */
inline std::string
ellRowsParam(const std::string &suffix)
{
    return "rows_" + suffix;
}
/** Value array of a hyb SpMM bucket kernel. */
inline std::string
hybValuesParam(const std::string &suffix)
{
    return "A_ell_" + suffix + "_data";
}
/** Value array of an ELL RGMS kernel. */
inline std::string
rgmsValuesParam(const std::string &suffix)
{
    return "A" + suffix + "_data";
}

/** Stage III fused SDDMM kernel (structure-independent). */
ir::PrimFunc compileSddmmFunc(int64_t feat,
                              const SddmmSchedule &params);

/**
 * Stage III BSR SpMM kernel. Depends only on the block edge and the
 * feature width — the facts the engine folds into its cache key —
 * never on which blocks are present.
 */
ir::PrimFunc compileBsrSpmmFunc(int32_t block_size, int64_t feat,
                                bool tensor_cores);

/**
 * Stage III BSR SDDMM kernel: one thread block per block row, the
 * X panel staged and reused across the row's non-zero blocks;
 * `tensor_cores` routes the per-block MMA to the TC pipe (fp16).
 */
ir::PrimFunc compileBsrSddmmFunc(int32_t block_size, int64_t feat,
                                 bool tensor_cores);

/** Stage III SR-BCRS(t, g) SpMM kernel (structure-independent). */
ir::PrimFunc compileSrbcrsSpmmFunc(int32_t tile_height,
                                   int32_t group_size, int64_t feat);

/** Stage III ELL RGMS kernel for one (relation, bucket) pair. */
ir::PrimFunc compileEllRgmsFunc(int64_t num_rows, int width,
                                int64_t feat_in, int64_t feat_out,
                                const std::string &suffix,
                                bool tensor_cores,
                                int rows_per_block = 4);

// ---------------------------------------------------------------------
// Compile-and-bind helpers
// ---------------------------------------------------------------------

/** CSR SpMM (SparseTIR no-hyb): C = A @ B. */
std::shared_ptr<BoundKernel> compileSpmmCsr(
    const format::Csr &a, int64_t feat,
    const std::shared_ptr<BindingSet> &shared,
    const SpmmSchedule &params = SpmmSchedule());

/** Result of a hyb(c, k) SpMM compilation. */
struct HybSpmm
{
    format::Hyb hyb;
    /** One kernel per non-empty (partition, bucket). */
    std::vector<std::shared_ptr<BoundKernel>> kernels;
    std::shared_ptr<BindingSet> bindings;
};

/**
 * SpMM through the composable-format pipeline: decomposeFormat with
 * one ELL rule per non-empty (partition, bucket), per-bucket GE-SpMM
 * GPU schedules (ScheduleTarget::kGpu), bucket data prepared by
 * format::hybFromCsr. The paper's Figure 11/13 "SparseTIR(hyb)"
 * configuration, as the GPU simulator sees it.
 */
HybSpmm compileSpmmHyb(const format::Csr &a, int64_t feat, int c, int k,
                       const std::shared_ptr<BindingSet> &shared);

/** Fused SDDMM with two-stage (rfactor) reduction, PRedS-style. */
std::shared_ptr<BoundKernel> compileSddmm(
    const format::Csr &a, int64_t feat,
    const std::shared_ptr<BindingSet> &shared,
    const SddmmSchedule &params = SddmmSchedule());

/** BSR SpMM; `tensor_cores` routes the MMA to the TC pipe (fp16). */
std::shared_ptr<BoundKernel> compileBsrSpmm(
    const format::Bsr &a, int64_t feat,
    const std::shared_ptr<BindingSet> &shared, bool tensor_cores);

/**
 * BSR SDDMM (sparse-attention row-panel kernel): samples X @ Y at
 * the present blocks of `a`. Binds the block structure and leaves
 * "X_data"/"Y_data"/"B_data" for the caller.
 */
std::shared_ptr<BoundKernel> compileBsrSddmm(
    const format::Bsr &a, int64_t feat,
    const std::shared_ptr<BindingSet> &shared,
    bool tensor_cores = false);

/** SR-BCRS(t, g) SpMM with Tensor-Core MMA (m8n32k16). */
std::shared_ptr<BoundKernel> compileSrbcrsSpmm(
    const format::SrBcrs &a, int64_t feat,
    const std::shared_ptr<BindingSet> &shared);

/**
 * One fused gather-matmul-scatter kernel for an ELL bucket of one
 * relation (paper Figure 21): Y += scatter(A_ell @ X @ W_r).
 * X/W/Y are bound externally in `shared` as "X_data"/"W_data"/
 * "Y_data" by the caller. Suffix keeps kernels distinct.
 */
std::shared_ptr<BoundKernel> compileEllRgms(
    const format::Ell &bucket, int64_t feat_in, int64_t feat_out,
    const std::shared_ptr<BindingSet> &shared, const std::string &suffix,
    bool tensor_cores, int rows_per_block = 4);

// ---------------------------------------------------------------------
// Static verification hooks
// ---------------------------------------------------------------------

/**
 * Declare the format invariants of a Stage III kernel's structure
 * arrays to a verifier context, recognized by parameter name:
 * indptr arrays (J_indptr / JO_indptr / G_indptr) are non-negative,
 * monotone 0 -> nnz-like totals; index arrays (J_indices,
 * JO_indices, T_indices and the per-bucket I<s>_indices /
 * J<s>_indices) hold valid row/column ids. These are exactly the
 * invariants the format library establishes, expressed over the
 * function's own scalar parameters — so a symbolic verification of
 * the kernel holds for EVERY structure, not just one request's.
 */
void declareFormatFacts(const ir::PrimFunc &func,
                        verify::VerifyContext *ctx);

/** Dense reference SpMM for verification: C = A_dense @ B. */
std::vector<float> referenceSpmm(const format::Csr &a,
                                 const std::vector<float> &b,
                                 int64_t feat);

/** Dense reference SDDMM: out_nnz = (X @ Y) masked to A's pattern. */
std::vector<float> referenceSddmm(const format::Csr &a,
                                  const std::vector<float> &x,
                                  const std::vector<float> &y,
                                  int64_t feat);

} // namespace core
} // namespace sparsetir

#endif // SPARSETIR_CORE_PIPELINE_H_
