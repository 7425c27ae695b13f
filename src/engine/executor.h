/**
 * @file
 * Deterministic parallel execution of lowered kernels on the host
 * backends (native .so tier when promoted, bytecode VM by default,
 * tree-walking interpreter as the reference oracle).
 *
 * One entry point, ParallelExecutor::run(kernels, requests). Serial
 * sessions (parallel off, or a pool of one) run the kernels in list
 * order per request; that serial order is the oracle. Every other
 * session plans the dispatch as one task graph whose units — a block
 * range of one kernel, or a run of whole kernels, under one request —
 * all run on the caller's shared storage, under one rule:
 *
 *   A unit waits on each earlier unit of its request, in serial
 *   (kernel, then chunk) order, whose write hull overlaps its own on
 *   the same accumulated output. A unit with no hull conflicts with
 *   every accumulating unit of its request.
 *
 * Every output element therefore receives its read-modify-write
 * updates in exactly the serial order, so results are bitwise equal
 * to serial by construction: nothing is copied, zeroed or folded, and
 * no update is reassociated.
 *
 * Write hulls come from the format. A kernel's AccumOutput may carry
 * one element hull per grid block; a unit's hull is the span of its
 * blocks' hulls. The engine derives them for hyb and RGCN bucket
 * kernels from their ascending scatter rows and attaches them only
 * after the static verifier proves that every block's stores stay
 * inside its hull. The one rule then covers every dispatch shape:
 *  - a batch that fills the pool runs one unit per request, which
 *    runs the request's kernels in list order (the serial oracle's
 *    order) with no edges: requests bind disjoint outputs, so they
 *    run in parallel;
 *  - a single request cuts every kernel at common element cuts, so
 *    units of one band chain through the kernels while bands run in
 *    parallel, with edges only where hulls straddle a cut;
 *  - a split-row kernel (duplicate scatter rows) whose chunks overlap
 *    gets an edge between those chunks;
 *  - a kernel whose write set is unknown runs whole, in order.
 *
 * Outputs that are not accumulated are written by plain stores, which
 * the lowering keeps disjoint across grid blocks; different kernels of
 * one dispatch share outputs only through accumulation, and requests
 * bind disjoint outputs. Units touching only such outputs wait on
 * nothing. The write-set classification is computed from the IR, not
 * trusted from callers: accumulatedParams() scans for read-modify-
 * write stores and atomic_add calls on parameter-bound buffers.
 */

#ifndef SPARSETIR_ENGINE_EXECUTOR_H_
#define SPARSETIR_ENGINE_EXECUTOR_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/thread_pool.h"
#include "ir/prim_func.h"
#include "runtime/bytecode/program.h"
#include "runtime/interpreter.h"
#include "runtime/ndarray.h"

namespace sparsetir {

namespace observe {
class Counter;
} // namespace observe

namespace runtime {
namespace native {
struct KernelProof;
struct NativeKernel;
} // namespace native
} // namespace runtime

namespace engine {

/** Per-call execution controls (the pool size is the worker cap). */
struct ExecOptions
{
    /**
     * Do not split a grid into chunks smaller than this (for kernels
     * cut at common element cuts: on average over their blocks).
     */
    int64_t minBlocksPerChunk = 8;
    /** Master switch; false forces serial in-order execution. */
    bool parallel = true;
    /** Host backend kernels execute on. */
    runtime::Backend backend = runtime::Backend::kBytecode;
    /**
     * Counts native executions whose proof guard refused the bindings
     * and ran on bytecode instead (the engine's native.guard_misses);
     * null: not counted.
     */
    observe::Counter *guardMisses = nullptr;
};

/** Element range [begin, end) of a flat buffer. */
using Span = std::pair<int64_t, int64_t>;

/** One read-modify-write output of a kernel. */
struct AccumOutput
{
    /** Parameter name of the accumulated buffer. */
    std::string name;
    /**
     * Element hull of each grid block: every element block b of the
     * kernel updates lies in hulls[b]. Empty when the write set is
     * unknown; the task graph then orders the kernel after every
     * accumulating unit of its request. Hulls come only from a
     * verifier proof (the engine's hyb and RGCN builders).
     */
    std::vector<Span> hulls;
};

/**
 * Atomically swappable native-kernel attachment of a CompiledKernel.
 *
 * The box is created empty at compile time and shared by every copy
 * of the kernel (artifacts hand kernels around by value); when the
 * engine's background promotion finishes a native build it set()s the
 * pointer, and in-flight dispatches pick it up on their next get() —
 * the "atomic artifact swap" of the tiered-execution design. Loads
 * and stores use the C++17 atomic shared_ptr free functions, so
 * readers never see a torn pointer and the .so stays alive (its
 * refcounted dlopen handle) for as long as any dispatch uses it.
 */
class NativeBox
{
  public:
    std::shared_ptr<const runtime::native::NativeKernel>
    get() const
    {
        return std::atomic_load(&ptr_);
    }

    void
    set(std::shared_ptr<const runtime::native::NativeKernel> kernel)
    {
        std::atomic_store(&ptr_, std::move(kernel));
    }

  private:
    std::shared_ptr<const runtime::native::NativeKernel> ptr_;
};

/**
 * A kernel in executable form: Stage III IR plus the compiled
 * bytecode program and the cached write-set analysis. This is the
 * unit engine artifacts cache — warm dispatches reuse the program
 * and analysis without touching the IR.
 */
struct CompiledKernel
{
    /** The IR every backend runs: the input, hoisted. */
    ir::PrimFunc func;
    /** Null when the function is not bytecode-compilable. */
    std::shared_ptr<const runtime::bytecode::Program> program;
    /** Accumulated outputs (see accumulatedParams). */
    std::vector<AccumOutput> accums;
    /**
     * Launch info spilled at compile time: the extent expression of
     * the outermost blockIdx.x-bound loop, null when the kernel has
     * no block grid. Warm dispatches size their grid by evaluating
     * this against the request's scalar bindings
     * (runtime::evalScalarExtent).
     */
    ir::Expr blockExtent;
    /**
     * Native-tier attachment, shared by every copy of this kernel
     * (see NativeBox). Empty until the engine promotes the kernel;
     * kNative dispatches that find it empty execute on bytecode.
     */
    std::shared_ptr<NativeBox> native;
    /**
     * The facts of the verifier proof `func` passed, set by the
     * engine once the proof succeeds; native promotion emits a proven
     * kernel without per-access checks. Null: unproven, checked.
     */
    std::shared_ptr<const runtime::native::KernelProof> proof;
};

/**
 * Compile `func` for execution: transform::hoistInvariants, then the
 * bytecode program of the hoisted IR (interpreter-only
 * functions get a null program and fall back transparently) plus the
 * write-set analysis, with hull-less accumulators (the engine attaches
 * proven block hulls).
 */
CompiledKernel compileKernel(const ir::PrimFunc &func);

/**
 * Element hull of each grid block of a scatter kernel whose block b
 * updates the rows rows[b * rows_per_block, (b + 1) * rows_per_block)
 * of a row-major output with `row_width` elements per row. `rows`
 * must be non-decreasing (hyb and RGCN bucket row lists are), so a
 * block's hull runs from its first row to the end of its last.
 */
std::vector<Span> blockHulls(const std::vector<int32_t> &rows,
                             int64_t rows_per_block, int64_t row_width);

/**
 * Plan of one parallel dispatch: a DAG over units in serial order.
 *
 * A unit runs kernels [kernel, kernelEnd) in list order under one
 * request's bindings; a unit of one kernel may cover only a block
 * range of it. Units are listed in the serial oracle's order —
 * request, then kernel, then chunk — and each lists the earlier units
 * it must wait for (see the file comment for the rule). Units on
 * disjoint elements run concurrently on shared storage; there is no
 * barrier anywhere.
 */
struct TaskGraph
{
    struct Unit
    {
        int request = 0;
        /** Kernels [kernel, kernelEnd), run whole when more than one. */
        int kernel = 0;
        int kernelEnd = 1;
        /** Grid window [blockBegin, blockEnd); blockEnd -1: unsplit. */
        int64_t blockBegin = 0;
        int64_t blockEnd = -1;
        /** Earlier units (indices into `units`) this unit waits on. */
        std::vector<int> after;
    };

    std::vector<const CompiledKernel *> kernels;
    std::vector<Unit> units;
    int numRequests = 0;
};

class ParallelExecutor
{
  public:
    explicit ParallelExecutor(std::shared_ptr<ThreadPool> pool);

    /**
     * Names of parameter-bound buffers the kernel updates by
     * read-modify-write (accumulate write-back or atomic_add).
     */
    static std::vector<std::string>
    accumulatedParams(const ir::PrimFunc &func);

    /**
     * Execute every kernel once per request. Results are bitwise
     * identical to running the kernels serially in list order under
     * each request's bindings; requests are borrowed and must bind
     * disjoint output arrays (they may share read-only inputs).
     * Serial sessions run exactly that order; every other session
     * builds and runs the task graph.
     */
    void run(const std::vector<const CompiledKernel *> &kernels,
             const std::vector<const runtime::Bindings *> &requests,
             const ExecOptions &options = ExecOptions()) const;

    /**
     * Plan a dispatch of `kernels` x `requests` (see TaskGraph). When
     * the requests alone fill the pool (requests >= workers) nothing
     * is split: one edge-free unit per request covers its whole
     * kernel list. Otherwise each request asks for
     * ceil(workers / requests) chunks per kernel. Kernels
     * with block hulls are cut at element cuts common to all of them
     * (quantiles of their blocks' hull starts, found in each kernel by
     * binary search), so chunk c of every kernel covers roughly the
     * same band of the output. Kernels without accumulated outputs
     * split their grid evenly, evaluated against the request's
     * scalars via the spilled block extent. Kernels that accumulate
     * with no hulls stay whole. No chunk is planned below
     * minBlocksPerChunk blocks on average. The graph borrows
     * `kernels`; both it and `requests` must outlive every
     * runTaskGraph call, which must receive the same requests and
     * compatible options.
     */
    TaskGraph buildTaskGraph(
        const std::vector<const CompiledKernel *> &kernels,
        const std::vector<const runtime::Bindings *> &requests,
        const ExecOptions &options = ExecOptions()) const;

    /**
     * Drain a task graph from one ready set: pool workers take the
     * earliest ready unit, run it on shared storage and release the
     * units waiting on it. If a unit throws, units already running
     * finish, no further unit starts, and the first error is rethrown.
     * Each unit records one `fused.unit` trace span with args
     * (kernel, request) for a unit of one kernel, and (kernels,
     * request) with the kernel count for a unit of several, which
     * buildTaskGraph plans only over the whole list, [0, kernels).
     */
    void runTaskGraph(
        const TaskGraph &graph,
        const std::vector<const runtime::Bindings *> &requests,
        const ExecOptions &options = ExecOptions()) const;

  private:
    /** Whether `options` (or a pool of one) forces serial order. */
    bool serial(const ExecOptions &options) const;

    std::shared_ptr<ThreadPool> pool_;
};

} // namespace engine
} // namespace sparsetir

#endif // SPARSETIR_ENGINE_EXECUTOR_H_
