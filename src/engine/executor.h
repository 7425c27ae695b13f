/**
 * @file
 * Deterministic parallel execution of lowered kernels on the host
 * backends (native .so tier when promoted, bytecode VM by default,
 * tree-walking interpreter as the reference oracle).
 *
 * One entry point, ParallelExecutor::run(kernels, requests), and one
 * parallel schedule: the fused task graph. A dispatch of N kernels
 * (hyb buckets, RGCN units, or a single kernel) over M requests (each
 * with its own bindings over shared structure) is flattened into ONE
 * pool of compute units — a kernel's grid chunk under one request's
 * bindings — with no barrier between kernels or requests. Serial
 * sessions (parallel off, or a pool of one) run the kernels in list
 * order per request instead; that serial order is the oracle every
 * parallel result is bitwise-equal to (up to IEEE signed-zero
 * identity).
 *
 * When the requests alone fill the pool (M >= workers), the graph has
 * no compute units at all: each request's chain runs its kernels in
 * list order on shared storage — the serial order, so bitwise by
 * construction — and the parallelism is across requests. Nothing is
 * privatized, zeroed, windowed or folded, so every kernel keeps its
 * backend's fast path for plain (unwindowed) outputs; the native
 * tier's typed view covers single-span windows only, and a
 * privatized unit's multi-span window sends each of its output
 * accesses through the checked span-search helper instead.
 *
 * Determinism lives in per-request fold chains (see TaskGraph).
 * Plain (overwrite) stores to bound buffers are per-block disjoint by
 * the lowering contract, so units write shared storage directly.
 * Read-modify-write outputs (cache_write accumulate, rfactor
 * write-back, atomic_add) are privatized: each unit accumulates into
 * a private zero copy, and the privates are folded into the shared
 * buffer in kernel-list order, chunk order within a kernel. Per
 * output element the sequence of additions is exactly the serial one.
 * Non-accumulated writes of different kernels must target disjoint
 * elements (true for every kernel family the engine emits, which
 * share outputs only through accumulation), and requests must bind
 * disjoint outputs.
 *
 * Privatization replays the serial addition order per element only
 * when each unit performs at most ONE read-modify-write write-back
 * per output element: folding a private that accumulated two
 * write-backs (a1 + a2) onto a non-zero pre-value computes
 * pre + (a1 + a2) where serial computed ((pre + a1) + a2) — an
 * ULP-level reassociation. Kernels that can write one element twice
 * (hyb's widest bucket when long rows were split into several ELL
 * rows) are therefore marked `exclusive` by the caller — the engine
 * derives the mask from format provenance (duplicate row indices) —
 * and run unsplit on shared storage at their exact chain position,
 * like every kernel of a dispatch whose requests fill the pool.
 *
 * Privatization cost — scratch bytes AND zero/fold work — is bounded
 * by each kernel's write set, not the output size: a CompiledKernel's
 * AccumOutput may carry the element spans the kernel can touch (the
 * engine derives them from scatter row indices), and the executor
 * then leases scratch sized to the sum of span extents, binds it
 * through an offset-translating window (runtime::OffsetView threaded
 * via RunOptions::offsetViews — kernels keep writing absolute
 * offsets), and zeroes/folds exactly that compact buffer. A unit
 * touching 2% of the rows pays 2% of the scratch bytes and zero/fold
 * work, so a many-unit dispatch peaks at O(sum of span extents), not
 * O(units x output). A unit whose write set is empty takes a
 * zero-byte lease and folds nothing — its output is left
 * bit-identical (the whole-array fallback is an explicit AccumOutput
 * flag, never inferred from an empty span list). Accesses outside
 * the declared spans fault on every backend, turning the "spans MUST
 * cover every element the kernel updates" contract into a checked
 * one.
 *
 * The write-set classification is computed from the IR, not trusted
 * from callers: accumulatedParams() scans for read-modify-write
 * stores and atomic_add calls on parameter-bound buffers.
 */

#ifndef SPARSETIR_ENGINE_EXECUTOR_H_
#define SPARSETIR_ENGINE_EXECUTOR_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/thread_pool.h"
#include "ir/prim_func.h"
#include "runtime/bytecode/program.h"
#include "runtime/interpreter.h"
#include "runtime/ndarray.h"

namespace sparsetir {

namespace runtime {
namespace native {
struct NativeKernel;
} // namespace native
} // namespace runtime

namespace engine {

/** Per-call execution controls (the pool size is the worker cap). */
struct ExecOptions
{
    /** Do not split a grid into chunks smaller than this. */
    int64_t minBlocksPerChunk = 8;
    /** Master switch; false forces serial in-order execution. */
    bool parallel = true;
    /** Host backend kernels execute on. */
    runtime::Backend backend = runtime::Backend::kBytecode;
};

/** Element range [begin, end) of a flat buffer. */
using Span = std::pair<int64_t, int64_t>;

/** One read-modify-write output of a kernel. */
struct AccumOutput
{
    /** Parameter name of the accumulated buffer. */
    std::string name;
    /**
     * Write set unknown: privatization falls back to a
     * whole-output-sized scratch copy with no offset translation.
     * setSpans() clears this and installs the exact write set —
     * which may be EMPTY, meaning the kernel touches no element and
     * privatization leases, zeroes and folds nothing. (Historically
     * an empty span list was the whole-array sentinel, so a
     * zero-touched-rows unit paid a full-output zero+fold and
     * flipped -0.0 pre-values to +0.0; the explicit flag removes
     * that ambiguity.)
     */
    bool wholeArray = true;
    /**
     * Compact window over the write set (meaningful when
     * !wholeArray): sorted, disjoint absolute spans that MUST cover
     * every element the kernel updates — enforced, since both
     * backends fault on accesses outside the window — packed into
     * window.numel == sum(span extents) scratch elements.
     */
    runtime::OffsetView window;

    /**
     * Install the exact write set (sorted, disjoint element spans,
     * e.g. from touchedRowSpans) and build its packed window.
     */
    void setSpans(std::vector<Span> spans);
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
    ir::PrimFunc func;
    /** Null when the function is not bytecode-compilable. */
    std::shared_ptr<const runtime::bytecode::Program> program;
    /** Accumulated outputs (see accumulatedParams). */
    std::vector<AccumOutput> accums;
    /**
     * Kernel may write one output element more than once; it then
     * runs serially at its list position (see file comment).
     */
    bool exclusive = false;
    /**
     * Launch info spilled at compile time: the extent expression of
     * the outermost blockIdx.x-bound loop, null when the kernel has
     * no block grid. Warm dispatches size their grid by evaluating
     * this against the request's scalar bindings
     * (runtime::evalScalarExtent) — the interpreter-based
     * runtime::launchInfo probe never runs on the warm path.
     */
    ir::Expr blockExtent;
    /**
     * Native-tier attachment, shared by every copy of this kernel
     * (see NativeBox). Empty until the engine promotes the kernel;
     * kNative dispatches that find it empty execute on bytecode.
     */
    std::shared_ptr<NativeBox> native;
};

/**
 * Compile `func` for execution: bytecode program (interpreter-only
 * functions get a null program and fall back transparently) plus the
 * write-set analysis, with whole-array accumulators (callers narrow
 * them via AccumOutput::setSpans). Pass `with_program` = false for
 * interpreter-backend sessions to skip bytecode compilation for
 * programs they will never execute, and `analyze_accums` = false
 * when the caller supplies a precomputed write-set list (skips the
 * IR walk).
 */
CompiledKernel compileKernel(const ir::PrimFunc &func,
                             bool with_program = true,
                             bool analyze_accums = true);

/**
 * Element spans of `rows` (a scatter-target row list, duplicates
 * allowed) over a row-major output with `row_width` elements per
 * row: sorted, merged, disjoint.
 */
std::vector<Span> touchedRowSpans(const std::vector<int32_t> &rows,
                                  int64_t row_width);

/** Scratch-pool accounting snapshot (see ScratchPool::stats). */
struct ScratchStats
{
    /** Bytes currently out on lease. */
    int64_t leasedBytes = 0;
    /** High-water mark of leasedBytes since the last resetPeak(). */
    int64_t peakLeasedBytes = 0;
    /** Bytes retained on the free lists, awaiting reuse. */
    int64_t freeBytes = 0;
    /** Total acquire() calls. */
    uint64_t leases = 0;
    /** Leases served by constructing a new buffer (pool misses). */
    uint64_t allocations = 0;
};

/**
 * Pool of reusable privatization buffers keyed by (numel, dtype).
 *
 * Contents of a lease are UNSPECIFIED — freshly constructed NDArrays
 * happen to be zero-filled, but callers must not rely on it; the
 * executor zeroes every lease itself, and poisonFree() lets tests
 * overwrite retained buffers to prove that. Retained free bytes are
 * bounded (maxFreeBytes, least-recently-released-first trim), so a
 * long-lived session serving many distinct shapes cannot accumulate
 * unbounded scratch. All methods are thread-safe.
 */
class ScratchPool
{
  public:
    struct Lease
    {
        runtime::NDArray *array = nullptr;
        /** Newly constructed for this lease (pool miss). */
        bool fresh = false;
    };

    /** Default free-list retention budget across all keys. */
    static constexpr int64_t kDefaultMaxFreeBytes = 256ll << 20;

    explicit ScratchPool(int64_t max_free_bytes = kDefaultMaxFreeBytes);

    Lease acquire(int64_t numel, ir::DataType dtype);
    void release(runtime::NDArray *array);

    /** Accounting snapshot (peak tracks leased bytes, see stats). */
    ScratchStats stats() const;
    /** Restart the high-water mark from the current leased bytes. */
    void resetPeak();
    /**
     * Overwrite every retained free buffer with `byte` — a test hook
     * for the zero-on-lease contract: execution results must never
     * depend on what a reused lease happens to contain.
     */
    void poisonFree(unsigned char byte);

  private:
    using Key = std::pair<int64_t, uint64_t>;
    /** A retained buffer with its release recency stamp. */
    struct FreeEntry
    {
        std::unique_ptr<runtime::NDArray> array;
        uint64_t seq = 0;
    };

    /** Caller holds mu_. Drop the least-recently-released buffer. */
    void evictOldestLocked();

    mutable std::mutex mu_;
    int64_t maxFreeBytes_;
    /** Per-key stacks; entries within a key are release-ordered. */
    std::map<Key, std::vector<FreeEntry>> free_;
    /** Leased arrays, for key recovery on release. */
    std::map<runtime::NDArray *, Key> leased_;
    int64_t freeBytes_ = 0;
    int64_t leasedBytes_ = 0;
    int64_t peakLeasedBytes_ = 0;
    uint64_t leases_ = 0;
    uint64_t allocations_ = 0;
    uint64_t seq_ = 0;
};

/**
 * Plan of one fused dispatch: the cross product of N kernels x M
 * requests flattened into ONE schedulable unit pool, plus the
 * per-request fold chains that keep the results bitwise identical to
 * serial dispatch.
 *
 * Compute units — a kernel's grid chunk under one request's bindings,
 * privatized onto write-set-sized scratch — carry no ordering
 * constraints at all: a unit of hyb bucket 3 / request 2 may run
 * before a unit of bucket 0 / request 0. Determinism lives entirely
 * in the chains: per request, privates fold in kernel list order
 * (chunk order within a kernel), and an on-shared entry (an
 * exclusive kernel, see the file comment) executes on shared storage
 * at its exact list position — after every earlier kernel's fold,
 * before every later one's — while OTHER requests' units keep flowing
 * through the pool. Per (request, output) element the addition
 * sequence is therefore exactly the serial one; there is no barrier
 * anywhere. When the requests alone fill the pool, every entry is on shared
 * storage and each chain is simply its request's serial sequence.
 */
struct TaskGraph
{
    /** One compute unit: a grid chunk of `kernel` under `request`. */
    struct Unit
    {
        int request = 0;
        int kernel = 0;
        /** Grid window [blockBegin, blockEnd); blockEnd -1: unsplit. */
        int64_t blockBegin = 0;
        int64_t blockEnd = -1;
    };

    /**
     * One link of a request's fold chain, in kernel list order:
     * either the in-order fold of a kernel's privatized chunk units,
     * or the execution of the kernel on shared storage at its list
     * position (exclusive kernels, and every kernel of a dispatch
     * whose requests fill the pool).
     */
    struct ChainEntry
    {
        int kernel = 0;
        bool onShared = false;
        /** First unit index + count (chunk order); 0/0 if onShared. */
        size_t firstUnit = 0;
        int numUnits = 0;
    };

    std::vector<const CompiledKernel *> kernels;
    std::vector<Unit> units;
    /** chains[r]: request r's entries, one per kernel, in list order. */
    std::vector<std::vector<ChainEntry>> chains;
    int numRequests = 0;
};

class ParallelExecutor
{
  public:
    explicit ParallelExecutor(std::shared_ptr<ThreadPool> pool);

    const std::shared_ptr<ThreadPool> &pool() const { return pool_; }

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
     * builds and runs the fused task graph. Returns the number of
     * compute units that ran on privatized scratch (0 for serial
     * sessions and for dispatches whose requests fill the pool).
     */
    int run(const std::vector<const CompiledKernel *> &kernels,
            const std::vector<const runtime::Bindings *> &requests,
            const ExecOptions &options = ExecOptions()) const;

    /**
     * Plan a fused dispatch of `kernels` x `requests` (see TaskGraph).
     * When the requests alone fill the pool (requests >= workers),
     * every entry runs on shared storage and the plan has no units:
     * request-level parallelism with nothing privatized. Otherwise
     * each non-exclusive (request, kernel) pair becomes privatized
     * units, split into at most ceil(workers / pairs) grid chunks —
     * evaluated against that request's scalar bindings via the
     * spilled block extent, never an interpreter probe — so the unit
     * count stays near the worker count; once the cross product alone
     * saturates the pool nothing is split. A lone kernel under one
     * request thus gets min(workers, extent / minBlocksPerChunk)
     * chunks. The graph borrows `kernels`; both it and `requests`
     * must outlive every runTaskGraph call, which must receive the
     * same requests and compatible options.
     */
    TaskGraph buildTaskGraph(
        const std::vector<const CompiledKernel *> &kernels,
        const std::vector<const runtime::Bindings *> &requests,
        const ExecOptions &options = ExecOptions()) const;

    /**
     * Execute a fused dispatch plan as ONE work pool: every compute
     * unit is privatized up front, all units (plus one chain-kickoff
     * task per request, so a chain headed by an on-shared entry
     * starts without waiting on any compute) are striped across the
     * pool, and each request's fold chain advances opportunistically
     * as its kernels' units complete — no barrier between hyb buckets
     * or between batch requests. Results are bitwise identical to
     * serial dispatch (same per-element fold order; see TaskGraph).
     * Returns the number of units that ran on privatized scratch.
     */
    int runTaskGraph(
        const TaskGraph &graph,
        const std::vector<const runtime::Bindings *> &requests,
        const ExecOptions &options = ExecOptions()) const;

    /** Scratch accounting of this executor's privatization pool. */
    ScratchStats
    scratchStats() const
    {
        return scratch_.stats();
    }

    /** Reset the scratch high-water mark (benchmark sections). */
    void
    resetScratchPeak() const
    {
        scratch_.resetPeak();
    }

    /** Test hook: poison retained scratch (see ScratchPool). */
    void
    poisonScratch(unsigned char byte) const
    {
        scratch_.poisonFree(byte);
    }

    /**
     * Lease request-lifetime scratch from the privatization pool.
     * The graph dispatcher's per-kernel fallback chain materializes
     * its intermediate tensors here so ScratchStats accounts for them
     * (the fused path's headline: peak scratch below the chain's
     * intermediate footprint). Pair every lease with releaseScratch;
     * contents are unspecified (see ScratchPool).
     */
    ScratchPool::Lease
    leaseScratch(int64_t numel, ir::DataType dtype) const
    {
        return scratch_.acquire(numel, dtype);
    }

    /** Return a leaseScratch array to the pool. */
    void
    releaseScratch(runtime::NDArray *array) const
    {
        scratch_.release(array);
    }

  private:
    /** A privatized accumulator leased for one parallel unit. */
    struct Private
    {
        const AccumOutput *out = nullptr;
        runtime::NDArray *array = nullptr;
    };

    /** Whether `options` (or a pool of one) forces serial order. */
    bool serial(const ExecOptions &options) const;

    /**
     * Swap each accumulated output for a zeroed scratch lease:
     * write-set-sized and offset-translated (the view is appended to
     * `run`) when the kernel carries spans, whole-output-sized
     * otherwise. An empty write set takes a zero-element lease with
     * an empty, always-faulting window — no bytes, but any stray
     * write faults instead of scribbling.
     */
    runtime::Bindings privatize(const CompiledKernel &kernel,
                                const runtime::Bindings &shared,
                                std::vector<Private> *privates,
                                runtime::RunOptions *run) const;
    void foldAndRelease(const runtime::Bindings &shared,
                        std::vector<Private> *privates) const;
    /** Error-path cleanup: return every live lease to the pool. */
    void releaseAll(std::vector<std::vector<Private>> *privates) const;

    std::shared_ptr<ThreadPool> pool_;
    mutable ScratchPool scratch_;
};

} // namespace engine
} // namespace sparsetir

#endif // SPARSETIR_ENGINE_EXECUTOR_H_
