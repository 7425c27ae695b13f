/**
 * @file
 * Engine: the serving entry point of the SparseTIR runtime.
 *
 * A session owns a CompileCache, a ThreadPool and a ParallelExecutor
 * and exposes one-call operator dispatch (spmmCsr / spmmHyb / sddmm /
 * rgcn / dispatchGraph / spmmBsr / spmmSrbcrs, and the spmm*Batch
 * forms). Each dispatch keys the request by one shape, (artifact
 * version, operator, one digest of every compile input — sparsity
 * structure, schedule parameters, feature dims — rows, nnz), reuses
 * the compiled kernel artifact on a hit — skipping Stage I ->
 * III lowering, bytecode compilation and re-bucketing entirely —
 * binds the request's values (via the formats' provenance maps) and
 * executes with deterministic parallelism (see executor.h). Every op
 * caches the one artifact shape, engine::Artifact: its
 * engine::CompiledKernel units (Stage III IR plus the
 * register-bytecode program the VM executes on warm dispatches, plus
 * the spilled block-extent expression that sizes the launch grid
 * without an interpreter probe) and a table of the scalars and int32
 * structure arrays its kernels read. Each table entry is declared
 * once, in the builder, and that one declaration is both a verifier
 * fact and a binding. Every dispatch binds the same way: the values
 * gathered once from the request's sparse operand, then per request
 * a copy of the table pointing at them and the request's own arrays.
 *
 * Every artifact is proven by the static verifier (verify/verifier.h)
 * before it enters the cache, whatever the build, backend or
 * parallelism: affine bounds on every buffer access, write-set
 * soundness against each scatter kernel's block hulls, and race
 * freedom of the blockIdx axis, all against the request's concrete
 * structure arrays, which are the arrays every dispatch binds. The
 * verdict is cached with the artifact, so warm dispatches never pay
 * for it; a failed proof makes every dispatch that touches the
 * artifact throw UserError carrying the verifier's diagnostics.
 *
 * Every public entry point is a thin adapter over ONE internal
 * dispatch path — resolve (with native promotion) -> bind -> execute
 * -> account — in which a single request is a batch of one, and the
 * four SpMM batch forms share one body; every dispatch looks its
 * artifact up by key. Batched dispatch (`spmm*Batch`) is the
 * multi-tenant serving shape: N in-flight requests against one
 * sparsity structure resolve ONE cached artifact, get private
 * per-request bindings, and run as one conflict-ordered task graph
 * over (request x kernel x grid-chunk) units — each request's output
 * bitwise identical to its own serial dispatch.
 *
 * Thread-safety contract: an Engine may be shared by any number of
 * request threads. Artifacts are immutable after construction; every
 * dispatch builds private bindings; cache and stats are
 * internally locked. The executor runs units that update the same
 * output elements in serial order (see executor.h), so concurrent
 * dispatches never race even when they read the same cached
 * structure arrays.
 */

#ifndef SPARSETIR_ENGINE_ENGINE_H_
#define SPARSETIR_ENGINE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "dfg/op_graph.h"
#include "engine/compile_cache.h"
#include "engine/executor.h"
#include "engine/fingerprint.h"
#include "engine/thread_pool.h"
#include "format/bsr.h"
#include "format/csr.h"
#include "format/relational.h"
#include "format/srbcrs.h"
#include "observe/metrics.h"

namespace sparsetir {
namespace engine {

/** Session construction parameters. */
struct EngineOptions
{
    /** Worker threads; 0 picks the hardware concurrency. */
    int numThreads = 0;
    /** Compile-cache entries kept (LRU beyond this). */
    size_t cacheCapacity = 64;
    /** Master switch for parallel execution. */
    bool parallel = true;
    /** Grid-splitting granularity floor (see ExecOptions). */
    int64_t minBlocksPerChunk = 8;
    /**
     * Host backend for kernel execution. Bytecode is the serving
     * path (artifacts cache compiled programs; warm dispatches run
     * the VM); the interpreter is the bitwise-identical reference
     * oracle used by differential tests and benchmarks.
     */
    runtime::Backend backend = runtime::Backend::kBytecode;
    /**
     * Native-tier promotion threshold (meaningful when `backend` is
     * kNative, which SPARSETIR_NATIVE=1 selects by default): an
     * artifact is promoted — its kernels emitted as C, compiled
     * out-of-process and atomically swapped in — after its
     * warm-dispatch count exceeds this many resolves. Until then (and
     * whenever emission or the C compiler bails) kNative dispatches
     * serve on bytecode, so the request path never waits on `cc`.
     * 0 promotes synchronously inside the first resolve — the
     * deterministic-test configuration; negative disables promotion
     * entirely.
     */
    int nativePromoteAfter = 3;
    /**
     * Ignored: the task graph is the only parallel schedule
     * (see executor.h). Kept only for source compatibility with
     * callers that still set it.
     */
    bool fusedDispatch = true;
    /**
     * Enable span tracing (observe::TraceRecorder::global()) for the
     * process when this engine is constructed. The SPARSETIR_TRACE
     * environment variable ("1"/"true") enables it as well;
     * constructing an engine with trace=false never turns an
     * already-enabled recorder off. Disabled (the default), every
     * instrumentation point costs one relaxed atomic load.
     */
    bool trace = false;
    /**
     * Ignored: every artifact is verified (see Engine). Kept only for
     * source compatibility with callers that still set it.
     */
    bool verifyArtifacts = true;
};

/** Outcome of one dispatch (N requests, one artifact; N = 1 for the
 *  single-request entry points). */
struct DispatchInfo
{
    /** Whether the single artifact resolve was served from cache. */
    bool cacheHit = false;
    /** Artifact resolve time: the cache key's structure hash, the
     *  lookup and at most ONE compile per dispatch. */
    double compileMs = 0.0;
    /** Gathering values and building the per-request bindings. */
    double bindMs = 0.0;
    /**
     * Time spent executing kernels on the session's backend (the
     * bytecode VM by default; native once promoted; the interpreter
     * when EngineOptions::backend selects the reference oracle).
     */
    double kernelMs = 0.0;
    /** bindMs + kernelMs. */
    double execMs = 0.0;
    /** Requests served (0 only for an empty batch). */
    int numRequests = 0;
    /** Kernels executed per request. */
    int numKernels = 0;

    /** The serving-path overhead the compile cache eliminates. */
    double dispatchOverheadMs() const { return compileMs + bindMs; }
};

/** Batched dispatches report the same fields (kept for source
 *  compatibility). */
using BatchDispatchInfo = DispatchInfo;

/**
 * Session-cumulative counters — a view assembled by Engine::stats()
 * from the engine's metrics registry (`engine.requests`,
 * `engine.cache_hits`, `engine.cache_misses`, and the sums of the
 * `engine.compile_ms` / `engine.exec_ms` histograms).
 */
struct EngineStats
{
    uint64_t requests = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    double totalCompileMs = 0.0;
    double totalExecMs = 0.0;
};

/**
 * Native-tier counters — a view over `native.promotions` /
 * `native.compiles` / `native.disk_hits` / `native.fallbacks` in the
 * session registry (Engine::nativeStats()).
 */
struct NativeStats
{
    /** Artifacts the promotion policy processed. */
    uint64_t promotions = 0;
    /** Kernels built by a C compiler run (one run per artifact's
     *  module, however many kernels it holds). */
    uint64_t compiles = 0;
    /** Kernels served from a persisted .so (zero compiler runs). */
    uint64_t diskHits = 0;
    /** Kernels that stayed on bytecode (emitter rejected the kernel,
     *  or its module's compile or load failed). */
    uint64_t fallbacks = 0;
    /** Native executions whose proof guard refused the bindings and
     *  ran on bytecode (or the interpreter) instead. */
    uint64_t guardMisses = 0;
};

/**
 * Scratch accounting of a session: the interior tensors chain-mode
 * graph dispatches allocate for their lifetime (no other dispatch
 * allocates scratch). Engine::scratchStats() returns a snapshot.
 */
struct ScratchStats
{
    /** Bytes held by dispatches in flight. */
    int64_t leasedBytes = 0;
    /** High-water mark of leasedBytes since the last resetScratchPeak(). */
    int64_t peakLeasedBytes = 0;
    /** Interior tensors allocated so far. */
    uint64_t leases = 0;
};

/** Format/schedule selection for hyb SpMM dispatch. */
struct HybConfig
{
    /** Column partitions (paper's c). */
    int partitions = 1;
    /** Bucket cap log2 (paper's k); -1 = per-structure heuristic. */
    int bucketCapLog2 = -1;
};

/** Format/schedule selection for RGCN dispatch. */
struct RgcnConfig
{
    int bucketCapLog2 = 5;
    bool tensorCores = false;
};

/** Mode selection for whole-graph dispatch. */
struct GraphDispatchOptions
{
    /**
     * Fuse the graph into one kernel when dfg::fusible allows; clear
     * to force the per-node chain (the differential oracle). Both
     * modes are cached under distinct keys and produce bitwise
     * identical outputs.
     */
    bool fuse = true;
};

/** Schedule selection for BSR SpMM dispatch. */
struct BsrConfig
{
    /**
     * Annotate the MMA for the Tensor-Core pipe (simulator/codegen
     * path); host execution is identical either way.
     */
    bool tensorCores = false;
};

/**
 * One in-flight request of a batched SpMM dispatch: its own feature
 * matrix and output. All requests of a batch share the sparse
 * operand (structure AND values) — the one-artifact-many-features
 * serving shape. Outputs must be distinct arrays.
 */
struct SpmmRequest
{
    /** Dense feature matrix (cols x feat, row-major). */
    runtime::NDArray *b = nullptr;
    /** Output (rows x feat, row-major; padded rows for block formats). */
    runtime::NDArray *c = nullptr;
};

class Engine
{
  public:
    explicit Engine(EngineOptions options = EngineOptions());

    /** Joins any in-flight background native promotions: their tasks
     *  capture `this` and record into the session registry, so they
     *  must finish before members start destructing. */
    ~Engine();

    /** C = A @ B over the single-format CSR kernel. */
    DispatchInfo spmmCsr(const format::Csr &a, int64_t feat,
                         runtime::NDArray *b, runtime::NDArray *c,
                         const core::SpmmSchedule &schedule =
                             core::SpmmSchedule());

    /**
     * C = A @ B through the composable hyb(c, k) decomposition. The
     * bucket kernels accumulate partial sums, so C is zeroed by the
     * dispatch before execution (overwrite semantics, like spmmCsr).
     */
    DispatchInfo spmmHyb(const format::Csr &a, int64_t feat,
                         runtime::NDArray *b, runtime::NDArray *c,
                         const HybConfig &config = HybConfig());

    /** out = A ⊙ (X @ Y) with the fused two-stage reduction. */
    DispatchInfo sddmm(const format::Csr &a, int64_t feat,
                       runtime::NDArray *x, runtime::NDArray *y,
                       runtime::NDArray *out,
                       const core::SddmmSchedule &schedule =
                           core::SddmmSchedule());

    /**
     * Fused RGCN layer: Y += scatter(A_r @ X @ W) over every
     * relation's hyb buckets, one kernel per (relation, bucket), all
     * dispatched concurrently. W is the feat x feat weight shared
     * across relations (as in model/rgcn). Accumulation semantics:
     * zero-initialize Y for a pure layer output.
     */
    DispatchInfo rgcn(const format::RelationalCsr &graph, int64_t feat,
                      runtime::NDArray *x, runtime::NDArray *w,
                      runtime::NDArray *y,
                      const RgcnConfig &config = RgcnConfig());

    /**
     * Rectangular RGCN layer: X is cols x featIn, W featIn x featOut,
     * Y rows x featOut. featIn and featOut are keyed separately in
     * the compile cache — (16, 32) and (32, 16) are distinct
     * artifacts (the aliasing a single shared feat field permitted).
     */
    DispatchInfo rgcn(const format::RelationalCsr &graph,
                      int64_t featIn, int64_t featOut,
                      runtime::NDArray *x, runtime::NDArray *w,
                      runtime::NDArray *y,
                      const RgcnConfig &config = RgcnConfig());

    /**
     * Execute a whole dfg::OpGraph as ONE dispatch. The graph-level
     * artifact (keyed by the graph's node/edge topology fingerprint,
     * OpKind::kGraph) caches either a single fused kernel — interior
     * tensors demoted to per-row locals, never materialized — or the
     * per-node chain with a scratch-leasing plan for the
     * intermediates. `io` maps every named value (graph inputs and
     * marked outputs) to its array; element counts are validated
     * against the graph's shapes. DispatchInfo::numKernels tells the
     * two modes apart (1 fused, N chain).
     */
    DispatchInfo dispatchGraph(const dfg::OpGraph &graph,
                               const std::map<std::string,
                                              runtime::NDArray *> &io,
                               const GraphDispatchOptions &options =
                                   GraphDispatchOptions());

    /**
     * C = A @ B over the tiled BSR kernel (structured-pruned
     * weights). B is (blockCols*blockSize) x feat and C is
     * (blockRows*blockSize) x feat: the block grid's padded shape.
     * Overwrite semantics (the kernel's init zeroes C).
     */
    DispatchInfo spmmBsr(const format::Bsr &a, int64_t feat,
                         runtime::NDArray *b, runtime::NDArray *c,
                         const BsrConfig &config = BsrConfig());

    /**
     * C = A @ B over the SR-BCRS(t, g) stripe kernel
     * (unstructured-pruned weights). C is (stripes*t) x feat.
     * Overwrite semantics.
     */
    DispatchInfo spmmSrbcrs(const format::SrBcrs &a, int64_t feat,
                            runtime::NDArray *b, runtime::NDArray *c);

    // -----------------------------------------------------------------
    // Batched dispatch: one artifact, many feature matrices in flight.
    // Each batch performs at most ONE compile (cache resolve), builds
    // a private binding view per request, and runs the cross product
    // of (requests x kernels x grid chunks) as one task graph.
    // Every request's output is bitwise identical to dispatching it
    // alone through the corresponding single-request entry point
    // (which is this path with a batch of one). An empty batch
    // resolves nothing and reports numRequests == 0.
    // -----------------------------------------------------------------

    DispatchInfo
    spmmCsrBatch(const format::Csr &a, int64_t feat,
                 const std::vector<SpmmRequest> &requests,
                 const core::SpmmSchedule &schedule =
                     core::SpmmSchedule());

    DispatchInfo
    spmmHybBatch(const format::Csr &a, int64_t feat,
                 const std::vector<SpmmRequest> &requests,
                 const HybConfig &config = HybConfig());

    DispatchInfo
    spmmBsrBatch(const format::Bsr &a, int64_t feat,
                 const std::vector<SpmmRequest> &requests,
                 const BsrConfig &config = BsrConfig());

    DispatchInfo
    spmmSrbcrsBatch(const format::SrBcrs &a, int64_t feat,
                    const std::vector<SpmmRequest> &requests);

    EngineStats stats() const;
    CacheStats cacheStats() const { return cache_.stats(); }
    /** Native-tier promotion/compile counters (see NativeStats). */
    NativeStats nativeStats() const;
    /**
     * Everything this session's registry holds — request/hit/miss
     * counters, per-op-kind warm and cold dispatch latency
     * histograms (`engine.warm_dispatch_ms.<op>` /
     * `engine.cold_dispatch_ms.<op>`, per-request latency for
     * batches), cache counters — plus the scratch accounting
     * (ScratchStats) published at snapshot time. p50/p95/p99 come
     * interpolated from the histograms' log-spaced buckets (see
     * observe/metrics.h).
     */
    observe::MetricsSnapshot metricsSnapshot() const;
    /** Scratch accounting of the session (see ScratchStats). */
    ScratchStats scratchStats() const;
    /** Restart the scratch high-water mark (benchmark sections). */
    void resetScratchPeak();
    int numThreads() const { return pool_->size(); }

  private:
    using Builder = std::function<std::shared_ptr<Artifact>()>;
    /** The request's cache key, computed inside resolve so its
     *  structure hash counts toward DispatchInfo::compileMs. */
    using KeyFn = std::function<CacheKey()>;

    /**
     * Bind step of a dispatch, run against the resolved artifact: one
     * binding view per request. The views may point into storage the
     * calling entry point owns (it outlives the dispatch).
     */
    using Binder =
        std::function<std::vector<runtime::Bindings>(const Artifact &)>;

    /**
     * The one dispatch path: resolve the key `key` computes (compiling
     * via `builder` on a miss, promotion hook included), then a timed
     * bind, the executor run and finish().
     */
    DispatchInfo dispatch(OpKind op, const KeyFn &key,
                          const Builder &builder, const Binder &bind);

    /**
     * The one SpMM batch body: dispatch() with one binding view per
     * request over the sparse operand's `values`. With `zero_outputs`
     * (hyb: the bucket kernels accumulate) every output is cleared
     * once the whole batch validated. An empty batch resolves
     * nothing.
     */
    DispatchInfo spmmBatch(OpKind op, const KeyFn &key,
                           const Builder &builder,
                           const std::vector<float> &values,
                           const std::vector<SpmmRequest> &requests,
                           bool zero_outputs);

    std::shared_ptr<Artifact> resolve(OpKind op, const KeyFn &key,
                                      const Builder &builder,
                                      DispatchInfo *info);

    /**
     * Account a dispatch: numRequests logical requests, at most one
     * of which paid the (single) compile; the rest count as hits on
     * the artifact it produced. The per-op latency histogram records
     * the per-request exec latency (execMs / numRequests), once per
     * request.
     */
    void finish(const DispatchInfo &info, OpKind op);

    /** Warm/cold dispatch-latency histogram of one op kind. */
    observe::LatencyHistogram *opLatency(OpKind op, bool warm);

    ExecOptions execOptions() const;

    /**
     * Count `bytes` of scratch as held (negative: released) and
     * `leases` new tensors in the session's ScratchStats.
     */
    void accountScratch(int64_t bytes, uint64_t leases);

    /**
     * Promotion policy hook, called on every resolve of a kNative
     * session: counts uses of `artifact` (an `op` artifact) and,
     * when the count crosses EngineOptions::nativePromoteAfter,
     * promotes the artifact — inline for threshold 0, as a background
     * pool task otherwise (the artifact is kept alive by the captured
     * shared_ptr; dispatches keep serving bytecode meanwhile).
     */
    void maybePromote(OpKind op, const std::shared_ptr<Artifact> &artifact);

    /**
     * Compile every kernel of `artifact` (an `op` artifact) that
     * still lacks native code as one module (one compiler run, or a
     * disk hit when a module with the same C source is persisted,
     * whatever structure it was built for) and swap each result into
     * its kernel's NativeBox. A kernel the emitter rejects, and every
     * kernel of a module whose compile or load fails, counts as a
     * fallback and stays on bytecode permanently — transparent
     * degradation, never an error on the request path. Throws
     * nothing; `native.promotions` always goes up by one.
     */
    void promoteNow(OpKind op, const Artifact &artifact);

    EngineOptions options_;
    std::shared_ptr<ThreadPool> pool_;
    ParallelExecutor executor_;
    /** Session registry; declared before cache_, which registers its
     *  instruments in it. */
    std::unique_ptr<observe::MetricsRegistry> metrics_;
    CompileCache cache_;

    // Hot-path instruments, resolved once at construction (registry
    // pointers are stable) so dispatch accounting is lock-free.
    observe::Counter *requests_;
    observe::Counter *cacheHits_;
    observe::Counter *cacheMisses_;
    observe::LatencyHistogram *compileMs_;
    observe::LatencyHistogram *execMs_;
    /** Indexed by OpKind; [0] = warm, [1] = cold. */
    observe::LatencyHistogram *opLatency_[2][8] = {};

    // Native-tier promotion instruments. Per-artifact promotion state
    // lives on the Artifact itself.
    std::mutex promoMu_;
    /** Futures of in-flight background promotion tasks, joined by
     *  ~Engine; finished ones are dropped at each new launch. */
    std::vector<std::future<void>> promoFutures_;
    observe::Counter *nativePromotions_;
    observe::Counter *nativeCompiles_;
    observe::Counter *nativeDiskHits_;
    observe::Counter *nativeFallbacks_;
    observe::Counter *nativeGuardMisses_;
    observe::LatencyHistogram *nativeCompileMs_;

    mutable std::mutex scratchMu_;
    /** Guarded by scratchMu_. */
    ScratchStats scratch_;
};

} // namespace engine
} // namespace sparsetir

#endif // SPARSETIR_ENGINE_ENGINE_H_
