/**
 * @file
 * Memoization of compiled kernel artifacts.
 *
 * The cache maps a request fingerprint (see fingerprint.h) to the
 * artifact produced by the full Stage I -> III pipeline, so repeated
 * requests against the same sparsity structure skip decomposition,
 * lowering and scheduling entirely and go straight to value binding
 * and execution.
 *
 * Thread safety: all public methods may be called concurrently. A
 * builder for a missing key runs outside the lock (compiles can take
 * milliseconds and must not serialize unrelated lookups); if two
 * threads race to build the same key, both compile and the first
 * insertion wins — wasted work, never wrong results. Artifacts are
 * immutable after construction and shared by reference.
 */

#ifndef SPARSETIR_ENGINE_COMPILE_CACHE_H_
#define SPARSETIR_ENGINE_COMPILE_CACHE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/executor.h"
#include "engine/fingerprint.h"
#include "observe/metrics.h"
#include "verify/verifier.h"

namespace sparsetir {
namespace engine {

/**
 * Verdict of the static artifact verifier (verify/verifier.h) over
 * every kernel of one artifact. Filled by the miss-path builder, then
 * cached WITH the artifact — warm dispatches reuse the verdict without
 * re-proving anything, so verification cost is paid exactly once per
 * compiled artifact.
 */
struct VerifyReport
{
    /** Every kernel proved bounds / write-set / race obligations. */
    bool ok = true;
    /** Kernels checked (hyb/RGCN artifacts hold several). */
    int kernels = 0;
    /** Wall time spent proving, across the artifact's kernels. */
    double verifyMs = 0.0;
    /** Printer-backed failure diagnostics (empty when ok). */
    std::vector<verify::Diagnostic> diagnostics;
};

/**
 * A cached compile result, the one artifact shape of every op: the
 * compiled kernels plus the table of structure every dispatch binds
 * (the paper's composable format as plain data: named int32
 * structure arrays and scalar extents). A builder declares each table
 * entry in one call, which binds it on every dispatch and declares it
 * to the verifier, so the facts a kernel is proven under and the
 * arrays its dispatch binds cannot disagree. Immutable once its
 * builder returns, except each kernel's NativeBox and `promotion`.
 */
class Artifact
{
  public:
    /** One array each dispatch fills from the request's values. */
    struct ValueGather
    {
        std::string param;
        /** Which of the dispatch's value arrays to read (RGCN: the
         *  relation; 0 otherwise). */
        int source = 0;
        /** Slot -> position in the source values (-1: padding);
         *  empty: the whole source, in order. */
        std::vector<int32_t> sourcePos;
    };

    /** A chain-mode graph intermediate each dispatch allocates. */
    struct Temp
    {
        std::string name;
        int64_t numel = 0;
    };

    /** Bind scalar `name` to `value` and declare it to the verifier. */
    void scalar(const std::string &name, int64_t value);
    /** Bind an owned copy of `values` as `name` and declare its
     *  min/max/front/back to the verifier. */
    void int32Array(const std::string &name,
                    const std::vector<int32_t> &values);
    /** Have every dispatch bind `param` to values gathered from its
     *  `source` array through `source_pos` (see ValueGather). */
    void gather(const std::string &param, int source,
                std::vector<int32_t> source_pos);

    /**
     * The compiled kernels in execution order: the one list both
     * dispatch and native-tier promotion use. Each kernel's NativeBox
     * is swapped from empty to a dlopen'd kernel when a native build
     * completes. Graph chains run in dataflow order.
     */
    std::vector<CompiledKernel> kernels;
    /**
     * The structure table as the base of every dispatch's bindings:
     * each declared scalar and int32 array, plus a null slot per
     * value gather that the dispatch points at its gathered copy.
     */
    runtime::Bindings bindings;
    std::vector<ValueGather> gathers;
    /** The verifier's view of the same table: every kernel is proven
     *  under a copy of it. */
    verify::VerifyContext facts;

    /** Graph chain: the intermediates a dispatch materializes. */
    std::vector<Temp> temps;

    /** Cached static-verification verdict (see VerifyReport). */
    VerifyReport verify;

    /**
     * Native-tier promotion state (see Engine::maybePromote). It lives
     * and dies with the artifact: when LRU eviction drops an artifact,
     * its rebuild starts from zero warm hits and is promoted again.
     */
    struct NativePromotion
    {
        std::mutex mu;
        int warmHits = 0;
        bool launched = false;
    };
    NativePromotion promotion;

  private:
    /** Storage of the table's arrays (stable addresses). */
    std::deque<runtime::NDArray> arrays_;
};

/**
 * Monotonic cache counters — a view assembled by
 * CompileCache::stats() from the metrics registry instruments
 * `cache.hits` / `cache.misses` / `cache.evictions` /
 * `cache.build_ms` (the struct itself no longer stores anything).
 */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /** Total wall time spent in miss-path builders. */
    double compileMs = 0.0;
    /** Kernels the static verifier checked at artifact build. */
    uint64_t verifiedKernels = 0;
    /** Artifacts whose verification found a violation. */
    uint64_t verifyFailures = 0;
    /** Total wall time spent proving (subset of compileMs). */
    double verifyMs = 0.0;
};

/** Thread-safe LRU cache of compiled artifacts. */
class CompileCache
{
  public:
    /**
     * `metrics` is the registry the cache's counters and build-time
     * histogram live in (borrowed; must outlive the cache — the
     * Engine passes its own registry so concurrent engines never
     * alias). Null: the cache registers in a private registry it
     * owns.
     */
    explicit CompileCache(size_t capacity = 64,
                          observe::MetricsRegistry *metrics = nullptr);

    /**
     * Return the artifact for `key`, invoking `builder` on a miss.
     * The builder's wall time is accounted in stats().compileMs.
     * When `was_hit` is non-null it is set to whether this call was
     * served from cache (a lost build race still reports a miss: the
     * caller paid for a compile).
     */
    std::shared_ptr<Artifact>
    getOrBuild(const CacheKey &key,
               const std::function<std::shared_ptr<Artifact>()> &builder,
               bool *was_hit = nullptr);

    CacheStats stats() const;

  private:
    struct Entry
    {
        std::shared_ptr<Artifact> value;
        std::list<CacheKey>::iterator lruPos;
    };

    /** Callers must hold mu_. Moves `key` to the LRU front. */
    void touch(const CacheKey &key, Entry &entry);

    std::mutex mu_;
    size_t capacity_;
    /** Front = most recently used. */
    std::list<CacheKey> lru_;
    std::unordered_map<CacheKey, Entry, CacheKeyHash> entries_;
    /** Backing registry when none was injected. */
    std::unique_ptr<observe::MetricsRegistry> ownedMetrics_;
    observe::Counter *hits_;
    observe::Counter *misses_;
    observe::Counter *evictions_;
    observe::LatencyHistogram *buildMs_;
    observe::Counter *verifiedKernels_;
    observe::Counter *verifyFailures_;
    observe::LatencyHistogram *verifyMs_;
};

} // namespace engine
} // namespace sparsetir

#endif // SPARSETIR_ENGINE_COMPILE_CACHE_H_
