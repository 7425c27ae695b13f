/**
 * @file
 * Request fingerprinting for the execution engine's compile cache.
 *
 * A compiled kernel is a pure function of (operator kind, sparsity
 * structure, schedule parameters, feature dimensions) — never of the
 * stored values. The fingerprint hashes exactly those inputs, so two
 * matrices with identical sparsity patterns but different values map
 * to the same artifact, while any structural change (an extra
 * non-zero, a different bucketing, a different block size) forces a
 * recompile.
 */

#ifndef SPARSETIR_ENGINE_FINGERPRINT_H_
#define SPARSETIR_ENGINE_FINGERPRINT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "format/bsr.h"
#include "format/csr.h"
#include "format/relational.h"
#include "format/srbcrs.h"

namespace sparsetir {
namespace engine {

/**
 * Incremental 64-bit hasher over typed fields. bytes() consumes 8-byte
 * words, each through a multiply-xorshift mix, and ends every call
 * with one tail word that carries the leftover bytes and their count;
 * i64/i32s/str go through it, i32s and str after their length.
 */
class Fingerprint
{
  public:
    Fingerprint &bytes(const void *data, size_t size);

    Fingerprint &
    i64(int64_t v)
    {
        return bytes(&v, sizeof(v));
    }

    Fingerprint &
    i32s(const std::vector<int32_t> &v)
    {
        i64(static_cast<int64_t>(v.size()));
        return bytes(v.data(), v.size() * sizeof(int32_t));
    }

    Fingerprint &
    str(const std::string &s)
    {
        i64(static_cast<int64_t>(s.size()));
        return bytes(s.data(), s.size());
    }

    uint64_t digest() const { return hash_; }

  private:
    uint64_t hash_ = 14695981039346656037ULL;
};

/** Hash of a CSR matrix's sparsity structure (not its values). */
uint64_t structureHash(const format::Csr &m);

/** Structure hash over every relation of a heterogeneous graph. */
uint64_t structureHash(const format::RelationalCsr &m);

/** Hash of a BSR matrix's block-sparsity structure (not values). */
uint64_t structureHash(const format::Bsr &m);

/** Hash of an SR-BCRS matrix's tile structure (not values). */
uint64_t structureHash(const format::SrBcrs &m);

/** Operator families the engine serves. */
enum class OpKind : uint8_t {
    kSpmmCsr = 1,
    kSpmmHyb = 2,
    kSddmm = 3,
    kRgcnHyb = 4,
    kSpmmBsr = 5,
    kSpmmSrbcrs = 6,
    /** Whole dataflow graph served by Engine::dispatchGraph. */
    kGraph = 7,
};

const char *opKindName(OpKind op);

/**
 * Version of the cached-artifact layout, folded into every cache
 * key. Bump whenever the contents an Artifact carries change shape
 * or meaning, so persisted or long-lived caches can never serve an
 * artifact built by older code to newer dispatch logic.
 *
 *  v1 — Stage III PrimFuncs + structure arrays + provenance maps.
 *  v2 — kernels carry compiled bytecode programs and span-restricted
 *       write-set metadata (engine::CompiledKernel).
 *  v3 — keys carry distinct featIn/featOut plus block-structure
 *       facts (blockSize, tileHeight, groupSize); kernels carry the
 *       spilled block-extent expression so warm dispatch never
 *       probes the grid through the interpreter.
 *  v4 — AccumOutput write sets carry an explicit whole-array flag
 *       and a packed window over their spans; an empty span list
 *       now means "touches nothing", no longer the whole-array
 *       sentinel.
 *  v5 — graph-level artifacts (OpKind::kGraph): the structure field
 *       fingerprints a whole OpGraph's node/edge topology (op kinds,
 *       per-edge sparsity-structure hashes, feature shapes), and the
 *       artifact carries either one fused kernel or the per-kernel
 *       chain plus its intermediate-buffer plan.
 *  v6 — kernels carry a NativeBox for the tiered native (.so)
 *       backend (through v12 the version was also part of every
 *       persisted module's tag; since v13 a module is addressed by
 *       its C source, and kNativeAbiVersion guards its entry ABI).
 *  v7 — AccumOutput carries proven per-block element hulls instead
 *       of span windows, and kernels lose the split-row marking; the
 *       task graph orders units by hull overlap (native ABI v3).
 *  v8 — hyb SpMM kernels use the host schedule (feature loop inside
 *       the non-zero loop, feature-wide accumulator, hoisted
 *       invariant loads), and the hyb schedule key drops threadX.
 *  v9 — every kernel runs transform::hoistInvariants (loop-invariant
 *       loads and integer arithmetic) before any backend sees it,
 *       and the CSR SpMM key drops the inert rowsPerBlock.
 *  v10 — float32 ops round to float32 on every tier; the host hyb
 *       schedule peels the accumulator init (decomposeReduction) and
 *       hoisting drops floordiv(x, c) * c + floormod(x, c); proven
 *       kernels carry their proof's scalar facts, and native emits
 *       them without per-access checks (native ABI v5).
 *  v11 — dfg spmm, aggregate and update row bodies reduce into a
 *       feature-wide local accumulator with the feature loop
 *       innermost, and masked softmax computes one exp per entry.
 *  v12 — hyb SpMM bucket kernels take their row count as a scalar
 *       (core::ScheduleTarget::kHostRowScalar) with an unclamped
 *       power-of-two rowsPerBlock, and a native module emits each
 *       distinct kernel body once behind per-entry tables.
 *  v13 — a key is (op, one digest of every compile input, rows, nnz),
 *       and a persisted native module is addressed by its C source.
 */
constexpr uint32_t kArtifactVersion = 13;

/**
 * Key of one compile-cache entry. Everything a compile reads beyond
 * the op is folded into `digest` (see engine.cc's cacheKey); `rows`
 * and `nnz` ride alongside raw, so a 64-bit digest collision across
 * different shapes can never match and a stale artifact's provenance
 * map is never applied to a smaller values array.
 */
struct CacheKey
{
    /** Artifact layout version (kArtifactVersion of the builder). */
    uint32_t version = kArtifactVersion;
    OpKind op = OpKind::kSpmmCsr;
    /** Fingerprint of the structure hash, the schedule / config
     *  fields and the feature dims. */
    uint64_t digest = 0;
    int64_t rows = 0;
    int64_t nnz = 0;

    bool
    operator==(const CacheKey &other) const
    {
        return version == other.version && op == other.op &&
               digest == other.digest && rows == other.rows &&
               nnz == other.nnz;
    }
};

struct CacheKeyHash
{
    size_t
    operator()(const CacheKey &key) const
    {
        return static_cast<size_t>(
            Fingerprint()
                .i64(static_cast<int64_t>(key.version))
                .i64(static_cast<int64_t>(key.op))
                .i64(static_cast<int64_t>(key.digest))
                .i64(key.rows)
                .i64(key.nnz)
                .digest());
    }
};

} // namespace engine
} // namespace sparsetir

#endif // SPARSETIR_ENGINE_FINGERPRINT_H_
