/**
 * @file
 * Static artifact verifier for Stage III TIR.
 *
 * Proves three properties of a lowered kernel before it is admitted to
 * the CompileCache:
 *
 *  1. Bounds: every buffer load/store index (including the implicit
 *     accesses of binary-search and atomic builtins) stays inside the
 *     buffer's extent, under the loop ranges and guard conditions that
 *     dominate the access. Run on pre-fix IR this flags the historic
 *     `Schedule::cacheWrite` missing-split-tail-guard out-of-bounds
 *     store that the fuzz suite originally caught dynamically.
 *
 *  2. Write-set soundness: when a reduction output declares block
 *     hulls, every store and atomic update grid block b makes to it
 *     lands inside hull b. The task graph orders units by these hulls
 *     (engine/executor.h), so the engine attaches them to a kernel
 *     only after this proof.
 *
 *  3. Parallel-race freedom: distinct iterations of the parallel
 *     (blockIdx.x) axis write disjoint locations, or the store is a
 *     recognized reduction, which the task graph orders.
 *
 * The prover is conservative: a clean verdict is a proof under the
 * declared facts, a failure is "not provable" plus a printer-backed
 * diagnostic pinpointing the offending statement.
 */

#ifndef SPARSETIR_VERIFY_VERIFIER_H_
#define SPARSETIR_VERIFY_VERIFIER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ir/prim_func.h"
#include "verify/affine.h"

namespace sparsetir {
namespace verify {

/** Failure class of a diagnostic. */
enum class DiagCategory : uint8_t {
    kOutOfBounds,
    kWriteSetViolation,
    kParallelRace,
};

/** Render "out-of-bounds" / "write-set" / "parallel-race". */
const char *diagCategoryName(DiagCategory category);

/** One verification failure, anchored to a statement. */
struct Diagnostic
{
    DiagCategory category;
    /** Buffer the failing access targets. */
    std::string buffer;
    /** What could not be proven, with the obligation spelled out. */
    std::string message;
    /** Printer rendering of the offending statement or expression. */
    std::string stmt;
};

struct VerifyResult
{
    bool ok = true;
    std::vector<Diagnostic> diagnostics;
    /** Prover search steps over every obligation of the kernel. */
    int64_t proofSteps = 0;
};

/** Render all diagnostics of a failed result into one report. */
std::string formatDiagnostics(const VerifyResult &result);

/**
 * Declared write set of one reduction output, mirroring the engine's
 * `AccumOutput`. `buffer` is the name the engine uses — the data-var
 * name of the output buffer (e.g. "C_data").
 *
 * With `blockHulls` set, the verifier proves the per-block hull
 * obligation: every store to the buffer made by grid block b lands in
 * blockHulls[b]. A store qualifies when it stays inside the row slot
 * [rows[e] * rowWidth, (rows[e] + 1) * rowWidth) of a `rowsBuffer`
 * load whose index e provably lies in block b's rows
 * [b * rowsPerBlock, (b + 1) * rowsPerBlock); every concrete row's
 * slot is then checked against its block's hull.
 */
struct AccumWriteSet
{
    std::string buffer;
    /** Ignored; kept for source compatibility. */
    bool wholeArray = true;
    /** Ignored; kept for source compatibility. */
    std::vector<std::pair<int64_t, int64_t>> spans;
    /** Name of the row-index array driving the output row. */
    std::string rowsBuffer;
    /** Concrete row ids (borrowed; may be null for symbolic runs). */
    const std::vector<int32_t> *rows = nullptr;
    /** Flat elements per output row. */
    int64_t rowWidth = 0;
    /** Entries of `rows` each grid block covers. */
    int64_t rowsPerBlock = 0;
    /** Element hull [begin, end) of each grid block; empty: none. */
    std::vector<std::pair<int64_t, int64_t>> blockHulls;
};

/**
 * Facts the caller knows about the kernel's inputs. The engine fills
 * concrete values from the cached sparse structure; the pipeline's
 * compile-time self-check fills symbolic format invariants instead.
 */
struct VerifyContext
{
    /** Value facts keyed by buffer name, data-var name or param name. */
    std::map<std::string, ValueFact> facts;
    /** Declared reduction outputs; meaningful when hasAccumSpec. */
    std::vector<AccumWriteSet> accums;
    /** Set when `accums` reflect a compiled kernel. */
    bool hasAccumSpec = false;
    /**
     * Ignored; kept for source compatibility. Split-row kernels need
     * no marking: the task graph orders their overlapping hulls.
     */
    bool kernelExclusive = false;

    /** Declare a scalar parameter's exact value. */
    void scalar(const std::string &name, int64_t value);
    /** Declare an int32 array's min/max/front/back. */
    void int32Array(const std::string &name,
                    const std::vector<int32_t> &values);
};

/**
 * Verify one Stage III function. With a default-constructed context
 * the bounds and race checks still run against format axioms alone;
 * write-set checks need a declared accum spec.
 */
VerifyResult verifyFunc(const ir::PrimFunc &func,
                        const VerifyContext &ctx = VerifyContext());

} // namespace verify
} // namespace sparsetir

#endif // SPARSETIR_VERIFY_VERIFIER_H_
