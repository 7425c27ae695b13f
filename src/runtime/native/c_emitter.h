/**
 * @file
 * Stage III TIR -> C translation.
 *
 * The emitter walks the same IR subset the bytecode compiler consumes
 * (flat loops, guards, buffer loads/stores over one flat index or a
 * row-major dense linearization, floordiv/mod index math, the
 * blockIdx.x grid-window contract) and produces one self-contained C
 * translation unit per module: the fixed preamble once, then one
 * module-internal body function per distinct kernel body and one entry
 * stub per kernel, exported through one entry table and one meta
 * string (abi.h). A body names slots and scalars by kernel-local index
 * and reads every per-kernel constant the IR does not spell out (slot
 * numbers, the proof guard's fixed scalars and extents) from the
 * static table its stub passes, so kernels that differ only in those
 * (hyb buckets of one shape, whose row count is a scalar) compile one
 * body. Floor division and modulo by a power of two are a shift and a
 * mask. The emitted code reproduces the
 * interpreter's semantics exactly — int64 arithmetic, the
 * float-promotion rules of isFloatExpr, float32 ops in C `float` and
 * float64 ones in `double` (runtime::roundsToFloat32), short-circuit
 * And/Or, one-armed Select, value-before-indices store order,
 * storage-width rounding on float stores — so a native kernel's
 * results are bitwise identical to the interpreter and the bytecode
 * VM.
 *
 * Every access is bounds-checked unless the kernel comes with a
 * KernelProof: then its accesses are plain typed loads and stores,
 * and one entry guard checks the proof's premises instead. A proven
 * kernel's feature-accumulator loops (constant bounds, a straight-line
 * body indexing a stack array with the loop variable) carry
 * `#pragma GCC unroll N`, N their count of 16-byte vector iterations,
 * so gcc vectorizes them and then peels the vector loop and keeps the
 * accumulator in registers. Unrolling reorders no element's
 * operations.
 *
 * Functions outside the subset (Stage I sparse iterations, vector IR,
 * extern calls) are rejected with a UserError message, exactly like
 * bytecode::compile; callers treat that as "stay on the bytecode
 * tier". A module leaves a rejected kernel out and keeps the rest.
 */

#ifndef SPARSETIR_RUNTIME_NATIVE_C_EMITTER_H_
#define SPARSETIR_RUNTIME_NATIVE_C_EMITTER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/prim_func.h"

namespace sparsetir {
namespace runtime {
namespace native {

/** One emitted kernel: the C source plus its binding metadata. */
struct EmitResult
{
    /**
     * From emitC: the complete one-kernel translation unit. Inside a
     * ModuleEmitResult: empty (the module's source holds the kernel).
     */
    std::string source;
    /** Kernel (function) name, for diagnostics. */
    std::string name;
    /**
     * Binding names of every buffer slot: parameter slots first
     * (bound by name from Bindings::arrays), then scratch slots the
     * kernel allocates itself.
     */
    std::vector<std::string> slotNames;
    int numParamSlots = 0;
    /**
     * Parameter slots the emitted code accesses, ascending. The host
     * binds only these; an unused parameter needs no binding.
     */
    std::vector<int> usedParamSlots;
    /**
     * Scalar params the emitted code reads, in kernel-local (first
     * use) order; the host packs ctx->scalars in exactly this order.
     * Unused scalars are dropped — lazy-binding parity with the other
     * backends.
     */
    std::vector<std::string> scalarNames;
    /** Kernel has an outermost blockIdx.x-bound loop (windowable). */
    bool hasWindow = false;
    /** Emitted without per-access checks, behind a proof guard. */
    bool proven = false;
};

/** One emitted module: every kernel of an artifact in one C file. */
struct ModuleEmitResult
{
    /**
     * Complete C translation unit: the preamble, one static entry per
     * accepted kernel, the entry table and the meta string. Empty when
     * every kernel was rejected.
     */
    std::string source;
    /**
     * The exported meta string: ABI version, key tag and the accepted
     * kernels' names in entry-table order. A persisted .so is loaded
     * only when its meta equals this.
     */
    std::string meta;
    /** Binding metadata per input function, in input order. */
    std::vector<EmitResult> kernels;
    /** Per input function: "" when accepted (its entry is the next
     *  table slot), else the UserError message that rejected it. */
    std::vector<std::string> rejected;
    /** Accepted kernels, i.e. entry-table length. */
    int numEntries = 0;
};

/**
 * What a verifier proof of a kernel (verify::verifyFunc) rested on,
 * as far as the kernel's entry can check it: the scalar parameters
 * the proof fixed, by name. The proof's int32 array facts cannot be
 * checked at entry, so every array that has one must be bound from
 * the artifact that was proven.
 *
 * A kernel emitted with a proof has no per-access checks. Its entry
 * guard returns ST_UNPROVEN, before any side effect, unless every
 * fixed scalar the kernel reads equals its proven value and every
 * parameter slot it accesses through a typed view is bound, has the
 * emitted element kind and holds at least its buffer's declared
 * extent evaluated on the fixed scalars. The values and extents live
 * in the kernel's own table, so an entry whose body another kernel
 * shares still refuses every binding off its own proof. A kernel
 * whose accessed extents do not evaluate on those scalars keeps its
 * checks.
 */
struct KernelProof
{
    std::map<std::string, int64_t> scalars;
};

/**
 * Emit `funcs` as one C translation unit: each distinct body once, and
 * per accepted kernel a stub `st_entry_<i>` that passes the body its
 * per-entry table. `key_tag` is the caller's label (the engine passes
 * one fixed tag; the compiler command is appended to it) and is baked,
 * with the ABI version and the kernel names, into the exported meta
 * string, which a persisted .so is validated against on load. The
 * source embeds the meta string, so a module is addressed by its C
 * alone: kernels that emit the same C share one module. A function
 * outside the native-compilable subset (the stage3ExecDiagnostic gate
 * plus the emitter's own kind checks) is left out and reported in
 * `rejected`.
 * `proofs`, when not empty, holds one entry per function: the proof
 * the function was verified under, or null for a checked kernel.
 */
ModuleEmitResult
emitModule(const std::vector<ir::PrimFunc> &funcs, const std::string &key_tag,
           const std::vector<const KernelProof *> &proofs = {});

/**
 * The one-kernel module of `func`, its source in `source`. Throws
 * UserError when the function is outside the native subset.
 */
EmitResult emitC(const ir::PrimFunc &func, const std::string &key_tag);

} // namespace native
} // namespace runtime
} // namespace sparsetir

#endif // SPARSETIR_RUNTIME_NATIVE_C_EMITTER_H_
