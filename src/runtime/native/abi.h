/**
 * @file
 * C ABI shared between the host and emitted native kernels.
 *
 * Native kernels are compiled one module per artifact: a
 * self-contained C translation unit holding every kernel, compiled
 * out-of-process (`cc -O2 -fPIC -shared -ffp-contract=off`) and
 * dlopen'd back into the serving process. The host and the kernels
 * communicate through the two structs below: the emitted source
 * contains a textually identical definition of each (see
 * c_emitter.cc's preamble), so both sides are laid out by the same
 * platform C ABI and stay compatible as long as the field order here
 * and in the preamble match.
 *
 * Error handling crosses the boundary as integer return codes, never
 * exceptions: emitted code records (fault code, slot, offset) in the
 * context and returns; the host (native_compiler.cc) reconstructs the
 * same ICHECK/USER_CHECK diagnostics the bytecode VM would have
 * raised, so the native tier is drop-in bitwise- and fault-compatible
 * with the other backends.
 */

#ifndef SPARSETIR_RUNTIME_NATIVE_ABI_H_
#define SPARSETIR_RUNTIME_NATIVE_ABI_H_

#include <cstdint>

namespace sparsetir {
namespace runtime {
namespace native {

/**
 * Version of the kernel ABI (struct layout, helper contract, entry
 * and meta symbol names). Folded into every artifact's meta string
 * and cache filename, so a persisted .so built against an older ABI
 * can never be loaded by newer host code.
 */
constexpr int kNativeAbiVersion = 5;

/**
 * Entry table every emitted module exports: one KernelEntryFn per
 * kernel, in the order the meta string lists their names.
 */
constexpr const char *kEntryTableSymbol = "sparsetir_module_entries";
/** Metadata symbol (a NUL-terminated identification string). */
constexpr const char *kMetaSymbol = "sparsetir_module_meta";

// ---------------------------------------------------------------------
// Fault codes returned by the kernel entry point. 0 is success.
// ---------------------------------------------------------------------

enum : int32_t {
    ST_OK = 0,
    /** Unbound / negative / out-of-range element access. */
    ST_FAULT_ACCESS = 1,
    /** floordiv / floormod by zero. */
    ST_FAULT_DIV0 = 3,
    /** Register-class mismatch (int access to float storage etc.). */
    ST_FAULT_CLASS = 4,
    /** Binary search over an invalid range. */
    ST_FAULT_SEARCH = 5,
    /** Negative scratch allocation extent. */
    ST_FAULT_NEGALLOC = 6,
    /** Scratch allocation failed (calloc returned NULL). */
    ST_FAULT_OOM = 7,
    /**
     * A proven kernel's entry guard failed: a bound scalar differs
     * from its proven value, or an accessed parameter slot is
     * unbound, of another element kind or shorter than its declared
     * extent. Returned before any side effect; the caller reruns the
     * execution on a checked tier.
     */
    ST_UNPROVEN = 8,
};

/**
 * One buffer slot visible to the kernel: a bound parameter array or
 * a scratch allocation. Mirrors the bytecode VM's SlotRt. `kind`
 * carries a bytecode::ElemKind value.
 *
 * KEEP IN SYNC with the StSlot definition in c_emitter.cc's
 * preamble: same fields, same order, same types.
 */
struct StSlot
{
    unsigned char *base = nullptr;
    int64_t numel = 0;
    int32_t kind = 0;
    int32_t ebytes = 0;
    int32_t bound = 0;
};

/**
 * Execution context of one kernel run. KEEP IN SYNC with the StCtx
 * definition in c_emitter.cc's preamble.
 */
struct StCtx
{
    StSlot *slots = nullptr;
    const int64_t *scalars = nullptr;
    int64_t blockBegin = 0;
    /** < 0: unwindowed (mirrors RunOptions::blockEnd). */
    int64_t blockEnd = -1;
    int32_t faultSlot = -1;
    int64_t faultOffset = 0;
};

/** Signature of one kernel entry of a dlopen'd module. */
using KernelEntryFn = int32_t (*)(StCtx *);

} // namespace native
} // namespace runtime
} // namespace sparsetir

#endif // SPARSETIR_RUNTIME_NATIVE_ABI_H_
