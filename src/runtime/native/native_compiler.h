/**
 * @file
 * Native (C -> .so) tier: out-of-process compilation, persistent
 * artifact cache, and the host-side executor.
 *
 * compileNativeModule() emits every kernel of an artifact as one C
 * module (c_emitter.h), hashes the source, and either loads a
 * matching persisted `.so` from the cache directory (warm start
 * across process restarts) or runs the system C compiler once and
 * atomically installs the result. execute() binds Bindings/RunOptions
 * onto one dlopen'd entry with the exact semantics of the bytecode
 * VM — offset views, block windows, lazy parameter binding, fault
 * diagnostics.
 *
 * Environment knobs:
 *   SPARSETIR_NATIVE            enable the tier as the engine default
 *   SPARSETIR_NATIVE_CC         compiler command (default "cc"),
 *                               split on whitespace into argv
 *   SPARSETIR_NATIVE_CACHE_DIR  artifact directory
 *                               (default /tmp/sparsetir-native-<uid>)
 */

#ifndef SPARSETIR_RUNTIME_NATIVE_NATIVE_COMPILER_H_
#define SPARSETIR_RUNTIME_NATIVE_NATIVE_COMPILER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/prim_func.h"
#include "runtime/interpreter.h"
#include "runtime/native/abi.h"
#include "runtime/native/c_emitter.h"

namespace sparsetir {
namespace runtime {
namespace native {

/**
 * One loaded native kernel. The dlopen handle of its module is
 * refcounted through `handle`, shared by every kernel of the module;
 * the entry pointer stays valid for the kernel's lifetime.
 */
struct NativeKernel
{
    std::string name;
    KernelEntryFn entry = nullptr;
    /** dlopen handle; dlclose on last release. */
    std::shared_ptr<void> handle;
    /** Buffer slot names: params first, then scratch (see emitter). */
    std::vector<std::string> slotNames;
    int numParamSlots = 0;
    /** Parameter slots the kernel accesses, ascending; execute()
     *  binds only these. */
    std::vector<int> usedParamSlots;
    /** Scalar params the kernel reads, in ctx->scalars order. */
    std::vector<std::string> scalarNames;
    bool hasWindow = false;
    /** Emitted unchecked behind a proof guard (KernelProof). */
    bool proven = false;
    /** Installed module path in the cache directory. */
    std::string soPath;
    /** Loaded from a persisted module; no compiler was invoked. */
    bool diskHit = false;
};

/**
 * Compile `funcs` as one native module: one C translation unit, one
 * compiler run, one `.so` whose kernels share a dlopen handle and a
 * `soPath`, addressed by the hash of its C source. A persisted module
 * at that path with a matching meta string (`key_tag` + ABI version +
 * compiler command and flags + kernel names) in the cache directory
 * is loaded instead, all kernels at once. Returns one kernel per
 * function, in order; null for a function outside the native subset,
 * whose diagnostic lands in `(*rejected)[i]` ("" for accepted ones). `proofs` is emitModule's:
 * empty, or per function its proof or null. Throws UserError when the
 * compiler is missing or fails or its output will not load — then
 * every kernel of the module fails. Safe to call concurrently:
 * builds of one module serialize on a per-path lock, so racing
 * callers produce exactly one compile, while other modules build in
 * parallel.
 */
std::vector<std::shared_ptr<const NativeKernel>>
compileNativeModule(const std::vector<ir::PrimFunc> &funcs,
                    const std::string &key_tag,
                    std::vector<std::string> *rejected = nullptr,
                    const std::vector<const KernelProof *> &proofs = {});

/**
 * The one-kernel module of `func` (compileNativeModule({func})).
 * Throws UserError when the function is outside the native subset or
 * the compile fails — callers treat that as "stay on bytecode".
 */
std::shared_ptr<const NativeKernel>
compileNative(const ir::PrimFunc &func, const std::string &key_tag);

/**
 * Execute a native kernel over bindings, honoring RunOptions block
 * windows and offset views. Fault codes surface as the bytecode VM's
 * diagnostics (InternalError / UserError). Returns false, having run
 * nothing, when a proven kernel's entry guard refuses the bindings
 * (ST_UNPROVEN): the caller then runs the execution on a checked
 * tier, which raises any fault with its own diagnostic. Kernels
 * emitted without a proof always return true.
 */
bool execute(const NativeKernel &kernel, const Bindings &bindings,
             const RunOptions &options);

/** Artifact cache directory currently in effect. */
std::string nativeCacheDir();

/**
 * Process-wide count of C-compiler runs that exited with status 0,
 * one per module built (disk hits do not count). Tests assert warm
 * starts and promotion races leave this unchanged / bump it exactly
 * once.
 */
uint64_t nativeCompileCount();

/** True when SPARSETIR_NATIVE asks for the native tier ("1"/"true"/
 *  any value other than "" or "0"). */
bool nativeEnabledByEnv();

} // namespace native
} // namespace runtime
} // namespace sparsetir

#endif // SPARSETIR_RUNTIME_NATIVE_NATIVE_COMPILER_H_
