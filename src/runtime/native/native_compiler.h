/**
 * @file
 * Native (C -> .so) tier: out-of-process compilation, persistent
 * artifact cache, and the host-side executor.
 *
 * compileNative() emits a kernel as C (c_emitter.h), hashes the
 * source, and either loads a matching persisted `.so` from the cache
 * directory (warm start across process restarts) or shells out to the
 * system C compiler and atomically installs the result. execute()
 * binds Bindings/RunOptions onto the dlopen'd entry point with the
 * exact semantics of the bytecode VM — offset views, block windows,
 * lazy parameter binding, fault diagnostics.
 *
 * Environment knobs:
 *   SPARSETIR_NATIVE            enable the tier as the engine default
 *   SPARSETIR_NATIVE_CC         compiler command (default "cc")
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

namespace sparsetir {
namespace runtime {
namespace native {

/**
 * One loaded native kernel. The dlopen handle is refcounted through
 * `handle`; the entry pointer stays valid for the kernel's lifetime.
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
    /** Scalar params the kernel reads, in ctx->scalars order. */
    std::vector<std::string> scalarNames;
    bool hasWindow = false;
    /** Installed artifact path in the cache directory. */
    std::string soPath;
    /** Loaded from a persisted artifact; no compiler was invoked. */
    bool diskHit = false;
};

/**
 * Compile `func` to a native kernel, reusing a persisted artifact
 * when one with a matching meta string (source hash + key tag + ABI
 * version + compiler command and flags) exists in the cache
 * directory. Throws UserError when the
 * function is outside the native subset or the C compiler fails /
 * is missing — callers treat that as "stay on bytecode". Safe to
 * call concurrently: a process-wide lock serializes the cache, so
 * racing callers for one kernel produce exactly one compile.
 */
std::shared_ptr<const NativeKernel>
compileNative(const ir::PrimFunc &func, const std::string &key_tag);

/**
 * Execute a native kernel over bindings, honoring RunOptions block
 * windows and offset views. Fault codes surface as the bytecode VM's
 * diagnostics (InternalError / UserError).
 */
void execute(const NativeKernel &kernel, const Bindings &bindings,
             const RunOptions &options);

/** Artifact cache directory currently in effect. */
std::string nativeCacheDir();

/**
 * Process-wide count of C-compiler invocations that produced an
 * artifact (disk hits do not count). Tests assert warm starts and
 * promotion races leave this unchanged / bump it exactly once.
 */
uint64_t nativeCompileCount();

/** True when SPARSETIR_NATIVE asks for the native tier ("1"/"true"/
 *  any value other than "" or "0"). */
bool nativeEnabledByEnv();

} // namespace native
} // namespace runtime
} // namespace sparsetir

#endif // SPARSETIR_RUNTIME_NATIVE_NATIVE_COMPILER_H_
