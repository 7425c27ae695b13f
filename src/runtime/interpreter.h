/**
 * @file
 * Functional execution of lowered SparseTIR programs.
 *
 * The interpreter walks Stage II/III IR and executes it on the host:
 * GPU thread-binding loops run as plain serial loops (the lowering
 * keeps per-thread work disjoint or reduction-local, so serial
 * emulation is exact). It is the reference semantics against which
 * every schedule primitive must be meaning-preserving, and the source
 * of numerical ground truth for the benchmark suite.
 */

#ifndef SPARSETIR_RUNTIME_INTERPRETER_H_
#define SPARSETIR_RUNTIME_INTERPRETER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/prim_func.h"
#include "runtime/ndarray.h"

namespace sparsetir {
namespace runtime {

/** Bindings from function parameter names to arrays/scalars. */
struct Bindings
{
    /** Handle params (buffer data, indptr, indices) by param name. */
    std::unordered_map<std::string, NDArray *> arrays;
    /** Scalar int params by name. */
    std::unordered_map<std::string, int64_t> scalars;
};

/**
 * Host execution backend for lowered kernels.
 *
 * kInterpreter walks the AST and is the reference semantics; it keeps
 * the strictest per-access diagnostics. kBytecode compiles the
 * function once (memoized) to a flat register program and executes it
 * on a dispatch loop — same results bitwise, an order of magnitude
 * faster on warm dispatches. Functions the bytecode compiler cannot
 * lower (Stage I sparse iterations, vector IR) silently fall back to
 * the interpreter, whose diagnostics are authoritative.
 *
 * kNative is the third tier: the same Stage III subset emitted as C,
 * compiled out-of-process and dlopen'd (runtime/native/). Results are
 * bitwise identical to both other backends. Native artifacts are
 * attached per compiled kernel by the engine's promotion policy;
 * until one is ready — or when emission/compilation bails — kNative
 * dispatches execute on bytecode (and from there the interpreter),
 * so the request path never blocks on a C compiler.
 */
enum class Backend : uint8_t {
    kInterpreter,
    kBytecode,
    kNative,
};

/**
 * Execution window over the kernel's launch grid.
 *
 * When blockEnd >= 0, only iterations v with blockBegin <= v <
 * blockEnd of the outermost "blockIdx.x"-bound loop are executed;
 * other statements run normally. This is the unit of host-side
 * parallelism: the lowering keeps writes of distinct blockIdx
 * iterations either disjoint or expressed as read-modify-write
 * accumulation (which the parallel executor orders by write hull), so
 * disjoint windows of one kernel may run on different threads over
 * shared buffers.
 */
struct RunOptions
{
    int64_t blockBegin = 0;
    int64_t blockEnd = -1;  // -1: no restriction
    Backend backend = Backend::kBytecode;
};

/**
 * Execute a PrimFunc over the given bindings. Buffers are updated in
 * place. Throws UserError when a parameter binding is missing and
 * InternalError on IR-level inconsistencies (e.g. out-of-bounds
 * access, which indicates a lowering bug). Executes on the default
 * backend (bytecode, interpreter fallback).
 */
void run(const ir::PrimFunc &func, const Bindings &bindings);

/** Execute a block-index window of a PrimFunc (see RunOptions). */
void run(const ir::PrimFunc &func, const Bindings &bindings,
         const RunOptions &options);

/**
 * Execute on the tree-walking interpreter regardless of
 * options.backend — the reference oracle for differential testing.
 */
void runInterpreted(const ir::PrimFunc &func, const Bindings &bindings,
                    const RunOptions &options = RunOptions());

/**
 * First For node bound to "blockIdx.x" in pre-order, or null. This is
 * the loop RunOptions block windows restrict, for both backends.
 */
const ir::ForNode *findBlockIdxLoop(const ir::Stmt &s);

/**
 * Floor division (toward negative infinity), the semantics of the
 * IR's floordiv/floormod. Shared by both backends so rounding can
 * never drift between them; throws InternalError on division by zero.
 */
int64_t floordivInt(int64_t a, int64_t b);

/**
 * The float32 rule every backend shares: a float op (`+ - * /`,
 * min, max, a cast or a math call) whose node dtype is float32 rounds
 * its result to float32. float16 computes as float32 (its host storage
 * is float32); float64 stays double. The interpreter and the bytecode
 * VM hold floats as doubles and round after each such op; because
 * 53 >= 2 * 24 + 2, rounding a float32 `+ - * /` through double gives
 * the correctly rounded float32 result, so both match C `float`
 * arithmetic bitwise. Math calls compute in double and round.
 */
inline bool
roundsToFloat32(const ir::DataType &dtype)
{
    return dtype.isFloat() && dtype.bits() <= 32;
}

/** Execute every function in a module, in order. */
void runModule(const ir::Module &mod, const Bindings &bindings);

/**
 * Evaluate an integer expression using only constants and the scalar
 * bindings — no interpreter machine, no buffer state. Returns false
 * (leaving *out untouched) when the expression references anything
 * else (an unbound var, a buffer load, a call) or divides by zero.
 * This is the warm-dispatch grid-sizing path: engine::CompiledKernel
 * spills its blockIdx.x extent at compile time and evaluates it here.
 */
bool evalScalarExtent(const ir::Expr &e, const Bindings &bindings,
                      int64_t *out);

} // namespace runtime
} // namespace sparsetir

#endif // SPARSETIR_RUNTIME_INTERPRETER_H_
