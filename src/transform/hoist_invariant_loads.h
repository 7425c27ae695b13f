/**
 * @file
 * Loop-invariant load hoisting (a Stage III pass for host kernels).
 *
 * A host schedule that keeps the feature loop innermost re-reads the
 * same column index and value on every feature lane. This pass moves
 * such a load out of a serial loop into a `LetStmt` bound just before
 * the loop, so the interpreter, the bytecode VM and the native C
 * emitter all run the same, cheaper program.
 *
 * A load leaves loop L only when all of these hold:
 *  - L is serial with a constant positive trip count (so the
 *    original program performs the load at least once, at the same
 *    index, and a faulting load still faults);
 *  - its indices use only variables bound outside L;
 *  - nothing in L writes or allocates its buffer, or a buffer its
 *    indices load from (stores and buffer-targeting calls such as
 *    atomics count as writes);
 *  - it runs on every iteration of L: not under an `if`, a `Select`
 *    branch, the right operand of `&&`/`||`, a block `init`, or a
 *    nested loop without a constant positive trip count.
 * Every occurrence of a hoisted load in L (conditional ones included:
 * the buffer is not written in L, so the value is the same) reads the
 * bound variable instead. Inner loops are processed first, so a load
 * invariant in several nested loops climbs as far as it may.
 */

#ifndef SPARSETIR_TRANSFORM_HOIST_INVARIANT_LOADS_H_
#define SPARSETIR_TRANSFORM_HOIST_INVARIANT_LOADS_H_

#include "ir/prim_func.h"

namespace sparsetir {
namespace transform {

/** Hoist loop-invariant loads of a Stage III function (see file doc). */
ir::PrimFunc hoistInvariantLoads(const ir::PrimFunc &func);

} // namespace transform
} // namespace sparsetir

#endif // SPARSETIR_TRANSFORM_HOIST_INVARIANT_LOADS_H_
