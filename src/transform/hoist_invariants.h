/**
 * @file
 * Loop-invariant code motion (a Stage III pass shared by every host
 * backend).
 *
 * The pass moves work that does not change across a loop's iterations
 * into a `LetStmt` bound just before the loop, so the interpreter, the
 * bytecode VM and the native C emitter all run the same, cheaper
 * program. It knows two kinds of invariant.
 *
 * Integer arithmetic. A maximal pure integer expression whose
 * variables are all bound outside loop L leaves L. Pure means integer
 * immediates and variables, `+ - * min max`, integer casts, and
 * `floordiv`/`floormod` by a non-zero constant. Such an expression
 * reads no memory and cannot fault, so it leaves any loop from any
 * position: `if` arms, `Select` arms, short-circuit operands and
 * loops that may run zero times included.
 *
 * Loads. A load leaves L only when all of these hold:
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
 * bound variable instead.
 *
 * Before hoisting, the pass rewrites floordiv(x, c) * c +
 * floormod(x, c) to x for a non-zero constant c (an identity of
 * floor division; x must call nothing), so no backend divides twice
 * to recompute a value it already has.
 *
 * Outer loops are processed first, so an invariant lands before the
 * outermost loop it may leave, and a second application changes
 * nothing. The Stage III producers stay unhoisted (the GPU simulator
 * models them as scheduled); the engine applies the pass to every
 * kernel it compiles.
 */

#ifndef SPARSETIR_TRANSFORM_HOIST_INVARIANTS_H_
#define SPARSETIR_TRANSFORM_HOIST_INVARIANTS_H_

#include "ir/prim_func.h"

namespace sparsetir {
namespace transform {

/** Hoist loop invariants of a Stage III function (see file doc). */
ir::PrimFunc hoistInvariants(const ir::PrimFunc &func);

} // namespace transform
} // namespace sparsetir

#endif // SPARSETIR_TRANSFORM_HOIST_INVARIANTS_H_
