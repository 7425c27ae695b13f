/**
 * @file
 * Stage II/III schedule primitives (paper §3.3.2).
 *
 * A Schedule wraps a PrimFunc and applies composable, semantics-
 * preserving loop transformations: split, fuse, reorder, bind,
 * vectorize, unroll, parallel, cache_read, cache_write,
 * decompose_reduction, rfactor, tensorize and annotate. Loops are identified by loop-variable name
 * (unique within a function; split/fuse derive fresh names), blocks by
 * block name.
 *
 * Every primitive validates its preconditions (e.g. loops cannot be
 * reordered across TensorIR block boundaries, reduction loops cannot
 * be thread-bound without atomics) and rebuilds the function
 * functionally.
 */

#ifndef SPARSETIR_SCHEDULE_SCHEDULE_H_
#define SPARSETIR_SCHEDULE_SCHEDULE_H_

#include <string>
#include <vector>

#include "ir/prim_func.h"

namespace sparsetir {
namespace schedule {

class Schedule
{
  public:
    explicit Schedule(ir::PrimFunc func);

    /** Current (rebuilt) function. */
    const ir::PrimFunc &func() const { return func_; }

    /** Names of the loops enclosing `block_name`, outermost first. */
    std::vector<std::string> getLoops(const std::string &block_name) const;

    /**
     * Split loop `name` by `factor` into `{name}_o` (outer) and
     * `{name}_i` (inner, extent = factor). Emits a tail guard when the
     * extent is not provably divisible. Returns {outer, inner} names.
     */
    std::pair<std::string, std::string> split(const std::string &name,
                                              int64_t factor);

    /**
     * Fuse directly nested loops `outer` and `inner` into one loop
     * named `{outer}_{inner}_f`. Returns the fused name. An outer loop
     * of extent 1 around an inner one of symbolic extent fuses without
     * a division: outer is 0 and inner the fused variable.
     */
    std::string fuse(const std::string &outer, const std::string &inner);

    /**
     * Reorder the listed loops (members of one straight-line nest with
     * no block boundaries between them) into the given order.
     */
    void reorder(const std::vector<std::string> &names);

    /** Bind loop to a GPU thread axis ("blockIdx.x", "threadIdx.x"). */
    void bind(const std::string &name, const std::string &thread_tag);

    /** Mark loop vectorized (constant extent required). */
    void vectorize(const std::string &name);

    /** Mark loop unrolled. */
    void unroll(const std::string &name);

    /** Mark loop CPU-parallel. */
    void parallel(const std::string &name);

    /**
     * Cache the write target of reduction block `block_name` in a
     * register-scope accumulator: the block updates the accumulator
     * and the result is written back once after the outermost
     * reduction loop. Spatial loops may sit inside that loop only
     * when zero-based with a constant extent: the accumulator then
     * holds one element per iteration of them and the write-back is
     * a loop nest over them (the host schedules' feature-wide
     * accumulator). With none, the accumulator is one element.
     *
     * With `accumulate` the write-back adds into the target instead
     * of overwriting it — required when several kernels (e.g. hyb
     * buckets of a decomposed format) contribute partial sums to the
     * same output, which must be zero-initialized by the caller.
     */
    void cacheWrite(const std::string &block_name,
                    const std::string &buffer_name,
                    bool accumulate = false);

    /**
     * TensorIR's decompose_reduction: move the init of reduction
     * block `block_name` out of the loop nest into its own loop nest,
     * placed just before reduction loop `loop_name`. The new nest
     * re-walks the spatial loops between `loop_name` and the block
     * under fresh `{name}_init` variables; reduction variables read
     * by the init become 0, the value at which the init used to fire.
     * The block keeps its update alone, so the reduction loop no
     * longer tests for its first iteration. `loop_name` must be the
     * outermost reduction loop of the block, and every loop from it
     * down to the block must be zero-based with a constant positive
     * extent and hold only the next loop (or the block): then the
     * init runs exactly once per spatial point before the updates,
     * as it did on their first step.
     */
    void decomposeReduction(const std::string &block_name,
                            const std::string &loop_name);

    /**
     * Stage the region of `buffer_name` read inside loop `loop_name`
     * into a scratch buffer of the given scope; accesses are remapped
     * and a copy nest is inserted at the top of the loop body.
     */
    void cacheRead(const std::string &loop_name,
                   const std::string &buffer_name, ir::MemScope scope);

    /**
     * Factor the reduction of block `block_name` along the reduction
     * loop `loop_name`: partial results are accumulated per loop
     * iteration into an intermediate buffer, followed by a final
     * cross-iteration reduction block named `{block_name}_rf`.
     */
    void rfactor(const std::string &block_name,
                 const std::string &loop_name);

    /**
     * Mark block `block_name` for Tensor-Core execution with the given
     * MMA intrinsic ("m16n16k16", "m8n32k16"). Functional semantics
     * are unchanged; code generation and the GPU simulator honour the
     * annotation.
     */
    void tensorize(const std::string &block_name,
                   const std::string &intrinsic);

    /** Attach an annotation to a block. */
    void annotateBlock(const std::string &block_name,
                       const std::string &key, ir::Expr value);

    /** Attach an annotation to a loop. */
    void annotateLoop(const std::string &loop_name, const std::string &key,
                      ir::Expr value);

  private:
    ir::PrimFunc func_;
};

} // namespace schedule
} // namespace sparsetir

#endif // SPARSETIR_SCHEDULE_SCHEDULE_H_
