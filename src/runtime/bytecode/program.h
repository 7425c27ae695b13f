/**
 * @file
 * The bytecode program format executed by the BytecodeVM.
 *
 * A Program is the compiled form of one Stage III PrimFunc: a flat
 * stream of register-based instructions over
 *
 *  - an int64 register file (loop variables, offsets, scalar params,
 *    integer temporaries),
 *  - a double register file (float temporaries; float32 ops round
 *    their result to float32 and stores round to the destination
 *    buffer's storage width, matching the interpreter),
 *  - a buffer slot table with pre-resolved parameter names, so a warm
 *    dispatch binds arrays by one hash lookup per parameter instead
 *    of one per AST access.
 *
 * Control flow is explicit jumps; loops compile to a head test plus a
 * back-edge, and the outermost blockIdx.x-bound loop carries a
 * kBlockWindow instruction through which RunOptions block windows are
 * applied without recompiling (the unit of host-side parallelism).
 *
 * The instruction semantics mirror the tree-walking interpreter
 * exactly — same integer/float promotion, same short-circuit
 * evaluation, same storage rounding — so a Program's results are
 * bitwise identical to interpreting its source function.
 */

#ifndef SPARSETIR_RUNTIME_BYTECODE_PROGRAM_H_
#define SPARSETIR_RUNTIME_BYTECODE_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ir/dtype.h"
#include "ir/expr.h"

namespace sparsetir {
namespace runtime {
namespace bytecode {

/**
 * Opcodes. Register operand conventions: `a` is the destination,
 * `b`/`c`/`d` are sources; slot operands index Program::slots; `imm`
 * carries jump targets, inline constants (kIConst; kFConst stores the
 * double's bit pattern) or an extra register operand.
 */
enum class Op : uint8_t {
    // Control flow (imm = target pc unless noted).
    kJump,
    kJumpIfZero,     // if ireg[a] == 0 goto imm
    kJumpIfNonZero,  // if ireg[a] != 0 goto imm
    kBranchGE,       // if ireg[a] >= ireg[b] goto imm (loop exit test)
    kBlockWindow,    // ireg[a]=lo, ireg[b]=hi from min=ireg[c],
                     // extent=ireg[d] and the VM's run window
    kHalt,

    // Integer register ops (int64 arithmetic, like interpreter Value).
    kIConst,  // ireg[a] = imm
    kIMov,    // ireg[a] = ireg[b]
    kIAdd,
    kISub,
    kIMul,
    kIFloorDiv,
    kIFloorMod,
    kIMin,
    kIMax,
    kIAddImm,  // ireg[a] = ireg[b] + imm
    kICmpEQ,   // ireg[a] = ireg[b] == ireg[c]
    kICmpNE,
    kICmpLT,
    kICmpLE,
    kICmpGT,
    kICmpGE,
    kIBool,  // ireg[a] = ireg[b] != 0
    kIEqz,   // ireg[a] = ireg[b] == 0
    kIAbs,

    // Float register ops (double arithmetic, like interpreter Value).
    kFConst,  // freg[a] = bit_cast<double>(imm)
    kFMov,    // freg[a] = freg[b]
    kFAdd,
    kFSub,
    kFMul,
    kFDiv,
    kFMin,
    kFMax,
    kFCmpEQ,  // ireg[a] = freg[b] == freg[c]
    kFCmpNE,
    kFCmpLT,
    kFCmpLE,
    kFCmpGT,
    kFCmpGE,
    kFAbs,
    kFExp,
    kFLog,
    kFSqrt,

    // float32 variants: the double result rounded to float32 (the
    // float32 rule, runtime::roundsToFloat32), same operands.
    kFAdd32,
    kFSub32,
    kFMul32,
    kFDiv32,
    kFMin32,
    kFMax32,
    kFAbs32,
    kFExp32,
    kFLog32,
    kFSqrt32,
    kFRound32,  // freg[a] = float(freg[b]) (a float-to-float32 cast)

    // Conversions (interpreter asFloat / asInt semantics).
    kCastIF,    // freg[a] = double(ireg[b])
    kCastIF32,  // freg[a] = float(double(ireg[b]))
    kCastFI,    // ireg[a] = int64(freg[b])  (C truncation)

    // Memory. b = slot, offsets are element indices, bounds-checked.
    kLoadI,       // ireg[a] = slots[b][ireg[c]]
    kLoadF,       // freg[a] = slots[b][ireg[c]]
    kStoreI,      // slots[b][ireg[c]] = ireg[a]
    kStoreF,      // slots[b][ireg[c]] = freg[a] (rounds to storage)
    kLowerBound,  // ireg[a] = lower_bound(slots[b], lo=ireg[c],
                  //                       hi=ireg[d], val=ireg[imm])
    kUpperBound,
    kAtomicAddI,  // ireg[a] = old; slots[b][ireg[c]] += ireg[d]
    kAtomicAddF,  // freg[a] = old; slots[b][ireg[c]] += freg[d]
    kAlloc,       // (re)allocate scratch slot b with ireg[c] elements,
                  // zero-filled; elem kind in a
};

/** One decoded instruction. */
struct Instr
{
    Op op = Op::kHalt;
    int32_t a = 0;
    int32_t b = 0;
    int32_t c = 0;
    int32_t d = 0;
    int64_t imm = 0;
};

/**
 * Storage element kind of a buffer slot, the same set NDArray can
 * hold (float16 is widened to float32 storage on the host).
 */
enum class ElemKind : uint8_t {
    kF32,
    kF64,
    kI8,
    kI16,
    kI32,
    kI64,
    kBool,
};

/** Bytes per element of a kind. */
int elemKindBytes(ElemKind kind);

/**
 * Storage kind of a dtype, mirroring NDArray's host layout (float16
 * is widened to float32 storage). The single source of truth shared
 * by the compiler (scratch slots) and the VM (bound arrays).
 */
ElemKind elemKindOfDtype(const ir::DataType &dtype);

/** True for the float class (loads/stores go to the freg file). */
inline bool
elemKindIsFloat(ElemKind kind)
{
    return kind == ElemKind::kF32 || kind == ElemKind::kF64;
}

/**
 * One buffer slot: a function parameter or a scratch allocation.
 */
struct SlotInfo
{
    /** Parameter name (binding key), or the scratch buffer's name. */
    std::string name;
    /**
     * Register-class expectation compiled into every access of this
     * slot (descriptive; from the declared buffer dtype when known).
     * A binding of the other class faults on the slot's first
     * access — not at bind time, preserving the lazy-binding
     * convention for slots this run never touches.
     */
    bool isFloatClass = false;
    /** Scratch allocation (kAlloc-managed) vs bound parameter. */
    bool isAlloc = false;
    /** For scratch slots: storage kind; params use the bound array. */
    ElemKind allocKind = ElemKind::kF32;
};

/** A scalar function parameter pre-assigned to an int register. */
struct ScalarParam
{
    std::string name;
    int32_t reg = 0;
};

/** A compiled Stage III kernel. */
struct Program
{
    /** Source function name (diagnostics). */
    std::string name;
    std::vector<Instr> code;
    /** Parameter slots first, then scratch (alloc) slots. */
    std::vector<SlotInfo> slots;
    int32_t numParamSlots = 0;
    std::vector<ScalarParam> scalarParams;
    int32_t numIRegs = 0;
    int32_t numFRegs = 0;
    /**
     * Constant pool: (register, value) pairs the VM preloads before
     * executing. Pooled constants occupy pinned registers above the
     * working set, so loop bodies never re-materialize immediates.
     */
    std::vector<std::pair<int32_t, int64_t>> iconsts;
    /** Float constants; the value is the double's bit pattern. */
    std::vector<std::pair<int32_t, int64_t>> fconsts;
    /**
     * pc of the kBlockWindow instruction of the outermost
     * blockIdx.x-bound loop; -1 when the kernel has no block grid.
     * Mirrors runtime::findBlockIdxLoop on the source function.
     */
    int32_t blockWindowPc = -1;
    /**
     * Launch info spilled at compile time: the extent expression of
     * that loop (null when blockWindowPc is -1). Warm dispatchers
     * size their grid by evaluating this over scalar bindings
     * (runtime::evalScalarExtent) instead of re-walking the source
     * IR with the interpreter on every request.
     */
    ir::Expr blockExtent;
};

} // namespace bytecode
} // namespace runtime
} // namespace sparsetir

#endif // SPARSETIR_RUNTIME_BYTECODE_PROGRAM_H_
