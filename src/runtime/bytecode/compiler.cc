#include "runtime/bytecode/compiler.h"

#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "observe/trace.h"
#include "runtime/interpreter.h"
#include "support/logging.h"
#include "transform/lower_sparse_buffer.h"

namespace sparsetir {
namespace runtime {
namespace bytecode {

using namespace ir;

int
elemKindBytes(ElemKind kind)
{
    switch (kind) {
      case ElemKind::kF64:
      case ElemKind::kI64:
        return 8;
      case ElemKind::kF32:
      case ElemKind::kI32:
        return 4;
      case ElemKind::kI16:
        return 2;
      case ElemKind::kI8:
      case ElemKind::kBool:
        return 1;
    }
    return 4;
}

ElemKind
elemKindOfDtype(const DataType &dtype)
{
    if (dtype.isFloat()) {
        // float16 is widened to float32 storage on the host.
        return dtype.bits() == 64 ? ElemKind::kF64 : ElemKind::kF32;
    }
    if (dtype.isBool()) {
        return ElemKind::kBool;
    }
    switch (dtype.bits()) {
      case 8:
        return ElemKind::kI8;
      case 16:
        return ElemKind::kI16;
      case 64:
        return ElemKind::kI64;
      default:
        return ElemKind::kI32;
    }
}

namespace {

/**
 * Single-function compiler. Register allocation is a stack per file:
 * scoped definitions (scalar params, loop vars, lets) pin a register
 * for their lexical extent, expression temporaries grow above them
 * and are released by mark/restore around every statement. Because
 * scopes nest strictly, one watermark per file suffices.
 */
class Compiler
{
  public:
    explicit Compiler(const PrimFunc &func) : func_(func) {}

    std::shared_ptr<const Program>
    run()
    {
        prog_.name = func_->name;
        for (const auto &param : func_->params) {
            if (param->dtype.isHandle()) {
                registerParamSlot(param);
            } else {
                int reg = allocI();
                scalarParamIndex_[param.get()] = scalars_.size();
                scalars_.push_back(
                    ScalarParam{param->name, static_cast<int32_t>(reg)});
                vars_[param.get()] = VarInfo{false, reg};
            }
        }
        scalarUsed_.assign(scalars_.size(), false);
        prog_.numParamSlots = static_cast<int32_t>(prog_.slots.size());
        blockLoop_ = findBlockIdxLoop(func_->body);
        if (blockLoop_ != nullptr) {
            prog_.blockExtent = blockLoop_->extent;
        }
        if (func_->body != nullptr) {
            compileStmt(func_->body);
        }
        emit(Op::kHalt);
        assignConstRegisters();
        // Lazy-binding parity with the interpreter: only scalar
        // params the compiled code reads require a binding; the VM
        // preloads exactly this list.
        for (size_t i = 0; i < scalars_.size(); ++i) {
            if (scalarUsed_[i]) {
                prog_.scalarParams.push_back(scalars_[i]);
            }
        }
        prog_.numIRegs =
            static_cast<int32_t>(iMax_ + ipoolValues_.size());
        prog_.numFRegs =
            static_cast<int32_t>(fMax_ + fpoolValues_.size());
        return std::make_shared<const Program>(std::move(prog_));
    }

  private:
    struct VarInfo
    {
        bool isFloat = false;
        int reg = 0;
    };

    struct Mark
    {
        int i = 0;
        int f = 0;
    };

    Mark
    mark() const
    {
        return Mark{iTop_, fTop_};
    }

    void
    restore(const Mark &m)
    {
        iTop_ = m.i;
        fTop_ = m.f;
    }

    int
    allocI()
    {
        int reg = iTop_++;
        iMax_ = std::max(iMax_, iTop_);
        return reg;
    }

    int
    allocF()
    {
        int reg = fTop_++;
        fMax_ = std::max(fMax_, fTop_);
        return reg;
    }

    int
    emit(Op op, int32_t a = 0, int32_t b = 0, int32_t c = 0,
         int32_t d = 0, int64_t imm = 0)
    {
        prog_.code.push_back(Instr{op, a, b, c, d, imm});
        return static_cast<int>(prog_.code.size()) - 1;
    }

    int
    here() const
    {
        return static_cast<int>(prog_.code.size());
    }

    void
    patch(int pc, int target)
    {
        prog_.code[static_cast<size_t>(pc)].imm = target;
    }

    // -----------------------------------------------------------------
    // Constant pool
    //
    // Immediates compile to pinned registers preloaded once per run
    // instead of per-evaluation kIConst/kFConst instructions, so loop
    // bodies carry no constant re-materialization. During compilation
    // pool registers are numbered from kConstRegBase; a fixup pass
    // renumbers them above the working registers once the watermark
    // is final.
    // -----------------------------------------------------------------

    static constexpr int kConstRegBase = 1 << 20;

    int
    constI(int64_t value)
    {
        auto [it, inserted] =
            ipool_.emplace(value, static_cast<int>(ipoolValues_.size()));
        if (inserted) {
            ipoolValues_.push_back(value);
        }
        return kConstRegBase + it->second;
    }

    int
    constF(double value)
    {
        int64_t bits;
        std::memcpy(&bits, &value, sizeof(bits));
        auto [it, inserted] =
            fpool_.emplace(bits, static_cast<int>(fpoolValues_.size()));
        if (inserted) {
            fpoolValues_.push_back(bits);
        }
        return kConstRegBase + it->second;
    }

    void
    assignConstRegisters()
    {
        auto remapI = [&](int32_t &reg) {
            if (reg >= kConstRegBase) {
                reg = static_cast<int32_t>(iMax_ +
                                           (reg - kConstRegBase));
            }
        };
        auto remapF = [&](int32_t &reg) {
            if (reg >= kConstRegBase) {
                reg = static_cast<int32_t>(fMax_ +
                                           (reg - kConstRegBase));
            }
        };
        for (Instr &in : prog_.code) {
            switch (in.op) {
              case Op::kJump:
              case Op::kHalt:
              case Op::kIConst:
              case Op::kAlloc:
                remapOnlyC(in, remapI);
                break;
              case Op::kJumpIfZero:
              case Op::kJumpIfNonZero:
                remapI(in.a);
                break;
              case Op::kBranchGE:
              case Op::kIMov:
              case Op::kIAddImm:
              case Op::kIBool:
              case Op::kIEqz:
              case Op::kIAbs:
                remapI(in.a);
                remapI(in.b);
                break;
              case Op::kBlockWindow:
                remapI(in.a);
                remapI(in.b);
                remapI(in.c);
                remapI(in.d);
                break;
              case Op::kIAdd:
              case Op::kISub:
              case Op::kIMul:
              case Op::kIFloorDiv:
              case Op::kIFloorMod:
              case Op::kIMin:
              case Op::kIMax:
              case Op::kICmpEQ:
              case Op::kICmpNE:
              case Op::kICmpLT:
              case Op::kICmpLE:
              case Op::kICmpGT:
              case Op::kICmpGE:
                remapI(in.a);
                remapI(in.b);
                remapI(in.c);
                break;
              case Op::kFConst:
                remapF(in.a);
                break;
              case Op::kFMov:
              case Op::kFAbs:
              case Op::kFExp:
              case Op::kFLog:
              case Op::kFSqrt:
              case Op::kFAbs32:
              case Op::kFExp32:
              case Op::kFLog32:
              case Op::kFSqrt32:
              case Op::kFRound32:
                remapF(in.a);
                remapF(in.b);
                break;
              case Op::kFAdd:
              case Op::kFSub:
              case Op::kFMul:
              case Op::kFDiv:
              case Op::kFMin:
              case Op::kFMax:
              case Op::kFAdd32:
              case Op::kFSub32:
              case Op::kFMul32:
              case Op::kFDiv32:
              case Op::kFMin32:
              case Op::kFMax32:
                remapF(in.a);
                remapF(in.b);
                remapF(in.c);
                break;
              case Op::kFCmpEQ:
              case Op::kFCmpNE:
              case Op::kFCmpLT:
              case Op::kFCmpLE:
              case Op::kFCmpGT:
              case Op::kFCmpGE:
                remapI(in.a);
                remapF(in.b);
                remapF(in.c);
                break;
              case Op::kCastIF:
              case Op::kCastIF32:
                remapF(in.a);
                remapI(in.b);
                break;
              case Op::kCastFI:
                remapI(in.a);
                remapF(in.b);
                break;
              case Op::kLoadI:
              case Op::kStoreI:
                remapI(in.a);
                remapI(in.c);
                break;
              case Op::kLoadF:
              case Op::kStoreF:
                remapF(in.a);
                remapI(in.c);
                break;
              case Op::kLowerBound:
              case Op::kUpperBound: {
                remapI(in.a);
                remapI(in.c);
                remapI(in.d);
                // imm carries the value register for these two ops.
                int32_t val = static_cast<int32_t>(in.imm);
                remapI(val);
                in.imm = val;
                break;
              }
              case Op::kAtomicAddI:
                remapI(in.a);
                remapI(in.c);
                remapI(in.d);
                break;
              case Op::kAtomicAddF:
                remapF(in.a);
                remapI(in.c);
                remapF(in.d);
                break;
            }
        }
        prog_.iconsts.reserve(ipoolValues_.size());
        for (size_t i = 0; i < ipoolValues_.size(); ++i) {
            prog_.iconsts.emplace_back(
                static_cast<int32_t>(iMax_ + i), ipoolValues_[i]);
        }
        prog_.fconsts.reserve(fpoolValues_.size());
        for (size_t i = 0; i < fpoolValues_.size(); ++i) {
            prog_.fconsts.emplace_back(
                static_cast<int32_t>(fMax_ + i), fpoolValues_[i]);
        }
    }

    /** kAlloc's only register operand is c (element count). */
    template <typename Fn>
    static void
    remapOnlyC(Instr &in, Fn &&remap)
    {
        if (in.op == Op::kAlloc) {
            remap(in.c);
        }
    }

    // -----------------------------------------------------------------
    // Buffer slots
    // -----------------------------------------------------------------

    void
    registerParamSlot(const Var &param)
    {
        int slot = static_cast<int>(prog_.slots.size());
        SlotInfo info;
        info.name = param->name;
        if (Buffer buffer = func_->bufferOf(param)) {
            info.isFloatClass = buffer->dtype.isFloat();
        }
        prog_.slots.push_back(std::move(info));
        slotOf_[param.get()] = slot;
    }

    /** Read a variable's register, recording scalar-param usage. */
    int
    varReg(const VarNode *var)
    {
        auto used = scalarParamIndex_.find(var);
        if (used != scalarParamIndex_.end()) {
            scalarUsed_[used->second] = true;
        }
        return vars_.at(var).reg;
    }

    /** Slot of a buffer's storage; the data var must be a handle
     * param or an enclosing Allocate. */
    int
    slotFor(const Buffer &buffer)
    {
        auto it = slotOf_.find(buffer->data.get());
        ICHECK(it != slotOf_.end())
            << "no storage bound for buffer '" << buffer->name << "'";
        return it->second;
    }

    // -----------------------------------------------------------------
    // Static typing (mirrors the interpreter's dynamic promotion)
    // -----------------------------------------------------------------

    bool
    isFloatExpr(const Expr &e)
    {
        switch (e->kind) {
          case ExprKind::kIntImm:
            return false;
          case ExprKind::kFloatImm:
            return true;
          case ExprKind::kVar: {
            auto op = static_cast<const VarNode *>(e.get());
            auto it = vars_.find(op);
            ICHECK(it != vars_.end())
                << "unbound variable '" << op->name << "'";
            return it->second.isFloat;
          }
          case ExprKind::kAdd:
          case ExprKind::kSub:
          case ExprKind::kMul:
          case ExprKind::kMin:
          case ExprKind::kMax: {
            auto op = static_cast<const BinaryNode *>(e.get());
            return isFloatExpr(op->a) || isFloatExpr(op->b);
          }
          case ExprKind::kDiv:
            // Interpreter `/` always computes in float.
            return true;
          case ExprKind::kFloorDiv:
          case ExprKind::kFloorMod:
          case ExprKind::kEQ:
          case ExprKind::kNE:
          case ExprKind::kLT:
          case ExprKind::kLE:
          case ExprKind::kGT:
          case ExprKind::kGE:
          case ExprKind::kAnd:
          case ExprKind::kOr:
          case ExprKind::kNot:
            return false;
          case ExprKind::kSelect: {
            auto op = static_cast<const SelectNode *>(e.get());
            return isFloatExpr(op->trueValue) ||
                   isFloatExpr(op->falseValue);
          }
          case ExprKind::kCast:
            return static_cast<const CastNode *>(e.get())
                ->dtype.isFloat();
          case ExprKind::kBufferLoad:
            return static_cast<const BufferLoadNode *>(e.get())
                ->buffer->dtype.isFloat();
          case ExprKind::kCall: {
            auto op = static_cast<const CallNode *>(e.get());
            switch (op->op) {
              case Builtin::kLowerBound:
              case Builtin::kUpperBound:
                return false;
              case Builtin::kExp:
              case Builtin::kLog:
              case Builtin::kSqrt:
                return true;
              case Builtin::kAbs:
                return isFloatExpr(op->args[0]);
              case Builtin::kAtomicAdd:
                ICHECK(op->bufferArg != nullptr);
                return op->bufferArg->dtype.isFloat();
              case Builtin::kExtern:
                USER_CHECK(false) << "cannot interpret extern call '"
                                  << op->name << "'";
            }
            return false;
          }
          default:
            USER_CHECK(false) << "expression kind not compilable to "
                                 "bytecode in '"
                              << func_->name << "'";
        }
        return false;
    }

    // -----------------------------------------------------------------
    // Expressions
    // -----------------------------------------------------------------

    /**
     * Compile e to an int register (interpreter asInt view). The
     * returned register may be a pinned variable register; callers
     * must treat it as read-only.
     */
    int
    evalI(const Expr &e)
    {
        if (isFloatExpr(e)) {
            Mark m = mark();
            int f = evalF(e);
            restore(m);
            int r = allocI();
            emit(Op::kCastFI, r, f);
            return r;
        }
        switch (e->kind) {
          case ExprKind::kIntImm:
            return constI(
                static_cast<const IntImmNode *>(e.get())->value);
          case ExprKind::kVar:
            return varReg(static_cast<const VarNode *>(e.get()));
          case ExprKind::kNot: {
            Mark m = mark();
            int a = evalI(static_cast<const NotNode *>(e.get())->a);
            restore(m);
            int r = allocI();
            emit(Op::kIEqz, r, a);
            return r;
          }
          case ExprKind::kSelect:
            return compileSelect(
                static_cast<const SelectNode *>(e.get()), false);
          case ExprKind::kCast:
            // Int-targeted cast of an int value is the identity
            // (interpreter: v.asInt()); float sources took the
            // conversion path above.
            return evalI(static_cast<const CastNode *>(e.get())->value);
          case ExprKind::kBufferLoad: {
            auto op = static_cast<const BufferLoadNode *>(e.get());
            Mark m = mark();
            int off = compileOffset(op->buffer, op->indices);
            restore(m);
            int r = allocI();
            emit(Op::kLoadI, r, slotFor(op->buffer), off);
            return r;
          }
          case ExprKind::kCall:
            return compileCallI(static_cast<const CallNode *>(e.get()));
          case ExprKind::kAnd:
          case ExprKind::kOr:
            return compileShortCircuit(
                static_cast<const BinaryNode *>(e.get()));
          case ExprKind::kEQ:
          case ExprKind::kNE:
          case ExprKind::kLT:
          case ExprKind::kLE:
          case ExprKind::kGT:
          case ExprKind::kGE:
            return compileCompare(
                static_cast<const BinaryNode *>(e.get()));
          case ExprKind::kAdd:
          case ExprKind::kSub:
          case ExprKind::kMul:
          case ExprKind::kFloorDiv:
          case ExprKind::kFloorMod:
          case ExprKind::kMin:
          case ExprKind::kMax: {
            auto op = static_cast<const BinaryNode *>(e.get());
            Mark m = mark();
            int ra = evalI(op->a);
            int rb = evalI(op->b);
            restore(m);
            int r = allocI();
            emit(intArithOp(e->kind), r, ra, rb);
            return r;
          }
          default:
            USER_CHECK(false) << "expression kind not compilable to "
                                 "bytecode in '"
                              << func_->name << "'";
        }
        return 0;
    }

    /** Compile e to a float register (interpreter asFloat view). */
    int
    evalF(const Expr &e)
    {
        if (!isFloatExpr(e)) {
            Mark m = mark();
            int i = evalI(e);
            restore(m);
            int r = allocF();
            emit(Op::kCastIF, r, i);
            return r;
        }
        switch (e->kind) {
          case ExprKind::kFloatImm:
            return constF(
                static_cast<const FloatImmNode *>(e.get())->value);
          case ExprKind::kVar:
            return varReg(static_cast<const VarNode *>(e.get()));
          case ExprKind::kSelect:
            return compileSelect(
                static_cast<const SelectNode *>(e.get()), true);
          case ExprKind::kCast: {
            // Float-targeted cast: float64 is the identity (int
            // sources take evalF's conversion); float32 rounds.
            auto op = static_cast<const CastNode *>(e.get());
            if (!roundsToFloat32(op->dtype)) {
                return evalF(op->value);
            }
            bool from_int = !isFloatExpr(op->value);
            Mark m = mark();
            int src = from_int ? evalI(op->value) : evalF(op->value);
            restore(m);
            int r = allocF();
            emit(from_int ? Op::kCastIF32 : Op::kFRound32, r, src);
            return r;
          }
          case ExprKind::kBufferLoad: {
            auto op = static_cast<const BufferLoadNode *>(e.get());
            Mark m = mark();
            int off = compileOffset(op->buffer, op->indices);
            restore(m);
            int r = allocF();
            emit(Op::kLoadF, r, slotFor(op->buffer), off);
            return r;
          }
          case ExprKind::kCall:
            return compileCallF(static_cast<const CallNode *>(e.get()));
          case ExprKind::kAdd:
          case ExprKind::kSub:
          case ExprKind::kMul:
          case ExprKind::kDiv:
          case ExprKind::kMin:
          case ExprKind::kMax: {
            auto op = static_cast<const BinaryNode *>(e.get());
            Mark m = mark();
            int fa = evalF(op->a);
            int fb = evalF(op->b);
            restore(m);
            int r = allocF();
            emit(floatArithOp(e->kind, roundsToFloat32(e->dtype)), r,
                 fa, fb);
            return r;
          }
          default:
            USER_CHECK(false) << "expression kind not compilable to "
                                 "bytecode in '"
                              << func_->name << "'";
        }
        return 0;
    }

    static Op
    intArithOp(ExprKind kind)
    {
        switch (kind) {
          case ExprKind::kAdd:
            return Op::kIAdd;
          case ExprKind::kSub:
            return Op::kISub;
          case ExprKind::kMul:
            return Op::kIMul;
          case ExprKind::kFloorDiv:
            return Op::kIFloorDiv;
          case ExprKind::kFloorMod:
            return Op::kIFloorMod;
          case ExprKind::kMin:
            return Op::kIMin;
          default:
            return Op::kIMax;
        }
    }

    /** The float op of `kind`; its float32 variant with `f32`. */
    static Op
    floatArithOp(ExprKind kind, bool f32)
    {
        switch (kind) {
          case ExprKind::kAdd:
            return f32 ? Op::kFAdd32 : Op::kFAdd;
          case ExprKind::kSub:
            return f32 ? Op::kFSub32 : Op::kFSub;
          case ExprKind::kMul:
            return f32 ? Op::kFMul32 : Op::kFMul;
          case ExprKind::kDiv:
            return f32 ? Op::kFDiv32 : Op::kFDiv;
          case ExprKind::kMin:
            return f32 ? Op::kFMin32 : Op::kFMin;
          default:
            return f32 ? Op::kFMax32 : Op::kFMax;
        }
    }

    /** EQ..GE with the interpreter's float promotion; result int. */
    int
    compileCompare(const BinaryNode *op)
    {
        bool flt = isFloatExpr(op->a) || isFloatExpr(op->b);
        Mark m = mark();
        int dst;
        if (flt) {
            int fa = evalF(op->a);
            int fb = evalF(op->b);
            restore(m);
            dst = allocI();
            emit(floatCmpOp(op->kind), dst, fa, fb);
        } else {
            int ra = evalI(op->a);
            int rb = evalI(op->b);
            restore(m);
            dst = allocI();
            emit(intCmpOp(op->kind), dst, ra, rb);
        }
        return dst;
    }

    static Op
    intCmpOp(ExprKind kind)
    {
        switch (kind) {
          case ExprKind::kEQ:
            return Op::kICmpEQ;
          case ExprKind::kNE:
            return Op::kICmpNE;
          case ExprKind::kLT:
            return Op::kICmpLT;
          case ExprKind::kLE:
            return Op::kICmpLE;
          case ExprKind::kGT:
            return Op::kICmpGT;
          default:
            return Op::kICmpGE;
        }
    }

    static Op
    floatCmpOp(ExprKind kind)
    {
        switch (kind) {
          case ExprKind::kEQ:
            return Op::kFCmpEQ;
          case ExprKind::kNE:
            return Op::kFCmpNE;
          case ExprKind::kLT:
            return Op::kFCmpLT;
          case ExprKind::kLE:
            return Op::kFCmpLE;
          case ExprKind::kGT:
            return Op::kFCmpGT;
          default:
            return Op::kFCmpGE;
        }
    }

    /**
     * kAnd/kOr with short-circuit jumps: guards depend on the right
     * operand not executing when the left decides (e.g. a bounds
     * check before an indices load), exactly like the interpreter.
     */
    int
    compileShortCircuit(const BinaryNode *op)
    {
        bool is_and = op->kind == ExprKind::kAnd;
        int r = allocI();
        Mark m = mark();
        int a = evalI(op->a);
        int jshort = emit(is_and ? Op::kJumpIfZero : Op::kJumpIfNonZero,
                          a);
        restore(m);
        int b = evalI(op->b);
        emit(Op::kIBool, r, b);
        restore(m);
        int jend = emit(Op::kJump);
        patch(jshort, here());
        emit(Op::kIConst, r, 0, 0, 0, is_and ? 0 : 1);
        patch(jend, here());
        return r;
    }

    /** Select evaluates only the taken arm, like the interpreter. */
    int
    compileSelect(const SelectNode *op, bool flt)
    {
        int r = flt ? allocF() : allocI();
        Mark m = mark();
        int c = evalI(op->cond);
        int jelse = emit(Op::kJumpIfZero, c);
        restore(m);
        int t = flt ? evalF(op->trueValue) : evalI(op->trueValue);
        emit(flt ? Op::kFMov : Op::kIMov, r, t);
        restore(m);
        int jend = emit(Op::kJump);
        patch(jelse, here());
        int f = flt ? evalF(op->falseValue) : evalI(op->falseValue);
        emit(flt ? Op::kFMov : Op::kIMov, r, f);
        restore(m);
        patch(jend, here());
        return r;
    }

    /**
     * Flat element offset of an access. Stage III accesses carry one
     * index; multi-dimensional dense accesses compile the row-major
     * linearization (per-dimension extents evaluated at run time).
     */
    int
    compileOffset(const Buffer &buffer, const std::vector<Expr> &indices)
    {
        if (indices.size() == 1) {
            return evalI(indices[0]);
        }
        USER_CHECK(!buffer->isSparse())
            << "bytecode backend requires lowered (dense) buffer "
               "access for '"
            << buffer->name << "'; run sparse buffer lowering first";
        ICHECK_EQ(indices.size(), buffer->shape.size());
        Expr offset = indices[0];
        for (size_t d = 1; d < indices.size(); ++d) {
            offset = add(mul(offset, buffer->shape[d]), indices[d]);
        }
        return evalI(offset);
    }

    int
    compileCallI(const CallNode *op)
    {
        switch (op->op) {
          case Builtin::kLowerBound:
          case Builtin::kUpperBound: {
            ICHECK(op->bufferArg != nullptr);
            ICHECK_EQ(op->args.size(), 3u);
            int slot = slotFor(op->bufferArg);
            Mark m = mark();
            int lo = evalI(op->args[0]);
            int hi = evalI(op->args[1]);
            int val = evalI(op->args[2]);
            restore(m);
            int r = allocI();
            emit(op->op == Builtin::kLowerBound ? Op::kLowerBound
                                                : Op::kUpperBound,
                 r, slot, lo, hi, val);
            return r;
          }
          case Builtin::kAbs: {
            Mark m = mark();
            int a = evalI(op->args[0]);
            restore(m);
            int r = allocI();
            emit(Op::kIAbs, r, a);
            return r;
          }
          case Builtin::kAtomicAdd: {
            ICHECK(op->bufferArg != nullptr);
            ICHECK_EQ(op->args.size(), 2u);
            int slot = slotFor(op->bufferArg);
            Mark m = mark();
            int off = evalI(op->args[0]);
            int v = evalI(op->args[1]);
            restore(m);
            int r = allocI();
            emit(Op::kAtomicAddI, r, slot, off, v);
            return r;
          }
          default:
            USER_CHECK(false)
                << "cannot compile call in integer context in '"
                << func_->name << "'";
        }
        return 0;
    }

    int
    compileCallF(const CallNode *op)
    {
        switch (op->op) {
          case Builtin::kExp:
          case Builtin::kLog:
          case Builtin::kSqrt: {
            Mark m = mark();
            int a = evalF(op->args[0]);
            restore(m);
            int r = allocF();
            bool f32 = roundsToFloat32(op->dtype);
            Op code = op->op == Builtin::kExp
                          ? (f32 ? Op::kFExp32 : Op::kFExp)
                          : (op->op == Builtin::kLog
                                 ? (f32 ? Op::kFLog32 : Op::kFLog)
                                 : (f32 ? Op::kFSqrt32 : Op::kFSqrt));
            emit(code, r, a);
            return r;
          }
          case Builtin::kAbs: {
            Mark m = mark();
            int a = evalF(op->args[0]);
            restore(m);
            int r = allocF();
            emit(roundsToFloat32(op->dtype) ? Op::kFAbs32 : Op::kFAbs,
                 r, a);
            return r;
          }
          case Builtin::kAtomicAdd: {
            ICHECK(op->bufferArg != nullptr);
            ICHECK_EQ(op->args.size(), 2u);
            int slot = slotFor(op->bufferArg);
            Mark m = mark();
            int off = evalI(op->args[0]);
            int v = evalF(op->args[1]);
            restore(m);
            int r = allocF();
            emit(Op::kAtomicAddF, r, slot, off, v);
            return r;
          }
          default:
            USER_CHECK(false)
                << "cannot compile call in float context in '"
                << func_->name << "'";
        }
        return 0;
    }

    // -----------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------

    void
    compileStmt(const Stmt &s)
    {
        switch (s->kind) {
          case StmtKind::kBufferStore: {
            auto op = static_cast<const BufferStoreNode *>(s.get());
            Mark m = mark();
            // Value before indices, mirroring the interpreter's
            // evaluation order (observable when the value contains
            // an atomic update the indices then read).
            int slot = slotFor(op->buffer);
            if (op->buffer->dtype.isFloat()) {
                int v = evalF(op->value);
                int off = compileOffset(op->buffer, op->indices);
                emit(Op::kStoreF, v, slot, off);
            } else {
                int v = evalI(op->value);
                int off = compileOffset(op->buffer, op->indices);
                emit(Op::kStoreI, v, slot, off);
            }
            restore(m);
            break;
          }
          case StmtKind::kSeq: {
            auto op = static_cast<const SeqStmtNode *>(s.get());
            for (const auto &child : op->seq) {
                compileStmt(child);
            }
            break;
          }
          case StmtKind::kFor:
            compileFor(static_cast<const ForNode *>(s.get()));
            break;
          case StmtKind::kBlock: {
            auto op = static_cast<const BlockNode *>(s.get());
            if (op->init != nullptr) {
                // Fire the init only when every in-scope reduce var
                // is at zero; vars not in scope never veto (the
                // interpreter's scalars_.find miss).
                std::vector<int> skips;
                for (const auto &rv : op->reduceVars) {
                    auto it = vars_.find(rv.get());
                    if (it != vars_.end()) {
                        skips.push_back(emit(Op::kJumpIfNonZero,
                                             it->second.reg));
                    }
                }
                compileStmt(op->init);
                for (int pc : skips) {
                    patch(pc, here());
                }
            }
            compileStmt(op->body);
            break;
          }
          case StmtKind::kIfThenElse: {
            auto op = static_cast<const IfThenElseNode *>(s.get());
            Mark m = mark();
            int c = evalI(op->cond);
            int jelse = emit(Op::kJumpIfZero, c);
            restore(m);
            compileStmt(op->thenBody);
            if (op->elseBody != nullptr) {
                int jend = emit(Op::kJump);
                patch(jelse, here());
                compileStmt(op->elseBody);
                patch(jend, here());
            } else {
                patch(jelse, here());
            }
            break;
          }
          case StmtKind::kLetStmt: {
            auto op = static_cast<const LetStmtNode *>(s.get());
            Mark scope = mark();
            bool flt = isFloatExpr(op->value);
            int reg = flt ? allocF() : allocI();
            Mark m = mark();
            int v = flt ? evalF(op->value) : evalI(op->value);
            emit(flt ? Op::kFMov : Op::kIMov, reg, v);
            restore(m);
            vars_[op->letVar.get()] = VarInfo{flt, reg};
            compileStmt(op->body);
            vars_.erase(op->letVar.get());
            restore(scope);
            break;
          }
          case StmtKind::kAllocate: {
            auto op = static_cast<const AllocateNode *>(s.get());
            int slot = static_cast<int>(prog_.slots.size());
            SlotInfo info;
            info.name = op->buffer->name;
            info.isFloatClass = op->buffer->dtype.isFloat();
            info.isAlloc = true;
            info.allocKind = elemKindOfDtype(op->buffer->dtype);
            prog_.slots.push_back(info);
            Expr size = op->buffer->shape.empty()
                            ? intImm(1)
                            : op->buffer->shape[0];
            for (size_t d = 1; d < op->buffer->shape.size(); ++d) {
                size = mul(size, op->buffer->shape[d]);
            }
            Mark m = mark();
            int n = evalI(size);
            emit(Op::kAlloc, static_cast<int32_t>(info.allocKind),
                 slot, n);
            restore(m);
            slotOf_[op->buffer->data.get()] = slot;
            compileStmt(op->body);
            slotOf_.erase(op->buffer->data.get());
            break;
          }
          case StmtKind::kEvaluate: {
            auto op = static_cast<const EvaluateNode *>(s.get());
            Mark m = mark();
            if (isFloatExpr(op->value)) {
                evalF(op->value);
            } else {
                evalI(op->value);
            }
            restore(m);
            break;
          }
          case StmtKind::kSparseIteration:
            USER_CHECK(false)
                << "cannot interpret Stage I sparse iteration '"
                << static_cast<const SparseIterationNode *>(s.get())
                       ->name
                << "'; lower the function first";
            break;
          default:
            ICHECK(false) << "unhandled stmt kind";
        }
    }

    void
    compileFor(const ForNode *op)
    {
        Mark scope = mark();
        int rvar = allocI();
        int rhi = allocI();
        Mark m = mark();
        int rmin = evalI(op->minValue);
        int rext = evalI(op->extent);
        if (op == blockLoop_) {
            prog_.blockWindowPc =
                emit(Op::kBlockWindow, rvar, rhi, rmin, rext);
        } else {
            emit(Op::kIMov, rvar, rmin);
            emit(Op::kIAdd, rhi, rmin, rext);
        }
        restore(m);
        vars_[op->loopVar.get()] = VarInfo{false, rvar};
        int head = here();
        int jexit = emit(Op::kBranchGE, rvar, rhi);
        compileStmt(op->body);
        emit(Op::kIAddImm, rvar, rvar, 0, 0, 1);
        emit(Op::kJump, 0, 0, 0, 0, head);
        patch(jexit, here());
        vars_.erase(op->loopVar.get());
        restore(scope);
    }

    PrimFunc func_;
    Program prog_;
    /** All scalar params in signature order; used ones publish. */
    std::vector<ScalarParam> scalars_;
    std::unordered_map<const VarNode *, size_t> scalarParamIndex_;
    std::vector<bool> scalarUsed_;
    std::unordered_map<int64_t, int> ipool_;
    std::vector<int64_t> ipoolValues_;
    std::unordered_map<int64_t, int> fpool_;
    std::vector<int64_t> fpoolValues_;
    std::unordered_map<const VarNode *, VarInfo> vars_;
    /** Buffer data var -> slot (params + in-scope allocations). */
    std::unordered_map<const VarNode *, int> slotOf_;
    const ForNode *blockLoop_ = nullptr;
    int iTop_ = 0;
    int fTop_ = 0;
    int iMax_ = 0;
    int fMax_ = 0;
};

} // namespace

std::shared_ptr<const Program>
compile(const ir::PrimFunc &func)
{
    std::string diag = transform::stage3ExecDiagnostic(func);
    USER_CHECK(diag.empty())
        << "cannot compile '" << func->name << "' to bytecode: "
        << diag;
    Compiler compiler(func);
    return compiler.run();
}

namespace {

/** Memo value; the guard detects node-address reuse after free. */
struct MemoEntry
{
    std::weak_ptr<ir::PrimFuncNode> guard;
    std::shared_ptr<const Program> program;
};

std::mutex memo_mu;
std::unordered_map<const ir::PrimFuncNode *, MemoEntry> memo_map;

} // namespace

std::shared_ptr<const Program>
programFor(const ir::PrimFunc &func)
{
    {
        std::lock_guard<std::mutex> lock(memo_mu);
        auto it = memo_map.find(func.get());
        if (it != memo_map.end()) {
            if (it->second.guard.lock().get() == func.get()) {
                return it->second.program;
            }
            memo_map.erase(it);
        }
    }
    std::shared_ptr<const Program> program;
    try {
        SPARSETIR_TRACE_SCOPE("compile", "bytecode.compile");
        program = compile(func);
    } catch (const UserError &) {
        // The designed not-compilable path (stage3ExecDiagnostic):
        // remembered; callers use the interpreter. InternalError is
        // a compiler bug and propagates — silently interpreting
        // would hide it behind correct-but-slow results.
        program = nullptr;
    }
    std::lock_guard<std::mutex> lock(memo_mu);
    if (memo_map.size() > 1024) {
        // Sweep entries whose function has been freed.
        for (auto it = memo_map.begin(); it != memo_map.end();) {
            it = it->second.guard.expired() ? memo_map.erase(it)
                                            : std::next(it);
        }
    }
    memo_map[func.get()] = MemoEntry{func, program};
    return program;
}

} // namespace bytecode
} // namespace runtime
} // namespace sparsetir
