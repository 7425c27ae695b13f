#include "runtime/native/c_emitter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/expr.h"
#include "ir/functor.h"
#include "ir/stmt.h"
#include "runtime/bytecode/program.h"
#include "runtime/interpreter.h"
#include "runtime/native/abi.h"
#include "support/logging.h"
#include "transform/lower_sparse_buffer.h"

namespace sparsetir {
namespace runtime {
namespace native {

using namespace ir;

namespace {

/**
 * Fixed preamble of every emitted translation unit: the ABI structs
 * (textually identical to abi.h — keep in sync), fault codes, and the
 * runtime helpers that mirror the bytecode VM's slot resolution,
 * typed load/store, binary search, atomic read-modify-write and
 * scratch allocation. Helpers return a fault code (0 = ok) and record
 * (slot, offset) in the context; the host turns codes back into the
 * VM's diagnostics.
 *
 * The fast path sits in front of the helpers: st_view hoists one
 * typed view per slot out of the loops, and ST_LD/ST_ST make each
 * access a single compare plus a typed load or store, calling the
 * helper for every offset outside the view. The helper then returns
 * the same value or raises the same fault, so no check is dropped.
 * A proven kernel (KernelProof) indexes its views directly instead,
 * behind one entry guard that returns ST_UNPROVEN.
 *
 * A kernel body names its slots and scalars by kernel-local index and
 * reads every per-kernel constant that does not come from the IR
 * (slot numbers, the guard's fixed scalars and extents) from a
 * StTable, so kernels that differ only in those share one body.
 */
const char kPreamble[] = R"(#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    unsigned char *base;
    int64_t numel;
    int32_t kind;
    int32_t ebytes;
    int32_t bound;
} StSlot;

typedef struct {
    StSlot *slots;
    const int64_t *scalars;
    int64_t block_begin;
    int64_t block_end;
    int32_t fault_slot;
    int64_t fault_offset;
} StCtx;

#define ST_OK 0
#define ST_FAULT_ACCESS 1
#define ST_FAULT_DIV0 3
#define ST_FAULT_CLASS 4
#define ST_FAULT_SEARCH 5
#define ST_FAULT_NEGALLOC 6
#define ST_FAULT_OOM 7
#define ST_UNPROVEN 8

#define ST_KF32 0
#define ST_KF64 1
#define ST_KI8 2
#define ST_KI16 3
#define ST_KI32 4
#define ST_KI64 5
#define ST_KBOOL 6

#define ST_CALL(e) do { int32_t st_rc_ = (e); if (st_rc_) return st_rc_; } while (0)

static int32_t st_fault(StCtx *ctx, int32_t code, int32_t slot, int64_t offset) {
    ctx->fault_slot = slot;
    ctx->fault_offset = offset;
    return code;
}

/* Floor division toward negative infinity; callers guard divisor != 0. */
static int64_t st_floordiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b) != 0 && ((a < 0) != (b < 0))) { --q; }
    return q;
}

/* Bounds-check an access; mirrors the VM's slotAt. */
static int32_t st_resolve(StCtx *ctx, int32_t slot, int64_t off) {
    if ((uint64_t)off >= (uint64_t)ctx->slots[slot].numel) {
        return st_fault(ctx, ST_FAULT_ACCESS, slot, off);
    }
    return ST_OK;
}

static int32_t st_ld_i(StCtx *ctx, int32_t slot, int64_t off, int64_t *out) {
    ST_CALL(st_resolve(ctx, slot, off));
    const StSlot *s = &ctx->slots[slot];
    const unsigned char *p = s->base + (uint64_t)off * (uint64_t)s->ebytes;
    switch (s->kind) {
      case ST_KI32: { int32_t v; memcpy(&v, p, 4); *out = v; return ST_OK; }
      case ST_KI64: { int64_t v; memcpy(&v, p, 8); *out = v; return ST_OK; }
      case ST_KI16: { int16_t v; memcpy(&v, p, 2); *out = v; return ST_OK; }
      case ST_KI8: { int8_t v; memcpy(&v, p, 1); *out = v; return ST_OK; }
      case ST_KBOOL: *out = *p != 0; return ST_OK;
      default: return st_fault(ctx, ST_FAULT_CLASS, slot, off);
    }
}

static int32_t st_st_i(StCtx *ctx, int32_t slot, int64_t off, int64_t value) {
    ST_CALL(st_resolve(ctx, slot, off));
    const StSlot *s = &ctx->slots[slot];
    unsigned char *p = s->base + (uint64_t)off * (uint64_t)s->ebytes;
    switch (s->kind) {
      case ST_KI32: { int32_t v = (int32_t)value; memcpy(p, &v, 4); return ST_OK; }
      case ST_KI64: memcpy(p, &value, 8); return ST_OK;
      case ST_KI16: { int16_t v = (int16_t)value; memcpy(p, &v, 2); return ST_OK; }
      case ST_KI8: { int8_t v = (int8_t)value; memcpy(p, &v, 1); return ST_OK; }
      case ST_KBOOL: *p = value != 0 ? 1 : 0; return ST_OK;
      default: return st_fault(ctx, ST_FAULT_CLASS, slot, off);
    }
}

static int32_t st_ld_f(StCtx *ctx, int32_t slot, int64_t off, double *out) {
    ST_CALL(st_resolve(ctx, slot, off));
    const StSlot *s = &ctx->slots[slot];
    const unsigned char *p = s->base + (uint64_t)off * (uint64_t)s->ebytes;
    if (s->kind == ST_KF32) { float v; memcpy(&v, p, 4); *out = v; return ST_OK; }
    if (s->kind == ST_KF64) { memcpy(out, p, 8); return ST_OK; }
    return st_fault(ctx, ST_FAULT_CLASS, slot, off);
}

static int32_t st_st_f(StCtx *ctx, int32_t slot, int64_t off, double value) {
    ST_CALL(st_resolve(ctx, slot, off));
    const StSlot *s = &ctx->slots[slot];
    unsigned char *p = s->base + (uint64_t)off * (uint64_t)s->ebytes;
    if (s->kind == ST_KF32) {
        /* Round to storage width, like the VM and NDArray::setFloat. */
        float v = (float)value;
        memcpy(p, &v, 4);
        return ST_OK;
    }
    if (s->kind == ST_KF64) { memcpy(p, &value, 8); return ST_OK; }
    return st_fault(ctx, ST_FAULT_CLASS, slot, off);
}

static int32_t st_search(StCtx *ctx, int32_t slot, int64_t lo, int64_t hi,
                         int64_t val, int32_t upper, int64_t *out) {
    const StSlot *s = &ctx->slots[slot];
    if (!s->bound) { return st_fault(ctx, ST_FAULT_ACCESS, slot, 0); }
    if (lo < 0 || hi > s->numel) {
        return st_fault(ctx, ST_FAULT_SEARCH, slot, lo < 0 ? lo : hi);
    }
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        int64_t elem;
        ST_CALL(st_ld_i(ctx, slot, mid, &elem));
        int32_t go_right = upper ? (elem <= val) : (elem < val);
        if (go_right) { lo = mid + 1; } else { hi = mid; }
    }
    *out = lo;
    return ST_OK;
}

static int32_t st_atomic_i(StCtx *ctx, int32_t slot, int64_t off, int64_t add,
                           int64_t *out) {
    int64_t old;
    ST_CALL(st_ld_i(ctx, slot, off, &old));
    ST_CALL(st_st_i(ctx, slot, off, old + add));
    *out = old;
    return ST_OK;
}

static int32_t st_atomic_f(StCtx *ctx, int32_t slot, int64_t off, double add,
                           double *out) {
    double old;
    ST_CALL(st_ld_f(ctx, slot, off, &old));
    ST_CALL(st_st_f(ctx, slot, off, old + add));
    *out = old;
    return ST_OK;
}

/* (Re)allocate a scratch slot, zero-filled (kAlloc semantics). */
static int32_t st_alloc(StCtx *ctx, int32_t slot, int64_t n, int32_t kind,
                        int32_t ebytes) {
    StSlot *s = &ctx->slots[slot];
    if (n < 0) { return st_fault(ctx, ST_FAULT_NEGALLOC, slot, n); }
    free(s->base);
    s->base = (unsigned char *)calloc(n > 0 ? (size_t)n : 1, (size_t)ebytes);
    if (s->base == NULL) { return st_fault(ctx, ST_FAULT_OOM, slot, n); }
    s->numel = n;
    s->kind = kind;
    s->ebytes = ebytes;
    s->bound = 1;
    return ST_OK;
}

/* A slot's typed storage as seen by one emitted element kind. */
typedef struct {
    void *p;
    int64_t len;
} StView;

/* Typed view of a slot, hoisted out of the loops: offsets in
   [0, len) address p[off] and pass every check st_resolve would make.
   len is 0 (every access takes the checked helper) for unbound slots
   and bound arrays whose kind differs from the emitted one. */
static StView st_view(const StCtx *ctx, int32_t slot, int32_t kind) {
    const StSlot *s = &ctx->slots[slot];
    StView v = {s->base, 0};
    if (s->bound && s->kind == kind) { v.len = s->numel; }
    return v;
}

/* Metadata of a stack scratch slot, set once at entry. Its storage
   lives in the kernel's frame (base stays NULL) and its view covers
   every in-range offset, so only faulting accesses reach the helpers,
   which then report this numel. */
static void st_stack(StCtx *ctx, int32_t slot, int64_t n, int32_t kind,
                     int32_t ebytes) {
    StSlot *s = &ctx->slots[slot];
    s->numel = n;
    s->kind = kind;
    s->ebytes = ebytes;
    s->bound = 1;
}

/* Per-entry constants of a shared kernel body: the module slot of each
   kernel-local slot, and the proof guard's fixed scalar values and
   extents in the order the body checks them. */
typedef struct {
    const int32_t *slot;
    const int64_t *guard;
} StTable;

/* Checked access through a view: one unsigned compare, then either a
   typed load/store or the slot's helper, which returns the same value
   or raises the same fault the helper-only code would. */
#define ST_LD(w, T, helper, slot, off, out) do { \
        uint64_t st_o_ = (uint64_t)(off); \
        if (st_o_ < (uint64_t)(w).len) { (out) = ((const T *)(w).p)[st_o_]; } \
        else { ST_CALL(helper(ctx, (slot), (off), &(out))); } \
    } while (0)
#define ST_ST(w, T, helper, slot, off, val) do { \
        uint64_t st_o_ = (uint64_t)(off); \
        if (st_o_ < (uint64_t)(w).len) { ((T *)(w).p)[st_o_] = (T)(val); } \
        else { ST_CALL(helper(ctx, (slot), (off), (val))); } \
    } while (0)

)";

/** `text` escaped for a C string literal (the meta string carries
 *  the user's compiler command verbatim). */
std::string
cStringBody(const std::string &text)
{
    std::string out;
    for (unsigned char c : text) {
        if (c == '\\' || c == '"' || c == '?') {
            out += '\\';
            out += static_cast<char>(c);
        } else if (c < 0x20 || c >= 0x7f) {
            char buf[5];
            std::snprintf(buf, sizeof(buf), "\\%03o", c);
            out += buf;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out;
}

/** A C integer literal of `value`: int64 values spelled INT64_C(...),
 *  int (slot number) values plain. */
std::string
intLiteral(int64_t value)
{
    if (value == INT64_MIN) {
        return "(-INT64_C(9223372036854775807) - 1)";
    }
    return "INT64_C(" + std::to_string(value) + ")";
}

std::string
intLiteral(int value)
{
    return std::to_string(value);
}

/** Whether `var` occurs in `expr`. */
bool
usesVar(const Expr &expr, const VarNode *var)
{
    struct Find : ExprVisitor
    {
        const VarNode *var = nullptr;
        bool found = false;

        void
        visitVar(const VarNode *op) override
        {
            found = found || op == var;
        }
    } find;
    find.var = var;
    find.visitExpr(expr);
    return find.found;
}

/** One kernel's StTable entries (see the preamble). */
struct KernelTable
{
    std::vector<int> slot;
    std::vector<int64_t> guard;
};

/** Define the C array `name` of `values` in `defs` and return its name,
 *  or "0" (no array) when empty: C has no zero-length arrays. */
template <typename T>
std::string
cArray(const char *type, const std::string &name,
       const std::vector<T> &values, std::string *defs)
{
    if (values.empty()) {
        return "0";
    }
    *defs += std::string("static const ") + type + " " + name + "[] = {";
    for (size_t i = 0; i < values.size(); ++i) {
        *defs += (i == 0 ? "" : ", ") + intLiteral(values[i]);
    }
    *defs += "};\n";
    return name;
}

/**
 * Stage III -> C translator for one function. Statement-oriented
 * emission: every non-leaf subexpression lands in its own named
 * int64_t/float/double temporary, in the interpreter's left-to-right
 * evaluation order — C's unspecified operand order can then never
 * reorder faults or atomic side effects. Short-circuit And/Or and
 * one-armed Select compile to if/else over temporaries. The typing
 * mirrors the bytecode compiler's isFloatExpr exactly; a float32 op
 * (runtime::roundsToFloat32) computes in `float` when both operands
 * are exact float32 values (isF32Expr) and rounds a double result to
 * `float` otherwise, which is the interpreter's value either way.
 *
 * Buffer accesses go through typed views whose element type is the
 * buffer's dtype, known here; atomics, binary searches and bool
 * buffers stay on the helpers alone. Constant-size scratch (at most
 * 1024 elements) is a zeroed stack array instead of a calloc. With a
 * proof, view accesses index the storage directly (see KernelProof).
 */
class Emitter
{
  public:
    Emitter(const PrimFunc &func, const KernelProof *proof)
        : func_(func), proof_(proof)
    {}

    /**
     * The kernel's metadata; `body` receives the statements of its
     * shared body function, `table` its StTable entries.
     */
    EmitResult
    run(std::string *body, KernelTable *table)
    {
        for (const auto &param : func_->params) {
            if (param->dtype.isHandle()) {
                int slot = static_cast<int>(slotNames_.size());
                slotNames_.push_back(param->name);
                slotOf_[param.get()] = slot;
            } else {
                scalarIndex_[param.get()] = scalars_.size();
                scalars_.push_back(param->name);
                // An int; varTok names it by kernel-local index.
                vars_[param.get()] = CVar{false, ""};
            }
        }
        numParamSlots_ = static_cast<int>(slotNames_.size());
        paramUsed_.assign(slotNames_.size(), false);
        blockLoop_ = findBlockIdxLoop(func_->body);
        proven_ = proof_ != nullptr && provenExtents();
        indent_ = 1;
        if (func_->body != nullptr) {
            emitStmt(func_->body);
        }

        EmitResult result;
        result.name = func_->name;
        result.slotNames = slotNames_;
        result.numParamSlots = numParamSlots_;
        for (int slot = 0; slot < numParamSlots_; ++slot) {
            if (paramUsed_[slot]) {
                result.usedParamSlots.push_back(slot);
            }
        }
        result.hasWindow = blockLoop_ != nullptr;
        result.proven = proven_;

        std::string decls;
        for (size_t local = 0; local < scalarOrder_.size(); ++local) {
            decls += "    const int64_t s" + std::to_string(local) +
                     " = ctx->scalars[" + std::to_string(local) + "];\n";
            result.scalarNames.push_back(scalars_[scalarOrder_[local]]);
        }
        for (const auto &[local, kind] : paramViews_) {
            decls += "    const StView " + viewName(local, kind) +
                     " = st_view(ctx, tb->slot[" + std::to_string(local) +
                     "], " + kindToken(kind) + ");\n";
        }
        if (proven_) {
            decls += entryGuard(&table->guard);
        }
        decls += stackMeta_;

        *body = "    (void)ctx;\n    (void)tb;\n" + decls + body_ +
                "    return ST_OK;\n";
        table->slot = slotTable_;
        return result;
    }

  private:
    struct CVar
    {
        bool isFloat = false;
        std::string name;
        /** A C float (see isF32Expr); else double or int64_t. */
        bool isF32 = false;
    };

    // -----------------------------------------------------------------
    // Emission plumbing
    // -----------------------------------------------------------------

    void
    line(const std::string &text)
    {
        body_.append(static_cast<size_t>(indent_) * 4, ' ');
        body_ += text;
        body_ += '\n';
    }

    std::string
    tmp()
    {
        return "t" + std::to_string(tmpCount_++);
    }

    /** Kernel-local index of module slot `slot`, in first-use order:
     *  the body's name for it, mapped back through StTable::slot. */
    int
    local(int slot)
    {
        auto [it, added] = localSlot_.emplace(
            slot, static_cast<int>(slotTable_.size()));
        if (added) {
            slotTable_.push_back(slot);
        }
        return it->second;
    }

    std::string
    slotTok(int slot)
    {
        return "tb->slot[" + std::to_string(local(slot)) + "]";
    }

    /** Exact hex literal of `value`; a float constant with `f32`. */
    std::string
    floatLiteral(double value, bool f32) const
    {
        USER_CHECK(std::isfinite(value))
            << "non-finite float constant not compilable to native "
               "code in '"
            << func_->name << "'";
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%a", value);
        return "(" + std::string(buf) + (f32 ? "f)" : ")");
    }

    /** Variable token, recording scalar-param usage (lazy binding):
     *  scalars are named by kernel-local index, in first-use order. */
    std::string
    varTok(const VarNode *var)
    {
        auto scalar = scalarIndex_.find(var);
        if (scalar != scalarIndex_.end()) {
            auto pos = std::find(scalarOrder_.begin(), scalarOrder_.end(),
                                 scalar->second);
            if (pos == scalarOrder_.end()) {
                pos = scalarOrder_.insert(pos, scalar->second);
            }
            return "s" + std::to_string(pos - scalarOrder_.begin());
        }
        auto it = vars_.find(var);
        ICHECK(it != vars_.end())
            << "unbound variable '" << var->name << "'";
        return it->second.name;
    }

    /** Slot of an accessed buffer, recording parameter-slot usage
     *  (lazy binding). */
    int
    slotFor(const Buffer &buffer)
    {
        auto it = slotOf_.find(buffer->data.get());
        ICHECK(it != slotOf_.end())
            << "no storage bound for buffer '" << buffer->name << "'";
        if (it->second < numParamSlots_) {
            paramUsed_[it->second] = true;
        }
        return it->second;
    }

    // -----------------------------------------------------------------
    // Proof guard
    // -----------------------------------------------------------------

    /**
     * Declared element extent of every (parameter slot, kind) the body
     * loads or stores through a view, evaluated on the proof's fixed
     * scalars, into guardExtent_. False when an extent does not
     * evaluate there: the kernel then keeps its checks.
     */
    bool
    provenExtents()
    {
        Bindings fixed;
        fixed.scalars.insert(proof_->scalars.begin(),
                             proof_->scalars.end());
        struct Accesses : StmtVisitor
        {
            std::vector<Buffer> buffers;

            void
            visitBufferLoad(const BufferLoadNode *op) override
            {
                buffers.push_back(op->buffer);
                StmtVisitor::visitBufferLoad(op);
            }

            void
            visitBufferStore(const BufferStoreNode *op) override
            {
                buffers.push_back(op->buffer);
                StmtVisitor::visitBufferStore(op);
            }
        } scan;
        if (func_->body != nullptr) {
            scan.visitStmt(func_->body);
        }
        for (const Buffer &buffer : scan.buffers) {
            auto slot = slotOf_.find(buffer->data.get());
            bytecode::ElemKind kind =
                bytecode::elemKindOfDtype(buffer->dtype);
            if (slot == slotOf_.end() ||
                kind == bytecode::ElemKind::kBool) {
                continue;  // scratch, or helper-only bool storage
            }
            // 0 <= idx_d < dim_d was proven per dimension, so a
            // dimension <= 0 leaves the buffer's accesses unreachable.
            int64_t extent = 1;
            for (size_t d = 0; d < buffer->ndim() && extent > 0; ++d) {
                int64_t dim = 0;
                if (!evalScalarExtent(buffer->dimExtent(d), fixed, &dim) ||
                    __builtin_mul_overflow(extent, std::max<int64_t>(dim, 0),
                                           &extent)) {
                    return false;
                }
            }
            int64_t &need = guardExtent_[{slot->second, kind}];
            need = std::max(need, extent);
        }
        return true;
    }

    /**
     * The proven kernel's entry guard (see KernelProof). Its fixed
     * scalar values and extents go to `values`, in check order; the
     * guard reads them from StTable::guard.
     */
    std::string
    entryGuard(std::vector<int64_t> *values) const
    {
        std::string cond;
        auto disjoin = [&](const std::string &term, int64_t value) {
            cond += (cond.empty() ? "" : " || ") + term + "tb->guard[" +
                    std::to_string(values->size()) + "]";
            values->push_back(value);
        };
        for (size_t local = 0; local < scalarOrder_.size(); ++local) {
            auto fact = proof_->scalars.find(scalars_[scalarOrder_[local]]);
            if (fact != proof_->scalars.end()) {
                disjoin("s" + std::to_string(local) + " != ", fact->second);
            }
        }
        for (const auto &[local, kind] : paramViews_) {
            disjoin(viewName(local, kind) + ".len < ",
                    guardExtent_.at({slotTable_[local], kind}));
        }
        return cond.empty() ? ""
                            : "    if (" + cond +
                                  ") { return ST_UNPROVEN; }\n";
    }

    // -----------------------------------------------------------------
    // Static typing (identical to the bytecode compiler's)
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
            // `/` always computes in float, like the interpreter.
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
                USER_CHECK(false) << "cannot compile extern call '"
                                  << op->name << "' to native code";
            }
            return false;
          }
          default:
            USER_CHECK(false) << "expression kind not compilable to "
                                 "native code in '"
                              << func_->name << "'";
        }
        return false;
    }

    /**
     * Whether emitF's token for float expression `e` is a C `float`:
     * the result of a float32 op, a float32 literal, a direct load of
     * float32 storage, or a let or select of such values. Every other
     * float token is a `double`.
     */
    bool
    isF32Expr(const Expr &e)
    {
        switch (e->kind) {
          case ExprKind::kFloatImm: {
            double v = static_cast<const FloatImmNode *>(e.get())->value;
            return std::isfinite(v) &&
                   static_cast<double>(static_cast<float>(v)) == v;
          }
          case ExprKind::kVar: {
            auto it = vars_.find(static_cast<const VarNode *>(e.get()));
            return it != vars_.end() && it->second.isF32;
          }
          case ExprKind::kAdd:
          case ExprKind::kSub:
          case ExprKind::kMul:
          case ExprKind::kDiv:
          case ExprKind::kMin:
          case ExprKind::kMax:
            return isFloatExpr(e) && roundsToFloat32(e->dtype);
          case ExprKind::kCast:
            return roundsToFloat32(e->dtype);
          case ExprKind::kSelect: {
            auto op = static_cast<const SelectNode *>(e.get());
            return isF32Expr(op->trueValue) && isF32Expr(op->falseValue);
          }
          case ExprKind::kBufferLoad: {
            auto op = static_cast<const BufferLoadNode *>(e.get());
            bytecode::ElemKind kind =
                bytecode::elemKindOfDtype(op->buffer->dtype);
            return kind == bytecode::ElemKind::kF32 &&
                   direct(slotFor(op->buffer), kind);
          }
          case ExprKind::kCall: {
            auto op = static_cast<const CallNode *>(e.get());
            switch (op->op) {
              case Builtin::kExp:
              case Builtin::kLog:
              case Builtin::kSqrt:
                return roundsToFloat32(op->dtype);
              case Builtin::kAbs:
                return isFloatExpr(op->args[0]) &&
                       roundsToFloat32(op->dtype);
              default:
                return false;
            }
          }
          default:
            return false;
        }
    }

    // -----------------------------------------------------------------
    // Expressions. emitI returns a C token (temp name, variable or
    // literal) of type int64_t, emitF one of type float (isF32Expr)
    // or double.
    // -----------------------------------------------------------------

    std::string
    emitI(const Expr &e)
    {
        if (isFloatExpr(e)) {
            std::string f = emitF(e);
            std::string t = tmp();
            // C truncation, the VM's kCastFI.
            line("int64_t " + t + " = (int64_t)" + f + ";");
            return t;
        }
        switch (e->kind) {
          case ExprKind::kIntImm:
            return intLiteral(
                static_cast<const IntImmNode *>(e.get())->value);
          case ExprKind::kVar:
            return varTok(static_cast<const VarNode *>(e.get()));
          case ExprKind::kNot: {
            std::string a =
                emitI(static_cast<const NotNode *>(e.get())->a);
            std::string t = tmp();
            line("int64_t " + t + " = (" + a + " == 0) ? 1 : 0;");
            return t;
          }
          case ExprKind::kSelect:
            return emitSelect(static_cast<const SelectNode *>(e.get()),
                              false);
          case ExprKind::kCast:
            // Int-targeted cast of an int value is the identity;
            // float sources took the conversion path above.
            return emitI(static_cast<const CastNode *>(e.get())->value);
          case ExprKind::kBufferLoad:
            return emitLoad(static_cast<const BufferLoadNode *>(e.get()));
          case ExprKind::kCall:
            return emitCallI(static_cast<const CallNode *>(e.get()));
          case ExprKind::kAnd:
          case ExprKind::kOr:
            return emitShortCircuit(
                static_cast<const BinaryNode *>(e.get()));
          case ExprKind::kEQ:
          case ExprKind::kNE:
          case ExprKind::kLT:
          case ExprKind::kLE:
          case ExprKind::kGT:
          case ExprKind::kGE:
            return emitCompare(
                static_cast<const BinaryNode *>(e.get()));
          case ExprKind::kAdd:
          case ExprKind::kSub:
          case ExprKind::kMul:
          case ExprKind::kMin:
          case ExprKind::kMax: {
            auto op = static_cast<const BinaryNode *>(e.get());
            std::string a = emitI(op->a);
            std::string b = emitI(op->b);
            std::string t = tmp();
            line("int64_t " + t + " = " + intArith(e->kind, a, b) +
                 ";");
            return t;
          }
          case ExprKind::kFloorDiv:
          case ExprKind::kFloorMod: {
            auto op = static_cast<const BinaryNode *>(e.get());
            std::string a = emitI(op->a);
            int64_t divisor = 0;
            if (tryConstInt(op->b, &divisor) && divisor > 0 &&
                (divisor & (divisor - 1)) == 0) {
                // By 2^k: an arithmetic shift and a mask are floor
                // division and modulo for every int64 a.
                std::string t = tmp();
                line("int64_t " + t + " = " + a +
                     (e->kind == ExprKind::kFloorDiv
                          ? " >> " + std::to_string(__builtin_ctzll(
                                         static_cast<uint64_t>(divisor)))
                          : " & " + intLiteral(divisor - 1)) +
                     ";");
                return t;
            }
            std::string b = emitI(op->b);
            line("if (" + b + " == 0) { return st_fault(ctx, "
                 "ST_FAULT_DIV0, -1, 0); }");
            std::string t = tmp();
            if (e->kind == ExprKind::kFloorDiv) {
                line("int64_t " + t + " = st_floordiv(" + a + ", " +
                     b + ");");
            } else {
                line("int64_t " + t + " = " + a + " - st_floordiv(" +
                     a + ", " + b + ") * " + b + ";");
            }
            return t;
          }
          default:
            USER_CHECK(false) << "expression kind not compilable to "
                                 "native code in '"
                              << func_->name << "'";
        }
        return "0";
    }

    std::string
    emitF(const Expr &e)
    {
        if (!isFloatExpr(e)) {
            std::string i = emitI(e);
            std::string t = tmp();
            line("double " + t + " = (double)" + i + ";");
            return t;
        }
        switch (e->kind) {
          case ExprKind::kFloatImm:
            // A float32-exact literal is a float constant, same value.
            return floatLiteral(
                static_cast<const FloatImmNode *>(e.get())->value,
                isF32Expr(e));
          case ExprKind::kVar:
            return varTok(static_cast<const VarNode *>(e.get()));
          case ExprKind::kSelect:
            return emitSelect(static_cast<const SelectNode *>(e.get()),
                              true);
          case ExprKind::kCast: {
            // Float-targeted cast: int sources convert to double in
            // emitF; a float32 cast rounds, a float64 one widens.
            auto op = static_cast<const CastNode *>(e.get());
            std::string v = emitF(op->value);
            bool f32 = roundsToFloat32(op->dtype);
            if (f32 == isF32Expr(op->value)) {
                return v;
            }
            std::string t = tmp();
            line(std::string(f32 ? "float " : "double ") + t + " = (" +
                 (f32 ? "float" : "double") + ")" + v + ";");
            return t;
          }
          case ExprKind::kBufferLoad:
            return emitLoad(static_cast<const BufferLoadNode *>(e.get()));
          case ExprKind::kCall:
            return emitCallF(static_cast<const CallNode *>(e.get()));
          case ExprKind::kAdd:
          case ExprKind::kSub:
          case ExprKind::kMul:
          case ExprKind::kDiv:
          case ExprKind::kMin:
          case ExprKind::kMax: {
            auto op = static_cast<const BinaryNode *>(e.get());
            std::string a = emitF(op->a);
            std::string b = emitF(op->b);
            bool f32_operands = isF32Expr(op->a) && isF32Expr(op->b);
            std::string t = tmp();
            if (roundsToFloat32(e->dtype)) {
                // Two float32 operands: C float arithmetic, correctly
                // rounded. Otherwise C promotes to double, and the
                // cast rounds once, as the interpreter does.
                std::string v = floatArith(e->kind, a, b);
                line("float " + t + " = " +
                     (f32_operands ? v : "(float)(" + v + ")") + ";");
            } else {
                // A float pair must not compute in float.
                line("double " + t + " = " +
                     floatArith(e->kind,
                                f32_operands ? "(double)" + a : a, b) +
                     ";");
            }
            return t;
          }
          default:
            USER_CHECK(false) << "expression kind not compilable to "
                                 "native code in '"
                              << func_->name << "'";
        }
        return "0";
    }

    static std::string
    intArith(ExprKind kind, const std::string &a, const std::string &b)
    {
        switch (kind) {
          case ExprKind::kAdd:
            return a + " + " + b;
          case ExprKind::kSub:
            return a + " - " + b;
          case ExprKind::kMul:
            return a + " * " + b;
          case ExprKind::kMin:
            return "(" + b + " < " + a + ") ? " + b + " : " + a;
          default:  // kMax
            return "(" + a + " < " + b + ") ? " + b + " : " + a;
        }
    }

    /**
     * Float min/max spelled exactly as std::min/std::max resolve, so
     * NaN propagation and signed-zero selection are bitwise the
     * interpreter's.
     */
    static std::string
    floatArith(ExprKind kind, const std::string &a,
               const std::string &b)
    {
        switch (kind) {
          case ExprKind::kAdd:
            return a + " + " + b;
          case ExprKind::kSub:
            return a + " - " + b;
          case ExprKind::kMul:
            return a + " * " + b;
          case ExprKind::kDiv:
            return a + " / " + b;
          case ExprKind::kMin:
            return "(" + b + " < " + a + ") ? " + b + " : " + a;
          default:  // kMax
            return "(" + a + " < " + b + ") ? " + b + " : " + a;
        }
    }

    static const char *
    cmpOp(ExprKind kind)
    {
        switch (kind) {
          case ExprKind::kEQ:
            return "==";
          case ExprKind::kNE:
            return "!=";
          case ExprKind::kLT:
            return "<";
          case ExprKind::kLE:
            return "<=";
          case ExprKind::kGT:
            return ">";
          default:
            return ">=";
        }
    }

    /** EQ..GE with the interpreter's float promotion; result int. */
    std::string
    emitCompare(const BinaryNode *op)
    {
        bool flt = isFloatExpr(op->a) || isFloatExpr(op->b);
        std::string a = flt ? emitF(op->a) : emitI(op->a);
        std::string b = flt ? emitF(op->b) : emitI(op->b);
        std::string t = tmp();
        line("int64_t " + t + " = (" + a + " " + cmpOp(op->kind) +
             " " + b + ") ? 1 : 0;");
        return t;
    }

    /** kAnd/kOr: the right operand must not execute when the left
     *  decides, exactly like the interpreter. */
    std::string
    emitShortCircuit(const BinaryNode *op)
    {
        bool is_and = op->kind == ExprKind::kAnd;
        std::string t = tmp();
        line("int64_t " + t + " = " + (is_and ? "0" : "1") + ";");
        std::string a = emitI(op->a);
        line("if (" + a + (is_and ? " != 0" : " == 0") + ") {");
        ++indent_;
        std::string b = emitI(op->b);
        line(t + " = (" + b + " != 0) ? 1 : 0;");
        --indent_;
        line("}");
        return t;
    }

    /** Select evaluates only the taken arm, like the interpreter. */
    std::string
    emitSelect(const SelectNode *op, bool flt)
    {
        std::string t = tmp();
        const char *type =
            !flt ? "int64_t "
                 : (isF32Expr(op->trueValue) && isF32Expr(op->falseValue)
                        ? "float "
                        : "double ");
        line(type + t + " = 0;");
        std::string c = emitI(op->cond);
        line("if (" + c + " != 0) {");
        ++indent_;
        std::string tv = flt ? emitF(op->trueValue)
                             : emitI(op->trueValue);
        line(t + " = " + tv + ";");
        --indent_;
        line("} else {");
        ++indent_;
        std::string fv = flt ? emitF(op->falseValue)
                             : emitI(op->falseValue);
        line(t + " = " + fv + ";");
        --indent_;
        line("}");
        return t;
    }

    // -----------------------------------------------------------------
    // Buffer access: a hoisted typed view with the checked helper as
    // the fallback for every offset outside it.
    // -----------------------------------------------------------------

    /** C element type of a kind (bool only ever reaches helpers). */
    static const char *
    cType(bytecode::ElemKind kind)
    {
        static const char *const kTypes[] = {
            "float", "double", "int8_t", "int16_t", "int32_t", "int64_t",
            "unsigned char"};
        return kTypes[static_cast<int>(kind)];
    }

    /** The preamble's ST_K* macro of a kind. */
    static const char *
    kindToken(bytecode::ElemKind kind)
    {
        static const char *const kTokens[] = {
            "ST_KF32", "ST_KF64", "ST_KI8", "ST_KI16", "ST_KI32", "ST_KI64",
            "ST_KBOOL"};
        return kTokens[static_cast<int>(kind)];
    }

    /** View of kernel-local slot `local` as `kind`; one per (slot,
     *  kind) pair, since two buffers of different dtypes may share a
     *  parameter. */
    static std::string
    viewName(int local, bytecode::ElemKind kind)
    {
        return "w" + std::to_string(local) + "_" +
               std::to_string(static_cast<int>(kind));
    }

    /**
     * View serving `kind` accesses to `slot`, or "" when they take the
     * checked helper alone: bool slots, and scratch slots accessed as
     * another kind. Parameter views are declared at entry on first
     * use; scratch views at their Allocate.
     */
    std::string
    viewFor(int slot, bytecode::ElemKind kind)
    {
        if (kind == bytecode::ElemKind::kBool) {
            return "";
        }
        if (slot < numParamSlots_) {
            paramViews_.emplace(local(slot), kind);
            return viewName(local(slot), kind);
        }
        auto it = scratchKind_.find(slot);
        return it != scratchKind_.end() && it->second == kind
                   ? viewName(local(slot), kind)
                   : "";
    }

    /** Whether `kind` accesses to `slot` index storage directly: a
     *  proven kernel's view accesses (see viewFor). */
    bool
    direct(int slot, bytecode::ElemKind kind) const
    {
        if (!proven_ || kind == bytecode::ElemKind::kBool) {
            return false;
        }
        if (slot < numParamSlots_) {
            return true;
        }
        auto it = scratchKind_.find(slot);
        return it != scratchKind_.end() && it->second == kind;
    }

    /** The element `off` of `slot` as a `kind` lvalue (direct()). */
    std::string
    element(int slot, bytecode::ElemKind kind, const std::string &off,
            bool store)
    {
        auto stack = stackArrays_.find(slot);
        if (stack != stackArrays_.end()) {
            return stack->second + "[" + off + "]";
        }
        return std::string("((") + (store ? "" : "const ") +
               cType(kind) + " *)" + viewFor(slot, kind) + ".p)[" + off +
               "]";
    }

    /**
     * One checked load (`value` is the destination temporary) or
     * store of `buffer` at flat offset `off`, typed by the buffer's
     * dtype.
     */
    void
    emitAccess(int slot, const Buffer &buffer, const std::string &off,
               const std::string &value, bool store)
    {
        bytecode::ElemKind kind =
            bytecode::elemKindOfDtype(buffer->dtype);
        bool flt = bytecode::elemKindIsFloat(kind);
        if (store && direct(slot, kind)) {
            line(element(slot, kind, off, store) + " = (" + cType(kind) +
                 ")(" + value + ");");
            return;
        }
        std::string helper = std::string(store ? "st_st_" : "st_ld_") +
                             (flt ? "f" : "i");
        std::string view = viewFor(slot, kind);
        if (view.empty()) {
            line("ST_CALL(" + helper + "(ctx, " + slotTok(slot) + ", " +
                 off + ", " + (store ? "" : "&") + value + "));");
            return;
        }
        line(std::string(store ? "ST_ST(" : "ST_LD(") + view + ", " +
             cType(kind) + ", " + helper + ", " + slotTok(slot) + ", " +
             off + ", " + value + ");");
    }

    std::string
    emitLoad(const BufferLoadNode *op)
    {
        std::string off = emitOffset(op->buffer, op->indices);
        int slot = slotFor(op->buffer);
        bytecode::ElemKind kind =
            bytecode::elemKindOfDtype(op->buffer->dtype);
        std::string t = tmp();
        if (direct(slot, kind)) {
            // float32 storage loads as a float; other kinds widen.
            const char *type = kind == bytecode::ElemKind::kF32 ? "float "
                               : kind == bytecode::ElemKind::kF64
                                   ? "double "
                                   : "int64_t ";
            line(type + t + " = " +
                 element(slot, kind, off, /*store=*/false) + ";");
            return t;
        }
        line(std::string(op->buffer->dtype.isFloat() ? "double "
                                                     : "int64_t ") +
             t + " = 0;");
        emitAccess(slot, op->buffer, off, t, /*store=*/false);
        return t;
    }

    /**
     * Element count of an Allocate served from the kernel's stack, or
     * 0 when it stays on st_alloc: a non-constant or oversized extent,
     * a bool buffer, or one handed to an atomic or binary search —
     * those helpers read storage through ctx->slots, where a stack
     * slot has none.
     */
    static int64_t
    stackExtent(const AllocateNode *op, bytecode::ElemKind kind)
    {
        constexpr int64_t kMaxStackElems = 1024;
        if (kind == bytecode::ElemKind::kBool) {
            return 0;
        }
        int64_t n = 1;
        for (const Expr &dim : op->buffer->shape) {
            if (dim->kind != ExprKind::kIntImm) {
                return 0;
            }
            int64_t d = static_cast<const IntImmNode *>(dim.get())->value;
            if (d < 1 || d > kMaxStackElems / n) {
                return 0;
            }
            n *= d;
        }
        struct HelperUse : StmtVisitor
        {
            const VarNode *data = nullptr;
            bool found = false;

            void
            visitCall(const CallNode *call) override
            {
                found = found || (call->bufferArg != nullptr &&
                                  call->bufferArg->data.get() == data);
                StmtVisitor::visitCall(call);
            }
        } use;
        use.data = op->buffer->data.get();
        use.visitStmt(op->body);
        return use.found ? 0 : n;
    }

    /**
     * Flat element offset of an access: Stage III accesses carry one
     * index; multi-dimensional dense accesses emit the row-major
     * linearization (per-dimension extents evaluated at run time).
     */
    std::string
    emitOffset(const Buffer &buffer, const std::vector<Expr> &indices)
    {
        if (indices.size() == 1) {
            return emitI(indices[0]);
        }
        USER_CHECK(!buffer->isSparse())
            << "native backend requires lowered (dense) buffer "
               "access for '"
            << buffer->name << "'; run sparse buffer lowering first";
        ICHECK_EQ(indices.size(), buffer->shape.size());
        Expr offset = indices[0];
        for (size_t d = 1; d < indices.size(); ++d) {
            offset = add(mul(offset, buffer->shape[d]), indices[d]);
        }
        return emitI(offset);
    }

    std::string
    emitCallI(const CallNode *op)
    {
        switch (op->op) {
          case Builtin::kLowerBound:
          case Builtin::kUpperBound: {
            ICHECK(op->bufferArg != nullptr);
            ICHECK_EQ(op->args.size(), 3u);
            int slot = slotFor(op->bufferArg);
            std::string lo = emitI(op->args[0]);
            std::string hi = emitI(op->args[1]);
            std::string val = emitI(op->args[2]);
            std::string t = tmp();
            line("int64_t " + t + " = 0;");
            line("ST_CALL(st_search(ctx, " + slotTok(slot) + ", " +
                 lo + ", " + hi + ", " + val + ", " +
                 (op->op == Builtin::kUpperBound ? "1" : "0") + ", &" +
                 t + "));");
            return t;
          }
          case Builtin::kAbs: {
            std::string a = emitI(op->args[0]);
            std::string t = tmp();
            line("int64_t " + t + " = (" + a + " < 0) ? -" + a +
                 " : " + a + ";");
            return t;
          }
          case Builtin::kAtomicAdd: {
            ICHECK(op->bufferArg != nullptr);
            ICHECK_EQ(op->args.size(), 2u);
            int slot = slotFor(op->bufferArg);
            std::string off = emitI(op->args[0]);
            std::string v = emitI(op->args[1]);
            std::string t = tmp();
            line("int64_t " + t + " = 0;");
            line("ST_CALL(st_atomic_i(ctx, " + slotTok(slot) + ", " +
                 off + ", " + v + ", &" + t + "));");
            return t;
          }
          default:
            USER_CHECK(false)
                << "cannot compile call in integer context in '"
                << func_->name << "'";
        }
        return "0";
    }

    std::string
    emitCallF(const CallNode *op)
    {
        switch (op->op) {
          case Builtin::kExp:
          case Builtin::kLog:
          case Builtin::kSqrt:
          case Builtin::kAbs: {
            // The double function, rounded for a float32 call.
            std::string a = emitF(op->args[0]);
            const char *fn =
                op->op == Builtin::kExp
                    ? "exp"
                    : (op->op == Builtin::kLog
                           ? "log"
                           : (op->op == Builtin::kSqrt ? "sqrt"
                                                       : "fabs"));
            std::string t = tmp();
            if (roundsToFloat32(op->dtype)) {
                line("float " + t + " = (float)" + fn + "(" + a + ");");
            } else {
                line("double " + t + " = " + fn + "(" + a + ");");
            }
            return t;
          }
          case Builtin::kAtomicAdd: {
            ICHECK(op->bufferArg != nullptr);
            ICHECK_EQ(op->args.size(), 2u);
            int slot = slotFor(op->bufferArg);
            std::string off = emitI(op->args[0]);
            std::string v = emitF(op->args[1]);
            std::string t = tmp();
            line("double " + t + " = 0;");
            line("ST_CALL(st_atomic_f(ctx, " + slotTok(slot) + ", " +
                 off + ", " + v + ", &" + t + "));");
            return t;
          }
          default:
            USER_CHECK(false)
                << "cannot compile call in float context in '"
                << func_->name << "'";
        }
        return "0";
    }

    // -----------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------

    void
    emitStmt(const Stmt &s)
    {
        switch (s->kind) {
          case StmtKind::kBufferStore: {
            auto op = static_cast<const BufferStoreNode *>(s.get());
            int slot = slotFor(op->buffer);
            // Value before indices, mirroring the interpreter's
            // evaluation order (observable when the value contains
            // an atomic update the indices then read).
            bool flt = op->buffer->dtype.isFloat();
            std::string v = flt ? emitF(op->value) : emitI(op->value);
            std::string off = emitOffset(op->buffer, op->indices);
            emitAccess(slot, op->buffer, off, v, /*store=*/true);
            break;
          }
          case StmtKind::kSeq: {
            auto op = static_cast<const SeqStmtNode *>(s.get());
            for (const auto &child : op->seq) {
                emitStmt(child);
            }
            break;
          }
          case StmtKind::kFor:
            emitFor(static_cast<const ForNode *>(s.get()));
            break;
          case StmtKind::kBlock: {
            auto op = static_cast<const BlockNode *>(s.get());
            if (op->init != nullptr) {
                // Fire the init only when every in-scope reduce var
                // is at zero; vars not in scope never veto.
                std::string cond;
                for (const auto &rv : op->reduceVars) {
                    auto it = vars_.find(rv.get());
                    if (it != vars_.end()) {
                        if (!cond.empty()) {
                            cond += " && ";
                        }
                        cond += "(" + it->second.name + " == 0)";
                    }
                }
                if (cond.empty()) {
                    emitStmt(op->init);
                } else {
                    line("if (" + cond + ") {");
                    ++indent_;
                    emitStmt(op->init);
                    --indent_;
                    line("}");
                }
            }
            emitStmt(op->body);
            break;
          }
          case StmtKind::kIfThenElse: {
            auto op = static_cast<const IfThenElseNode *>(s.get());
            std::string c = emitI(op->cond);
            line("if (" + c + " != 0) {");
            ++indent_;
            emitStmt(op->thenBody);
            --indent_;
            if (op->elseBody != nullptr) {
                line("} else {");
                ++indent_;
                emitStmt(op->elseBody);
                --indent_;
            }
            line("}");
            break;
          }
          case StmtKind::kLetStmt: {
            auto op = static_cast<const LetStmtNode *>(s.get());
            bool flt = isFloatExpr(op->value);
            bool f32 = flt && isF32Expr(op->value);
            std::string v = flt ? emitF(op->value) : emitI(op->value);
            std::string name = "l" + std::to_string(tmpCount_++);
            line(std::string(!flt ? "int64_t " : (f32 ? "float " : "double ")) +
                 name + " = " + v + ";");
            vars_[op->letVar.get()] = CVar{flt, name, f32};
            emitStmt(op->body);
            vars_.erase(op->letVar.get());
            break;
          }
          case StmtKind::kAllocate: {
            auto op = static_cast<const AllocateNode *>(s.get());
            int slot = static_cast<int>(slotNames_.size());
            slotNames_.push_back(op->buffer->name);
            bytecode::ElemKind kind =
                bytecode::elemKindOfDtype(op->buffer->dtype);
            std::string meta =
                std::string(kindToken(kind)) + ", " +
                std::to_string(bytecode::elemKindBytes(kind));
            std::string view = viewName(local(slot), kind);
            line("{");
            ++indent_;
            int64_t stack = stackExtent(op, kind);
            if (stack > 0) {
                // Constant-size scratch lives in the kernel's frame,
                // re-zeroed on every entry like st_alloc's calloc.
                std::string arr = "a" + std::to_string(local(slot));
                stackMeta_ += "    st_stack(ctx, " + slotTok(slot) +
                              ", " + intLiteral(stack) + ", " + meta +
                              ");\n";
                line(std::string(cType(kind)) + " " + arr + "[" +
                     std::to_string(stack) + "];");
                line("memset(" + arr + ", 0, sizeof " + arr + ");");
                if (proven_) {
                    stackArrays_[slot] = arr;
                } else {
                    line("const StView " + view + " = {" + arr + ", " +
                         intLiteral(stack) + "};");
                }
            } else {
                Expr size = op->buffer->shape.empty()
                                ? intImm(1)
                                : op->buffer->shape[0];
                for (size_t d = 1; d < op->buffer->shape.size(); ++d) {
                    size = mul(size, op->buffer->shape[d]);
                }
                std::string n = emitI(size);
                line("ST_CALL(st_alloc(ctx, " + slotTok(slot) + ", " +
                     n + ", " + meta + "));");
                if (kind != bytecode::ElemKind::kBool) {
                    line("const StView " + view + " = st_view(ctx, " +
                         slotTok(slot) + ", " + kindToken(kind) +
                         ");");
                }
            }
            scratchKind_[slot] = kind;
            slotOf_[op->buffer->data.get()] = slot;
            emitStmt(op->body);
            slotOf_.erase(op->buffer->data.get());
            stackArrays_.erase(slot);
            --indent_;
            line("}");
            break;
          }
          case StmtKind::kEvaluate: {
            auto op = static_cast<const EvaluateNode *>(s.get());
            if (isFloatExpr(op->value)) {
                std::string v = emitF(op->value);
                line("(void)" + v + ";");
            } else {
                std::string v = emitI(op->value);
                line("(void)" + v + ";");
            }
            break;
          }
          case StmtKind::kSparseIteration:
            USER_CHECK(false)
                << "cannot compile Stage I sparse iteration '"
                << static_cast<const SparseIterationNode *>(s.get())
                       ->name
                << "' to native code; lower the function first";
            break;
          default:
            ICHECK(false) << "unhandled stmt kind";
        }
    }

    void
    emitFor(const ForNode *op)
    {
        std::string mn = emitI(op->minValue);
        std::string ext = emitI(op->extent);
        std::string lo = tmp();
        std::string hi = tmp();
        line("int64_t " + lo + " = " + mn + ";");
        line("int64_t " + hi + " = " + mn + " + " + ext + ";");
        if (op == blockLoop_) {
            // The kBlockWindow contract: clamp the outermost
            // blockIdx.x loop to the dispatch's [blockBegin,
            // blockEnd) grid chunk.
            line("if (ctx->block_end >= 0) {");
            ++indent_;
            line(lo + " = " + mn +
                 " + (ctx->block_begin > 0 ? ctx->block_begin : 0);");
            std::string h = tmp();
            line("int64_t " + h + " = " + mn + " + ctx->block_end;");
            line("if (" + h + " < " + hi + ") { " + hi + " = " + h +
                 "; }");
            --indent_;
            line("}");
        }
        std::string v = "v" + std::to_string(tmpCount_++);
        int64_t unroll = accumulatorUnroll(op);
        if (unroll >= 2) {
            line("#pragma GCC unroll " + std::to_string(unroll));
        }
        line("for (int64_t " + v + " = " + lo + "; " + v + " < " + hi +
             "; ++" + v + ") {");
        ++indent_;
        vars_[op->loopVar.get()] = CVar{false, v};
        emitStmt(op->body);
        vars_.erase(op->loopVar.get());
        --indent_;
        line("}");
    }

    /**
     * The `#pragma GCC unroll` count of a feature-accumulator loop:
     * constant bounds and a straight-line body (no loop, guard or
     * call) that indexes a proven kernel's stack array with the loop
     * variable. The count is the loop's 16-byte vector iterations,
     * not its extent: gcc then vectorizes first and peels the whole
     * vector loop, so the array stays in registers. A count of the
     * extent unrolls the scalar loop before vectorizing, which is
     * slower than no hint. 0 for any other loop.
     */
    int64_t
    accumulatorUnroll(const ForNode *op) const
    {
        int64_t mn = 0;
        int64_t ext = 0;
        if (stackArrays_.empty() || !tryConstInt(op->minValue, &mn) ||
            !tryConstInt(op->extent, &ext)) {
            return 0;
        }
        struct Scan : StmtVisitor
        {
            const Emitter *self = nullptr;
            const VarNode *loopVar = nullptr;
            bool branches = false;
            int64_t elemBytes = 0;

            void
            visitFor(const ForNode *) override
            {
                branches = true;
            }
            void
            visitIfThenElse(const IfThenElseNode *) override
            {
                branches = true;
            }
            void
            visitCall(const CallNode *) override
            {
                branches = true;
            }
            void
            visitBufferLoad(const BufferLoadNode *load) override
            {
                note(load->buffer, load->indices);
                StmtVisitor::visitBufferLoad(load);
            }
            void
            visitBufferStore(const BufferStoreNode *store) override
            {
                note(store->buffer, store->indices);
                StmtVisitor::visitBufferStore(store);
            }

            /** Record `buffer`'s element size when it is a stack
             *  array indexed with the loop variable. */
            void
            note(const Buffer &buffer, const std::vector<Expr> &indices)
            {
                auto slot = self->slotOf_.find(buffer->data.get());
                if (slot == self->slotOf_.end() ||
                    self->stackArrays_.count(slot->second) == 0) {
                    return;
                }
                for (const Expr &index : indices) {
                    if (usesVar(index, loopVar)) {
                        elemBytes = bytecode::elemKindBytes(
                            self->scratchKind_.at(slot->second));
                    }
                }
            }
        } scan;
        scan.self = this;
        scan.loopVar = op->loopVar.get();
        scan.visitStmt(op->body);
        return scan.branches ? 0 : ext * scan.elemBytes / 16;
    }

    PrimFunc func_;
    const KernelProof *proof_ = nullptr;
    /** Emitting without per-access checks (see KernelProof). */
    bool proven_ = false;
    /** Guarded extent of each directly accessed (param slot, kind). */
    std::map<std::pair<int, bytecode::ElemKind>, int64_t> guardExtent_;
    /** Stack array of each in-scope stack scratch slot, when proven. */
    std::unordered_map<int, std::string> stackArrays_;
    std::string body_;
    int indent_ = 1;
    int tmpCount_ = 0;
    std::vector<std::string> slotNames_;
    int numParamSlots_ = 0;
    std::vector<bool> paramUsed_;
    std::vector<std::string> scalars_;
    std::unordered_map<const VarNode *, size_t> scalarIndex_;
    std::unordered_map<const VarNode *, CVar> vars_;
    std::unordered_map<const VarNode *, int> slotOf_;
    /** Element kind of every scratch slot allocated so far. */
    std::unordered_map<int, bytecode::ElemKind> scratchKind_;
    /** Parameter views the body uses, by kernel-local slot, declared
     *  at entry. */
    std::set<std::pair<int, bytecode::ElemKind>> paramViews_;
    /** Kernel-local index of every slot the body names, and the
     *  module slot of each local index (StTable::slot). */
    std::unordered_map<int, int> localSlot_;
    std::vector<int> slotTable_;
    /** Scalar params the body reads (indices into scalars_), by
     *  kernel-local index. */
    std::vector<size_t> scalarOrder_;
    /** Entry-time st_stack() calls of the stack scratch slots. */
    std::string stackMeta_;
    const ForNode *blockLoop_ = nullptr;
};

} // namespace

ModuleEmitResult
emitModule(const std::vector<ir::PrimFunc> &funcs, const std::string &key_tag,
           const std::vector<const KernelProof *> &proofs)
{
    ICHECK(proofs.empty() || proofs.size() == funcs.size());
    ModuleEmitResult module;
    module.meta = "sparsetir-native;abi=" +
                  std::to_string(kNativeAbiVersion) + ";tag=" + key_tag;
    std::string entries;
    std::string definitions;
    // Body text -> its st_body_ index: kernels that differ only in
    // their tables share one definition.
    std::map<std::string, int> bodies;
    for (size_t i = 0; i < funcs.size(); ++i) {
        const ir::PrimFunc &func = funcs[i];
        EmitResult emitted;
        emitted.name = func->name;
        std::string rejected;
        try {
            std::string diag = transform::stage3ExecDiagnostic(func);
            USER_CHECK(diag.empty())
                << "cannot compile '" << func->name
                << "' to native code: " << diag;
            std::string body;
            KernelTable table;
            emitted = Emitter(func, proofs.empty() ? nullptr : proofs[i])
                          .run(&body, &table);
            std::string k = std::to_string(module.numEntries);
            definitions += "/* kernel: " + func->name + " */\n";
            auto [shared, added] = bodies.emplace(
                std::move(body), static_cast<int>(bodies.size()));
            std::string body_fn = "st_body_" + std::to_string(shared->second);
            if (added) {
                definitions += "static int32_t " + body_fn +
                               "(StCtx *ctx, const StTable *tb) {\n" +
                               shared->first + "}\n";
            }
            std::string slots =
                cArray("int32_t", "st_slot_" + k, table.slot, &definitions);
            std::string guard =
                cArray("int64_t", "st_guard_" + k, table.guard, &definitions);
            definitions += "static const StTable st_table_" + k + " = {" +
                           slots + ", " + guard + "};\n";
            definitions += "static int32_t st_entry_" + k +
                           "(StCtx *ctx) { return " + body_fn +
                           "(ctx, &st_table_" + k + "); }\n\n";
            entries += "    st_entry_" + k + ",\n";
            module.meta += ";kernel=" + func->name;
            ++module.numEntries;
        } catch (const UserError &err) {
            rejected = err.what();
        }
        module.kernels.push_back(std::move(emitted));
        module.rejected.push_back(std::move(rejected));
    }
    if (module.numEntries == 0) {
        return module;
    }
    std::string src = "/* SparseTIR native module (generated) */\n";
    src += kPreamble;
    src += definitions;
    src += "const char " + std::string(kMetaSymbol) + "[] = \"" +
           cStringBody(module.meta) + "\";\n";
    src += "int32_t (*const " + std::string(kEntryTableSymbol) +
           "[])(StCtx *) = {\n";
    src += entries;
    src += "};\n";
    module.source = std::move(src);
    return module;
}

EmitResult
emitC(const ir::PrimFunc &func, const std::string &key_tag)
{
    ModuleEmitResult module = emitModule({func}, key_tag);
    if (!module.rejected[0].empty()) {
        throw UserError(module.rejected[0]);
    }
    EmitResult emitted = std::move(module.kernels[0]);
    emitted.source = std::move(module.source);
    return emitted;
}

} // namespace native
} // namespace runtime
} // namespace sparsetir
