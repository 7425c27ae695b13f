#include "runtime/interpreter.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ir/functor.h"
#include "runtime/bytecode/compiler.h"
#include "runtime/bytecode/vm.h"

namespace sparsetir {
namespace runtime {

using namespace ir;

namespace {

/** A scalar runtime value. */
struct Value
{
    bool isFloat = false;
    int64_t i = 0;
    double f = 0.0;

    static Value
    ofInt(int64_t v)
    {
        Value value;
        value.i = v;
        return value;
    }
    static Value
    ofFloat(double v)
    {
        Value value;
        value.isFloat = true;
        value.f = v;
        return value;
    }

    int64_t
    asInt() const
    {
        return isFloat ? static_cast<int64_t>(f) : i;
    }
    double
    asFloat() const
    {
        return isFloat ? f : static_cast<double>(i);
    }
};

/** The result of a float op of node dtype `dtype` (the float32
 *  rule: float32 results round to float32). */
Value
ofFloatOp(const DataType &dtype, double v)
{
    return Value::ofFloat(roundsToFloat32(dtype)
                              ? static_cast<double>(static_cast<float>(v))
                              : v);
}

} // namespace

int64_t
floordivInt(int64_t a, int64_t b)
{
    ICHECK_NE(b, 0) << "division by zero in interpreted program";
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) {
        --q;
    }
    return q;
}

/** First For bound to blockIdx.x, pre-order; null when absent. */
const ForNode *
findBlockIdxLoop(const Stmt &s)
{
    if (s == nullptr) {
        return nullptr;
    }
    switch (s->kind) {
      case StmtKind::kFor: {
        auto op = static_cast<const ForNode *>(s.get());
        if (op->forKind == ForKind::kThreadBinding &&
            op->threadTag == "blockIdx.x") {
            return op;
        }
        return findBlockIdxLoop(op->body);
      }
      case StmtKind::kSeq: {
        auto op = static_cast<const SeqStmtNode *>(s.get());
        for (const auto &child : op->seq) {
            if (const ForNode *found = findBlockIdxLoop(child)) {
                return found;
            }
        }
        return nullptr;
      }
      case StmtKind::kBlock:
        return findBlockIdxLoop(
            static_cast<const BlockNode *>(s.get())->body);
      case StmtKind::kIfThenElse: {
        auto op = static_cast<const IfThenElseNode *>(s.get());
        if (const ForNode *found = findBlockIdxLoop(op->thenBody)) {
            return found;
        }
        return findBlockIdxLoop(op->elseBody);
      }
      case StmtKind::kLetStmt:
        return findBlockIdxLoop(
            static_cast<const LetStmtNode *>(s.get())->body);
      case StmtKind::kAllocate:
        return findBlockIdxLoop(
            static_cast<const AllocateNode *>(s.get())->body);
      default:
        return nullptr;
    }
}

namespace {

class Machine
{
  public:
    Machine(const PrimFunc &func, const Bindings &bindings) : func_(func)
    {
        // Bindings resolve lazily: a parameter the function never
        // touches (e.g. the original CSR arrays in a bucket compute
        // kernel) need not be bound.
        for (const auto &param : func->params) {
            if (param->dtype.isHandle()) {
                auto it = bindings.arrays.find(param->name);
                if (it != bindings.arrays.end()) {
                    arrays_[param.get()] = it->second;
                }
            } else {
                auto it = bindings.scalars.find(param->name);
                if (it != bindings.scalars.end()) {
                    scalars_[param.get()] = Value::ofInt(it->second);
                }
            }
        }
    }

    void
    run()
    {
        if (func_->body != nullptr) {
            exec(func_->body);
        }
    }

    /**
     * Restrict execution to iterations [begin, end) of the given
     * blockIdx loop (offsets relative to the loop's min).
     */
    void
    restrictBlocks(const ForNode *loop, int64_t begin, int64_t end)
    {
        restricted_loop_ = loop;
        block_begin_ = begin;
        block_end_ = end;
    }

  private:
    NDArray *
    arrayOf(const Buffer &buffer)
    {
        auto it = arrays_.find(buffer->data.get());
        ICHECK(it != arrays_.end())
            << "no storage bound for buffer '" << buffer->name << "'";
        return it->second;
    }

    /** Row-major flat offset of an access. */
    int64_t
    flatOffset(const Buffer &buffer, const std::vector<Expr> &indices)
    {
        if (indices.size() == 1) {
            return evalExpr(indices[0]).asInt();
        }
        ICHECK(!buffer->isSparse())
            << "interpreter requires lowered (dense) buffer access for '"
            << buffer->name << "'; run sparse buffer lowering first";
        ICHECK_EQ(indices.size(), buffer->shape.size());
        int64_t offset = 0;
        for (size_t d = 0; d < indices.size(); ++d) {
            int64_t extent = evalExpr(buffer->shape[d]).asInt();
            int64_t idx = evalExpr(indices[d]).asInt();
            ICHECK_GE(idx, 0) << "negative index into " << buffer->name;
            ICHECK_LT(idx, extent)
                << "index out of bounds in " << buffer->name << " dim "
                << d;
            offset = offset * extent + idx;
        }
        return offset;
    }

    Value
    loadBuffer(const Buffer &buffer, const std::vector<Expr> &indices)
    {
        NDArray *array = arrayOf(buffer);
        int64_t offset = flatOffset(buffer, indices);
        ICHECK_GE(offset, 0) << "negative offset into " << buffer->name;
        ICHECK_LT(offset, array->numel())
            << "offset " << offset << " out of bounds for buffer '"
            << buffer->name << "' (numel " << array->numel() << ")";
        if (array->dtype().isFloat()) {
            return Value::ofFloat(array->floatAt(offset));
        }
        return Value::ofInt(array->intAt(offset));
    }

    void
    storeBuffer(const Buffer &buffer, const std::vector<Expr> &indices,
                const Value &value)
    {
        NDArray *array = arrayOf(buffer);
        int64_t offset = flatOffset(buffer, indices);
        ICHECK_GE(offset, 0) << "negative offset into " << buffer->name;
        ICHECK_LT(offset, array->numel())
            << "offset " << offset << " out of bounds for buffer '"
            << buffer->name << "' (numel " << array->numel() << ")";
        if (array->dtype().isFloat()) {
            array->setFloat(offset, value.asFloat());
        } else {
            array->setInt(offset, value.asInt());
        }
    }

    Value
    evalBinary(const BinaryNode *op)
    {
        Value a = evalExpr(op->a);
        Value b = evalExpr(op->b);
        bool flt = a.isFloat || b.isFloat;
        auto boolean = [](bool v) { return Value::ofInt(v ? 1 : 0); };
        auto real = [op](double v) { return ofFloatOp(op->dtype, v); };
        switch (op->kind) {
          case ExprKind::kAdd:
            return flt ? real(a.asFloat() + b.asFloat())
                       : Value::ofInt(a.i + b.i);
          case ExprKind::kSub:
            return flt ? real(a.asFloat() - b.asFloat())
                       : Value::ofInt(a.i - b.i);
          case ExprKind::kMul:
            return flt ? real(a.asFloat() * b.asFloat())
                       : Value::ofInt(a.i * b.i);
          case ExprKind::kDiv:
            return real(a.asFloat() / b.asFloat());
          case ExprKind::kFloorDiv:
            ICHECK(!flt) << "floordiv on float values";
            return Value::ofInt(floordivInt(a.i, b.i));
          case ExprKind::kFloorMod:
            ICHECK(!flt) << "floormod on float values";
            return Value::ofInt(a.i - floordivInt(a.i, b.i) * b.i);
          case ExprKind::kMin:
            return flt ? real(std::min(a.asFloat(), b.asFloat()))
                       : Value::ofInt(std::min(a.i, b.i));
          case ExprKind::kMax:
            return flt ? real(std::max(a.asFloat(), b.asFloat()))
                       : Value::ofInt(std::max(a.i, b.i));
          case ExprKind::kEQ:
            return boolean(flt ? a.asFloat() == b.asFloat() : a.i == b.i);
          case ExprKind::kNE:
            return boolean(flt ? a.asFloat() != b.asFloat() : a.i != b.i);
          case ExprKind::kLT:
            return boolean(flt ? a.asFloat() < b.asFloat() : a.i < b.i);
          case ExprKind::kLE:
            return boolean(flt ? a.asFloat() <= b.asFloat() : a.i <= b.i);
          case ExprKind::kGT:
            return boolean(flt ? a.asFloat() > b.asFloat() : a.i > b.i);
          case ExprKind::kGE:
            return boolean(flt ? a.asFloat() >= b.asFloat() : a.i >= b.i);
          case ExprKind::kAnd:
            return boolean(a.asInt() != 0 && b.asInt() != 0);
          case ExprKind::kOr:
            return boolean(a.asInt() != 0 || b.asInt() != 0);
          default:
            ICHECK(false) << "unhandled binary kind";
        }
        return Value();
    }

    Value
    evalCall(const CallNode *op)
    {
        switch (op->op) {
          case Builtin::kLowerBound:
          case Builtin::kUpperBound: {
            ICHECK(op->bufferArg != nullptr);
            ICHECK_EQ(op->args.size(), 3u);
            NDArray *array = arrayOf(op->bufferArg);
            int64_t lo = evalExpr(op->args[0]).asInt();
            int64_t hi = evalExpr(op->args[1]).asInt();
            int64_t val = evalExpr(op->args[2]).asInt();
            ICHECK_GE(lo, 0);
            ICHECK_LE(hi, array->numel());
            bool upper = op->op == Builtin::kUpperBound;
            while (lo < hi) {
                int64_t mid = lo + (hi - lo) / 2;
                int64_t elem = array->intAt(mid);
                bool go_right = upper ? elem <= val : elem < val;
                if (go_right) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            return Value::ofInt(lo);
          }
          case Builtin::kExp:
            return ofFloatOp(op->dtype,
                             std::exp(evalExpr(op->args[0]).asFloat()));
          case Builtin::kLog:
            return ofFloatOp(op->dtype,
                             std::log(evalExpr(op->args[0]).asFloat()));
          case Builtin::kSqrt:
            return ofFloatOp(op->dtype,
                             std::sqrt(evalExpr(op->args[0]).asFloat()));
          case Builtin::kAbs: {
            Value v = evalExpr(op->args[0]);
            return v.isFloat ? ofFloatOp(op->dtype, std::fabs(v.f))
                             : Value::ofInt(std::llabs(v.i));
          }
          case Builtin::kAtomicAdd: {
            ICHECK(op->bufferArg != nullptr);
            ICHECK_EQ(op->args.size(), 2u);
            NDArray *array = arrayOf(op->bufferArg);
            int64_t offset = evalExpr(op->args[0]).asInt();
            ICHECK_GE(offset, 0);
            ICHECK_LT(offset, array->numel());
            if (array->dtype().isFloat()) {
                double old = array->floatAt(offset);
                array->setFloat(offset,
                                old + evalExpr(op->args[1]).asFloat());
                return Value::ofFloat(old);
            }
            int64_t old = array->intAt(offset);
            array->setInt(offset, old + evalExpr(op->args[1]).asInt());
            return Value::ofInt(old);
          }
          case Builtin::kExtern:
            USER_CHECK(false) << "cannot interpret extern call '"
                              << op->name << "'";
        }
        return Value();
    }

    Value
    evalExpr(const Expr &e)
    {
        switch (e->kind) {
          case ExprKind::kIntImm:
            return Value::ofInt(
                static_cast<const IntImmNode *>(e.get())->value);
          case ExprKind::kFloatImm:
            return Value::ofFloat(
                static_cast<const FloatImmNode *>(e.get())->value);
          case ExprKind::kVar: {
            auto op = static_cast<const VarNode *>(e.get());
            auto it = scalars_.find(op);
            ICHECK(it != scalars_.end())
                << "unbound variable '" << op->name << "'";
            return it->second;
          }
          case ExprKind::kNot:
            return Value::ofInt(
                evalExpr(static_cast<const NotNode *>(e.get())->a)
                            .asInt() == 0
                    ? 1
                    : 0);
          case ExprKind::kSelect: {
            auto op = static_cast<const SelectNode *>(e.get());
            return evalExpr(op->cond).asInt() != 0
                       ? evalExpr(op->trueValue)
                       : evalExpr(op->falseValue);
          }
          case ExprKind::kCast: {
            auto op = static_cast<const CastNode *>(e.get());
            Value v = evalExpr(op->value);
            if (op->dtype.isFloat()) {
                return ofFloatOp(op->dtype, v.asFloat());
            }
            return Value::ofInt(v.asInt());
          }
          case ExprKind::kBufferLoad: {
            auto op = static_cast<const BufferLoadNode *>(e.get());
            return loadBuffer(op->buffer, op->indices);
          }
          case ExprKind::kCall:
            return evalCall(static_cast<const CallNode *>(e.get()));
          case ExprKind::kStringImm:
          case ExprKind::kRamp:
          case ExprKind::kBroadcast:
            ICHECK(false) << "expression kind not interpretable as scalar";
            return Value();
          case ExprKind::kAnd: {
            // Short-circuit: guards rely on the right operand not
            // being evaluated when the left is false (e.g. bounds
            // check before an indices load).
            auto op = static_cast<const BinaryNode *>(e.get());
            if (evalExpr(op->a).asInt() == 0) {
                return Value::ofInt(0);
            }
            return Value::ofInt(evalExpr(op->b).asInt() != 0 ? 1 : 0);
          }
          case ExprKind::kOr: {
            auto op = static_cast<const BinaryNode *>(e.get());
            if (evalExpr(op->a).asInt() != 0) {
                return Value::ofInt(1);
            }
            return Value::ofInt(evalExpr(op->b).asInt() != 0 ? 1 : 0);
          }
          default:
            return evalBinary(static_cast<const BinaryNode *>(e.get()));
        }
    }

    void
    exec(const Stmt &s)
    {
        switch (s->kind) {
          case StmtKind::kBufferStore: {
            auto op = static_cast<const BufferStoreNode *>(s.get());
            storeBuffer(op->buffer, op->indices, evalExpr(op->value));
            break;
          }
          case StmtKind::kSeq: {
            auto op = static_cast<const SeqStmtNode *>(s.get());
            for (const auto &child : op->seq) {
                exec(child);
            }
            break;
          }
          case StmtKind::kFor: {
            auto op = static_cast<const ForNode *>(s.get());
            int64_t min_v = evalExpr(op->minValue).asInt();
            int64_t extent = evalExpr(op->extent).asInt();
            int64_t lo = min_v;
            int64_t hi = min_v + extent;
            if (op == restricted_loop_) {
                lo = min_v + std::max<int64_t>(block_begin_, 0);
                hi = std::min(hi, min_v + block_end_);
            }
            Value &slot = scalars_[op->loopVar.get()];
            for (int64_t v = lo; v < hi; ++v) {
                slot = Value::ofInt(v);
                exec(op->body);
            }
            scalars_.erase(op->loopVar.get());
            break;
          }
          case StmtKind::kBlock: {
            auto op = static_cast<const BlockNode *>(s.get());
            if (op->init != nullptr) {
                bool fire = true;
                for (const auto &rv : op->reduceVars) {
                    auto it = scalars_.find(rv.get());
                    if (it != scalars_.end() && it->second.asInt() != 0) {
                        fire = false;
                        break;
                    }
                }
                if (fire) {
                    exec(op->init);
                }
            }
            exec(op->body);
            break;
          }
          case StmtKind::kIfThenElse: {
            auto op = static_cast<const IfThenElseNode *>(s.get());
            if (evalExpr(op->cond).asInt() != 0) {
                exec(op->thenBody);
            } else if (op->elseBody != nullptr) {
                exec(op->elseBody);
            }
            break;
          }
          case StmtKind::kLetStmt: {
            auto op = static_cast<const LetStmtNode *>(s.get());
            scalars_[op->letVar.get()] = evalExpr(op->value);
            exec(op->body);
            scalars_.erase(op->letVar.get());
            break;
          }
          case StmtKind::kAllocate: {
            auto op = static_cast<const AllocateNode *>(s.get());
            std::vector<int64_t> shape;
            shape.reserve(op->buffer->shape.size());
            for (const auto &dim : op->buffer->shape) {
                shape.push_back(evalExpr(dim).asInt());
            }
            auto storage =
                std::make_unique<NDArray>(shape, op->buffer->dtype);
            NDArray *ptr = storage.get();
            allocations_.push_back(std::move(storage));
            arrays_[op->buffer->data.get()] = ptr;
            exec(op->body);
            arrays_.erase(op->buffer->data.get());
            allocations_.pop_back();
            break;
          }
          case StmtKind::kEvaluate:
            evalExpr(static_cast<const EvaluateNode *>(s.get())->value);
            break;
          case StmtKind::kSparseIteration:
            USER_CHECK(false)
                << "cannot interpret Stage I sparse iteration '"
                << static_cast<const SparseIterationNode *>(s.get())->name
                << "'; lower the function first";
            break;
          default:
            ICHECK(false) << "unhandled stmt kind";
        }
    }

    PrimFunc func_;
    std::unordered_map<const VarNode *, Value> scalars_;
    std::unordered_map<const VarNode *, NDArray *> arrays_;
    std::vector<std::unique_ptr<NDArray>> allocations_;
    const ForNode *restricted_loop_ = nullptr;
    int64_t block_begin_ = 0;
    int64_t block_end_ = 0;
};

} // namespace

void
run(const ir::PrimFunc &func, const Bindings &bindings)
{
    run(func, bindings, RunOptions());
}

void
run(const ir::PrimFunc &func, const Bindings &bindings,
    const RunOptions &options)
{
    if (options.backend != Backend::kInterpreter) {
        // Compile once (memoized); functions outside the bytecode
        // subset fall through to the interpreter, whose diagnostics
        // are authoritative for them. kNative lands here too: bare
        // run() has no compiled artifact attached, so it serves the
        // bytecode tier — native dispatch is the engine executor's
        // job (CompiledKernel::native).
        std::shared_ptr<const bytecode::Program> program =
            bytecode::programFor(func);
        if (program != nullptr) {
            bytecode::execute(*program, bindings, options);
            return;
        }
    }
    runInterpreted(func, bindings, options);
}

void
runInterpreted(const ir::PrimFunc &func, const Bindings &bindings,
               const RunOptions &options)
{
    Machine machine(func, bindings);
    if (options.blockEnd >= 0) {
        const ForNode *loop = findBlockIdxLoop(func->body);
        USER_CHECK(loop != nullptr)
            << "block-windowed execution of '" << func->name
            << "': no blockIdx.x-bound loop";
        machine.restrictBlocks(loop, options.blockBegin,
                               options.blockEnd);
    }
    machine.run();
}

bool
evalScalarExtent(const ir::Expr &e, const Bindings &bindings,
                 int64_t *out)
{
    if (e == nullptr) {
        return false;
    }
    switch (e->kind) {
      case ExprKind::kIntImm:
        *out = static_cast<const IntImmNode *>(e.get())->value;
        return true;
      case ExprKind::kVar: {
        auto it = bindings.scalars.find(
            static_cast<const VarNode *>(e.get())->name);
        if (it == bindings.scalars.end()) {
            return false;
        }
        *out = it->second;
        return true;
      }
      case ExprKind::kAdd:
      case ExprKind::kSub:
      case ExprKind::kMul:
      case ExprKind::kFloorDiv:
      case ExprKind::kFloorMod:
      case ExprKind::kMin:
      case ExprKind::kMax:
      case ExprKind::kEQ:
      case ExprKind::kNE:
      case ExprKind::kLT:
      case ExprKind::kLE:
      case ExprKind::kGT:
      case ExprKind::kGE:
      case ExprKind::kAnd:
      case ExprKind::kOr: {
        const auto *op = static_cast<const BinaryNode *>(e.get());
        int64_t a = 0;
        int64_t b = 0;
        if (!evalScalarExtent(op->a, bindings, &a) ||
            !evalScalarExtent(op->b, bindings, &b)) {
            return false;
        }
        switch (e->kind) {
          case ExprKind::kAdd:
            *out = a + b;
            return true;
          case ExprKind::kSub:
            *out = a - b;
            return true;
          case ExprKind::kMul:
            *out = a * b;
            return true;
          case ExprKind::kFloorDiv:
            if (b == 0) {
                return false;
            }
            *out = floordivInt(a, b);
            return true;
          case ExprKind::kFloorMod:
            if (b == 0) {
                return false;
            }
            *out = a - floordivInt(a, b) * b;
            return true;
          case ExprKind::kMin:
            *out = std::min(a, b);
            return true;
          case ExprKind::kMax:
            *out = std::max(a, b);
            return true;
          case ExprKind::kEQ:
            *out = a == b;
            return true;
          case ExprKind::kNE:
            *out = a != b;
            return true;
          case ExprKind::kLT:
            *out = a < b;
            return true;
          case ExprKind::kLE:
            *out = a <= b;
            return true;
          case ExprKind::kGT:
            *out = a > b;
            return true;
          case ExprKind::kGE:
            *out = a >= b;
            return true;
          case ExprKind::kAnd:
            *out = (a != 0) && (b != 0);
            return true;
          case ExprKind::kOr:
            *out = (a != 0) || (b != 0);
            return true;
          default:
            return false;
        }
      }
      case ExprKind::kNot: {
        int64_t a = 0;
        if (!evalScalarExtent(
                static_cast<const NotNode *>(e.get())->a, bindings,
                &a)) {
            return false;
        }
        *out = a == 0;
        return true;
      }
      case ExprKind::kSelect: {
        const auto *op = static_cast<const SelectNode *>(e.get());
        int64_t cond = 0;
        if (!evalScalarExtent(op->cond, bindings, &cond)) {
            return false;
        }
        return evalScalarExtent(
            cond != 0 ? op->trueValue : op->falseValue, bindings,
            out);
      }
      case ExprKind::kCast: {
        const auto *op = static_cast<const CastNode *>(e.get());
        if (!op->dtype.isInt() && !op->dtype.isBool()) {
            return false;
        }
        return evalScalarExtent(op->value, bindings, out);
      }
      default:
        // Buffer loads, calls, float/vector expressions: not a
        // scalar-only grid extent.
        return false;
    }
}

void
runModule(const ir::Module &mod, const Bindings &bindings)
{
    for (const auto &func : mod->functions) {
        run(func, bindings);
    }
}

} // namespace runtime
} // namespace sparsetir
