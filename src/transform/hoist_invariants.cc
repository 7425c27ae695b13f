#include "transform/hoist_invariants.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ir/functor.h"
#include "ir/structural_equal.h"

namespace sparsetir {
namespace transform {

using namespace ir;

namespace {

/** Same buffer handle and structurally equal indices. */
bool
sameLoad(const Expr &a, const Expr &b)
{
    if (b->kind != ExprKind::kBufferLoad) {
        return false;
    }
    auto la = static_cast<const BufferLoadNode *>(a.get());
    auto lb = static_cast<const BufferLoadNode *>(b.get());
    if (la->buffer->data != lb->buffer->data ||
        la->indices.size() != lb->indices.size()) {
        return false;
    }
    for (size_t i = 0; i < la->indices.size(); ++i) {
        if (!structuralEqual(la->indices[i], lb->indices[i])) {
            return false;
        }
    }
    return true;
}

/**
 * Variables a loop body binds, and the buffers (by handle) it writes
 * or allocates.
 */
class BodyScan : public StmtVisitor
{
  public:
    std::set<const VarNode *> bound;
    std::set<const VarNode *> written;

  protected:
    void
    visitFor(const ForNode *op) override
    {
        bound.insert(op->loopVar.get());
        StmtVisitor::visitFor(op);
    }

    void
    visitLetStmt(const LetStmtNode *op) override
    {
        bound.insert(op->letVar.get());
        StmtVisitor::visitLetStmt(op);
    }

    void
    visitBufferStore(const BufferStoreNode *op) override
    {
        written.insert(op->buffer->data.get());
        StmtVisitor::visitBufferStore(op);
    }

    void
    visitCall(const CallNode *op) override
    {
        if (op->bufferArg != nullptr) {
            written.insert(op->bufferArg->data.get());
        }
        StmtVisitor::visitCall(op);
    }

    void
    visitAllocate(const AllocateNode *op) override
    {
        written.insert(op->buffer->data.get());
        StmtVisitor::visitAllocate(op);
    }
};

/** No variable the body binds, no load of a buffer it writes. */
class InvariantCheck : public ExprVisitor
{
  public:
    explicit InvariantCheck(const BodyScan &scan) : scan_(scan) {}

    bool ok = true;

  protected:
    void
    visitVar(const VarNode *op) override
    {
        ok = ok && scan_.bound.count(op) == 0;
    }

    void
    visitBufferLoad(const BufferLoadNode *op) override
    {
        ok = ok && scan_.written.count(op->buffer->data.get()) == 0;
        ExprVisitor::visitBufferLoad(op);
    }

  private:
    const BodyScan &scan_;
};

/**
 * Collects the maximal invariant loads that run on every iteration of
 * the scanned body, in first-visit order, without duplicates.
 */
class CandidateCollector : public StmtVisitor
{
  public:
    explicit CandidateCollector(const BodyScan &scan) : scan_(scan) {}

    std::vector<Expr> loads;

    void
    visitExpr(const Expr &e) override
    {
        if (e->kind == ExprKind::kBufferLoad) {
            InvariantCheck check(scan_);
            check.visitExpr(e);
            if (check.ok) {
                for (const Expr &seen : loads) {
                    if (sameLoad(seen, e)) {
                        return;
                    }
                }
                loads.push_back(e);
                return;
            }
        }
        StmtVisitor::visitExpr(e);
    }

  protected:
    void
    visitFor(const ForNode *op) override
    {
        visitExpr(op->minValue);
        visitExpr(op->extent);
        int64_t extent = 0;
        if (tryConstInt(op->extent, &extent) && extent > 0) {
            visitStmt(op->body);
        }
    }

    void
    visitBlock(const BlockNode *op) override
    {
        // The init fires only on the first reduction step.
        visitStmt(op->body);
    }

    void
    visitIfThenElse(const IfThenElseNode *op) override
    {
        visitExpr(op->cond);
    }

    void
    visitSelect(const SelectNode *op) override
    {
        visitExpr(op->cond);
    }

    void
    visitBinary(const BinaryNode *op) override
    {
        // The right operand of && and || may short-circuit away.
        if (op->kind == ExprKind::kAnd || op->kind == ExprKind::kOr) {
            visitExpr(op->a);
            return;
        }
        StmtVisitor::visitBinary(op);
    }

  private:
    const BodyScan &scan_;
};

/** Replaces every occurrence of a hoisted load by its variable. */
class LoadReplacer : public StmtMutator
{
  public:
    LoadReplacer(const std::vector<Expr> &loads,
                 const std::vector<Var> &vars)
        : loads_(loads), vars_(vars)
    {}

  protected:
    Expr
    mutateBufferLoad(const BufferLoadNode *op, const Expr &e) override
    {
        for (size_t i = 0; i < loads_.size(); ++i) {
            if (sameLoad(loads_[i], e)) {
                return vars_[i];
            }
        }
        return StmtMutator::mutateBufferLoad(op, e);
    }

  private:
    const std::vector<Expr> &loads_;
    const std::vector<Var> &vars_;
};

/**
 * Integer immediates and variables, `+ - * min max`, integer casts,
 * and `floordiv`/`floormod` by a non-zero constant: no memory read,
 * no fault.
 */
bool
pureInt(const Expr &e)
{
    if (!e->dtype.isInt()) {
        return false;
    }
    switch (e->kind) {
      case ExprKind::kIntImm:
      case ExprKind::kVar:
        return true;
      case ExprKind::kCast:
        return pureInt(static_cast<const CastNode *>(e.get())->value);
      case ExprKind::kAdd:
      case ExprKind::kSub:
      case ExprKind::kMul:
      case ExprKind::kMin:
      case ExprKind::kMax: {
        auto op = static_cast<const BinaryNode *>(e.get());
        return pureInt(op->a) && pureInt(op->b);
      }
      case ExprKind::kFloorDiv:
      case ExprKind::kFloorMod: {
        auto op = static_cast<const BinaryNode *>(e.get());
        int64_t divisor = 0;
        return tryConstInt(op->b, &divisor) && divisor != 0 &&
               pureInt(op->a);
      }
      default:
        return false;
    }
}

/**
 * Replaces each maximal invariant pure integer expression of a loop
 * body by a variable, appending (variable, value) for new ones.
 */
class ArithHoister : public StmtMutator
{
  public:
    ArithHoister(const BodyScan &scan, std::string name,
                 std::vector<Var> *vars, std::vector<Expr> *values)
        : scan_(scan), name_(std::move(name)), vars_(vars),
          values_(values)
    {}

    Expr
    mutateExpr(const Expr &e) override
    {
        if (e->kind == ExprKind::kVar || e->kind == ExprKind::kIntImm ||
            !pureInt(e)) {
            return StmtMutator::mutateExpr(e);
        }
        InvariantCheck check(scan_);
        check.visitExpr(e);
        if (!check.ok) {
            return StmtMutator::mutateExpr(e);
        }
        for (size_t i = 0; i < values_->size(); ++i) {
            if (structuralEqual((*values_)[i], e)) {
                return (*vars_)[i];
            }
        }
        vars_->push_back(
            var(name_ + std::to_string(count_++), e->dtype));
        values_->push_back(e);
        return vars_->back();
    }

  private:
    const BodyScan &scan_;
    std::string name_;
    std::vector<Var> *vars_;
    std::vector<Expr> *values_;
    int count_ = 0;
};

/**
 * floordiv(x, c) * c + floormod(x, c) -> x for a non-zero constant c
 * (the multiply's operands and the sum's terms in either order). That
 * is floor division's identity, so it holds for every x, negative
 * ones included, and the dropped divides could not fault. x must not
 * call anything: an atomic in it would run once instead of twice.
 */
class FloorIdentity : public StmtMutator
{
  protected:
    Expr
    mutateBinary(const BinaryNode *op, const Expr &e) override
    {
        Expr result = StmtMutator::mutateBinary(op, e);
        if (result->kind != ExprKind::kAdd) {
            return result;
        }
        auto sum = static_cast<const BinaryNode *>(result.get());
        Expr x;
        if (!recomposes(sum->a, sum->b, &x) &&
            !recomposes(sum->b, sum->a, &x)) {
            return result;
        }
        return x->dtype == result->dtype ? x : cast(result->dtype, x);
    }

  private:
    /** `product` is floordiv(x, c) * c and `rest` floormod(x, c). */
    static bool
    recomposes(const Expr &product, const Expr &rest, Expr *x)
    {
        if (product->kind != ExprKind::kMul ||
            rest->kind != ExprKind::kFloorMod) {
            return false;
        }
        auto mul = static_cast<const BinaryNode *>(product.get());
        auto mod = static_cast<const BinaryNode *>(rest.get());
        const BinaryNode *div = nullptr;
        Expr factor;
        for (const auto &[q, f] : {std::pair{mul->a, mul->b},
                                   std::pair{mul->b, mul->a}}) {
            if (q->kind == ExprKind::kFloorDiv) {
                div = static_cast<const BinaryNode *>(q.get());
                factor = f;
                break;
            }
        }
        int64_t c = 0;
        int64_t c_mul = 0;
        int64_t c_mod = 0;
        if (div == nullptr || !tryConstInt(div->b, &c) || c == 0 ||
            !tryConstInt(factor, &c_mul) || !tryConstInt(mod->b, &c_mod) ||
            c_mul != c || c_mod != c || !structuralEqual(div->a, mod->a) ||
            callsAnything(div->a)) {
            return false;
        }
        *x = div->a;
        return true;
    }

    static bool
    callsAnything(const Expr &e)
    {
        struct Calls : ExprVisitor
        {
            bool found = false;

            void
            visitCall(const CallNode *op) override
            {
                found = true;
            }
        } calls;
        calls.visitExpr(e);
        return calls.found;
    }
};

class Hoister : public StmtMutator
{
  protected:
    Stmt
    mutateFor(const ForNode *op, const Stmt &s) override
    {
        BodyScan scan;
        scan.bound.insert(op->loopVar.get());
        scan.visitStmt(op->body);
        std::vector<Var> vars;
        std::vector<Expr> values;
        Stmt body = op->body;
        int64_t extent = 0;
        if (op->forKind == ForKind::kSerial &&
            tryConstInt(op->extent, &extent) && extent > 0) {
            CandidateCollector collector(scan);
            collector.visitStmt(body);
            for (const Expr &load : collector.loads) {
                auto node = static_cast<const BufferLoadNode *>(load.get());
                vars.push_back(var(node->buffer->name + "_h", load->dtype));
            }
            values = collector.loads;
            body = LoadReplacer(values, vars).mutateStmt(body);
        }
        // After the loads, so arithmetic over a hoisted load's
        // variable (its bind precedes the loop) leaves as well.
        body = ArithHoister(scan, op->loopVar->name + "_inv", &vars,
                            &values)
                   .mutateStmt(body);
        // Then the inner loops, which see what stayed.
        body = mutateStmt(body);
        Stmt result = s;
        if (body != op->body) {
            auto node = std::make_shared<ForNode>(*op);
            node->body = std::move(body);
            result = node;
        }
        for (size_t i = vars.size(); i-- > 0;) {
            result = letStmt(vars[i], values[i], result);
        }
        return result;
    }
};

} // namespace

PrimFunc
hoistInvariants(const PrimFunc &func)
{
    PrimFunc result = copyFunc(func);
    Hoister hoister;
    result->body =
        hoister.mutateStmt(FloorIdentity().mutateStmt(func->body));
    return result;
}

} // namespace transform
} // namespace sparsetir
