#include "transform/hoist_invariant_loads.h"

#include <set>
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

class Hoister : public StmtMutator
{
  protected:
    Stmt
    mutateFor(const ForNode *op, const Stmt &s) override
    {
        Stmt visited = StmtMutator::mutateFor(op, s);
        auto loop = static_cast<const ForNode *>(visited.get());
        int64_t extent = 0;
        if (loop->forKind != ForKind::kSerial ||
            !tryConstInt(loop->extent, &extent) || extent <= 0) {
            return visited;
        }
        BodyScan scan;
        scan.bound.insert(loop->loopVar.get());
        scan.visitStmt(loop->body);
        CandidateCollector collector(scan);
        collector.visitStmt(loop->body);
        if (collector.loads.empty()) {
            return visited;
        }
        std::vector<Var> vars;
        for (const Expr &load : collector.loads) {
            auto node = static_cast<const BufferLoadNode *>(load.get());
            vars.push_back(var(node->buffer->name + "_h", load->dtype));
        }
        LoadReplacer replacer(collector.loads, vars);
        auto node = std::make_shared<ForNode>(*loop);
        node->body = replacer.mutateStmt(loop->body);
        Stmt result = node;
        for (size_t i = vars.size(); i-- > 0;) {
            result = letStmt(vars[i], collector.loads[i], result);
        }
        return result;
    }
};

} // namespace

PrimFunc
hoistInvariantLoads(const PrimFunc &func)
{
    PrimFunc result = copyFunc(func);
    Hoister hoister;
    result->body = hoister.mutateStmt(func->body);
    return result;
}

} // namespace transform
} // namespace sparsetir
