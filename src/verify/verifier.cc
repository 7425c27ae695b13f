#include "verify/verifier.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "ir/analysis.h"
#include "ir/printer.h"
#include "ir/structural_equal.h"
#include "runtime/interpreter.h"
#include "support/logging.h"

namespace sparsetir {
namespace verify {

namespace {

using ir::Expr;
using ir::ExprKind;
using ir::Stmt;
using ir::StmtKind;

std::string
oneLine(std::string s)
{
    while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) {
        s.pop_back();
    }
    auto nl = s.find('\n');
    if (nl != std::string::npos) {
        s = s.substr(0, nl) + " ...";
    }
    return s;
}

/**
 * Mirror of the engine's AccumFinder (engine/executor.cc): a store to
 * a handle-param buffer counts as a reduction when its value re-loads
 * the stored location, except for buffers initialized in an enclosing
 * Block's init (reduce-with-init outputs get their safety from
 * disjointness, not ordering). kAtomicAdd on a param buffer is
 * always a reduction. The verifier must classify stores exactly like
 * the executor does, or its race verdicts would diverge from the
 * machinery that acts on them.
 */
class DerivedAccumScan
{
  public:
    explicit DerivedAccumScan(const ir::PrimFunc &func)
    {
        for (const auto &param : func->params) {
            if (param->dtype.isHandle()) {
                params_.insert(param.get());
            }
        }
        scanStmt(func->body);
    }

    const std::set<std::string> &found() const { return found_; }

  private:
    void
    scanStmt(const Stmt &s)
    {
        if (s == nullptr) {
            return;
        }
        switch (s->kind) {
        case StmtKind::kBufferStore: {
            const auto *op = static_cast<const ir::BufferStoreNode *>(s.get());
            const ir::VarNode *data = op->buffer->data.get();
            if (params_.count(data) && !initWritten_.count(data) &&
                valueReloads(op->value, op)) {
                found_.insert(data->name);
            }
            for (const Expr &index : op->indices) {
                scanExpr(index);
            }
            scanExpr(op->value);
            return;
        }
        case StmtKind::kSeq:
            for (const auto &child :
                 static_cast<const ir::SeqStmtNode *>(s.get())->seq) {
                scanStmt(child);
            }
            return;
        case StmtKind::kFor: {
            const auto *op = static_cast<const ir::ForNode *>(s.get());
            scanExpr(op->minValue);
            scanExpr(op->extent);
            scanStmt(op->body);
            return;
        }
        case StmtKind::kBlock: {
            const auto *op = static_cast<const ir::BlockNode *>(s.get());
            std::vector<const ir::VarNode *> pushed;
            if (op->init != nullptr) {
                for (const ir::BufferAccess &access :
                     ir::collectBufferAccesses(op->init)) {
                    if (access.isWrite) {
                        const ir::VarNode *data = access.buffer->data.get();
                        if (initWritten_.insert(data).second) {
                            pushed.push_back(data);
                        }
                    }
                }
            }
            scanStmt(op->init);
            scanStmt(op->body);
            for (const ir::VarNode *data : pushed) {
                initWritten_.erase(data);
            }
            return;
        }
        case StmtKind::kIfThenElse: {
            const auto *op = static_cast<const ir::IfThenElseNode *>(s.get());
            scanExpr(op->cond);
            scanStmt(op->thenBody);
            scanStmt(op->elseBody);
            return;
        }
        case StmtKind::kLetStmt: {
            const auto *op = static_cast<const ir::LetStmtNode *>(s.get());
            scanExpr(op->value);
            scanStmt(op->body);
            return;
        }
        case StmtKind::kAllocate:
            scanStmt(static_cast<const ir::AllocateNode *>(s.get())->body);
            return;
        case StmtKind::kEvaluate:
            scanExpr(static_cast<const ir::EvaluateNode *>(s.get())->value);
            return;
        default:
            return;
        }
    }

    void
    scanExpr(const Expr &e)
    {
        if (e == nullptr) {
            return;
        }
        switch (e->kind) {
        case ExprKind::kCall: {
            const auto *op = static_cast<const ir::CallNode *>(e.get());
            if (op->op == ir::Builtin::kAtomicAdd &&
                op->bufferArg != nullptr &&
                params_.count(op->bufferArg->data.get())) {
                found_.insert(op->bufferArg->data->name);
            }
            for (const Expr &arg : op->args) {
                scanExpr(arg);
            }
            return;
        }
        case ExprKind::kAdd:
        case ExprKind::kSub:
        case ExprKind::kMul:
        case ExprKind::kFloorDiv:
        case ExprKind::kFloorMod:
        case ExprKind::kDiv:
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
            const auto *op = static_cast<const ir::BinaryNode *>(e.get());
            scanExpr(op->a);
            scanExpr(op->b);
            return;
        }
        case ExprKind::kNot:
            scanExpr(static_cast<const ir::NotNode *>(e.get())->a);
            return;
        case ExprKind::kSelect: {
            const auto *op = static_cast<const ir::SelectNode *>(e.get());
            scanExpr(op->cond);
            scanExpr(op->trueValue);
            scanExpr(op->falseValue);
            return;
        }
        case ExprKind::kCast:
            scanExpr(static_cast<const ir::CastNode *>(e.get())->value);
            return;
        case ExprKind::kBufferLoad:
            for (const Expr &index :
                 static_cast<const ir::BufferLoadNode *>(e.get())->indices) {
                scanExpr(index);
            }
            return;
        default:
            return;
        }
    }

    bool
    valueReloads(const Expr &value, const ir::BufferStoreNode *store)
    {
        if (value == nullptr) {
            return false;
        }
        if (value->kind == ExprKind::kBufferLoad) {
            const auto *load =
                static_cast<const ir::BufferLoadNode *>(value.get());
            if (load->buffer->data.get() == store->buffer->data.get() &&
                load->indices.size() == store->indices.size()) {
                bool same = true;
                for (size_t i = 0; i < load->indices.size(); ++i) {
                    if (!ir::structuralEqual(load->indices[i],
                                             store->indices[i])) {
                        same = false;
                        break;
                    }
                }
                if (same) {
                    return true;
                }
            }
        }
        switch (value->kind) {
        case ExprKind::kAdd:
        case ExprKind::kSub:
        case ExprKind::kMul:
        case ExprKind::kFloorDiv:
        case ExprKind::kFloorMod:
        case ExprKind::kDiv:
        case ExprKind::kMin:
        case ExprKind::kMax: {
            const auto *op = static_cast<const ir::BinaryNode *>(value.get());
            return valueReloads(op->a, store) || valueReloads(op->b, store);
        }
        case ExprKind::kSelect: {
            const auto *op = static_cast<const ir::SelectNode *>(value.get());
            return valueReloads(op->trueValue, store) ||
                   valueReloads(op->falseValue, store);
        }
        case ExprKind::kCast:
            return valueReloads(
                static_cast<const ir::CastNode *>(value.get())->value, store);
        case ExprKind::kCall: {
            const auto *op = static_cast<const ir::CallNode *>(value.get());
            for (const Expr &arg : op->args) {
                if (valueReloads(arg, store)) {
                    return true;
                }
            }
            return false;
        }
        default:
            return false;
        }
    }

    std::set<const ir::VarNode *> params_;
    std::set<const ir::VarNode *> initWritten_;
    std::set<std::string> found_;
};

class FuncVerifier
{
  public:
    FuncVerifier(const ir::PrimFunc &func, const VerifyContext &ctx)
        : func_(func), ctx_(ctx)
    {}

    VerifyResult
    run()
    {
        for (const auto &kv : ctx_.facts) {
            az_.addFact(kv.first, kv.second);
        }
        for (const auto &[param, buffer] : func_->bufferMap) {
            paramData_.insert(buffer->data.get());
        }
        DerivedAccumScan scan(func_);
        derivedAccums_ = scan.found();
        raceSafeBuffers_ = derivedAccums_;
        if (ctx_.hasAccumSpec) {
            for (const AccumWriteSet &accum : ctx_.accums) {
                raceSafeBuffers_.insert(accum.buffer);
            }
            checkAccumSpecs();
        }
        blockLoop_ = runtime::findBlockIdxLoop(func_->body);
        walkStmt(func_->body);
        result_.proofSteps = az_.proofSteps();
        return std::move(result_);
    }

  private:
    // --- accum-spec-level checks (independent of any statement) ------

    void
    checkAccumSpecs()
    {
        std::set<std::string> declared;
        for (const AccumWriteSet &accum : ctx_.accums) {
            declared.insert(accum.buffer);
            if (!accum.blockHulls.empty()) {
                checkHullsCoverRows(accum);
            }
        }
        for (const std::string &name : derivedAccums_) {
            if (!declared.count(name)) {
                report(DiagCategory::kWriteSetViolation, name,
                       "kernel reduces into '" + name +
                           "' but no AccumOutput declares it; the task "
                           "graph would not order it",
                       "(accum spec)");
            }
        }
    }

    /**
     * Concrete half of the hull obligation: the row slot of every
     * entry i of `rows` lies in the hull of its block i / rowsPerBlock.
     */
    void
    checkHullsCoverRows(const AccumWriteSet &accum)
    {
        std::string anchor = "(accum spec '" + accum.buffer + "')";
        if (accum.rows == nullptr || accum.rowWidth <= 0 ||
            accum.rowsPerBlock <= 0 || accum.rowsBuffer.empty()) {
            report(DiagCategory::kWriteSetViolation, accum.buffer,
                   "block hulls need the row buffer, its concrete rows, "
                   "a positive row width and rows per block",
                   anchor);
            return;
        }
        const std::vector<int32_t> &rows = *accum.rows;
        for (size_t i = 0; i < rows.size(); ++i) {
            size_t block = i / static_cast<size_t>(accum.rowsPerBlock);
            int64_t begin = static_cast<int64_t>(rows[i]) * accum.rowWidth;
            int64_t end = begin + accum.rowWidth;
            if (block >= accum.blockHulls.size()) {
                report(DiagCategory::kWriteSetViolation, accum.buffer,
                       "row entry " + std::to_string(i) + " falls in block " +
                           std::to_string(block) + ", which has no hull",
                       anchor);
                return;
            }
            const auto &hull = accum.blockHulls[block];
            if (begin < hull.first || end > hull.second) {
                report(DiagCategory::kWriteSetViolation, accum.buffer,
                       "row " + std::to_string(rows[i]) + " of block " +
                           std::to_string(block) + " writes [" +
                           std::to_string(begin) + ", " +
                           std::to_string(end) + ") outside its hull [" +
                           std::to_string(hull.first) + ", " +
                           std::to_string(hull.second) + ")",
                       anchor);
                return;
            }
        }
    }

    // --- statement walk ----------------------------------------------

    void
    walkStmt(const Stmt &s)
    {
        if (s == nullptr) {
            return;
        }
        switch (s->kind) {
        case StmtKind::kBufferStore: {
            const auto *op = static_cast<const ir::BufferStoreNode *>(s.get());
            anchor_ = oneLine(ir::stmtToString(s));
            for (const Expr &index : op->indices) {
                walkExpr(index);
            }
            walkExpr(op->value);
            checkAccess(op->buffer, op->indices);
            if (!op->indices.empty()) {
                checkWriteSet(op->buffer, op->indices[0]);
                checkRace(op->buffer, op->indices[0]);
            }
            return;
        }
        case StmtKind::kSeq:
            for (const auto &child :
                 static_cast<const ir::SeqStmtNode *>(s.get())->seq) {
                walkStmt(child);
            }
            return;
        case StmtKind::kFor: {
            const auto *op = static_cast<const ir::ForNode *>(s.get());
            anchor_ = "for " + op->loopVar->name + " in range(" +
                      ir::exprToString(op->minValue) + ", ..+" +
                      ir::exprToString(op->extent) + ")";
            walkExpr(op->minValue);
            walkExpr(op->extent);
            az_.pushLoopVar(op->loopVar, op->minValue, op->extent);
            bool wasInBlockLoop = inBlockLoop_;
            if (op == blockLoop_) {
                inBlockLoop_ = true;
                blockVar_ = op->loopVar;
            }
            walkStmt(op->body);
            inBlockLoop_ = wasInBlockLoop;
            az_.popLoopVar(op->loopVar);
            return;
        }
        case StmtKind::kBlock: {
            const auto *op = static_cast<const ir::BlockNode *>(s.get());
            if (op->init != nullptr) {
                // Init runs on the iterations where every reduce var is
                // zero; its accesses may rely on that.
                int pushed = 0;
                for (const ir::Var &rv : op->reduceVars) {
                    pushed += az_.pushConstraints(ir::eq(rv, ir::intImm(0)),
                                                  false);
                }
                walkStmt(op->init);
                az_.popConstraints(pushed);
            }
            walkStmt(op->body);
            return;
        }
        case StmtKind::kIfThenElse: {
            const auto *op = static_cast<const ir::IfThenElseNode *>(s.get());
            anchor_ = "if " + ir::exprToString(op->cond) + ":";
            walkExpr(op->cond);
            int pushed = az_.pushConstraints(op->cond, false);
            walkStmt(op->thenBody);
            az_.popConstraints(pushed);
            if (op->elseBody != nullptr) {
                pushed = az_.pushConstraints(op->cond, true);
                walkStmt(op->elseBody);
                az_.popConstraints(pushed);
            }
            return;
        }
        case StmtKind::kLetStmt: {
            const auto *op = static_cast<const ir::LetStmtNode *>(s.get());
            anchor_ = "let " + op->letVar->name + " = " +
                      ir::exprToString(op->value);
            walkExpr(op->value);
            az_.pushLet(op->letVar, op->value);
            walkStmt(op->body);
            az_.popLet(op->letVar);
            return;
        }
        case StmtKind::kAllocate: {
            const auto *op = static_cast<const ir::AllocateNode *>(s.get());
            const ir::VarNode *data = op->buffer->data.get();
            bool isPrivate = inBlockLoop_ || blockLoop_ == nullptr;
            if (isPrivate) {
                privateBuffers_.insert(data);
            } else {
                sharedAllocs_.insert(data);
            }
            walkStmt(op->body);
            if (isPrivate) {
                privateBuffers_.erase(data);
            } else {
                sharedAllocs_.erase(data);
            }
            return;
        }
        case StmtKind::kEvaluate:
            anchor_ = oneLine(ir::stmtToString(s));
            walkExpr(static_cast<const ir::EvaluateNode *>(s.get())->value);
            return;
        default:
            report(DiagCategory::kOutOfBounds, "",
                   "statement kind not valid in Stage III",
                   oneLine(ir::stmtToString(s)));
            return;
        }
    }

    void
    walkExpr(const Expr &e)
    {
        if (e == nullptr) {
            return;
        }
        switch (e->kind) {
        case ExprKind::kBufferLoad: {
            const auto *op = static_cast<const ir::BufferLoadNode *>(e.get());
            for (const Expr &index : op->indices) {
                walkExpr(index);
            }
            checkAccess(op->buffer, op->indices);
            if (op->indices.size() == 1) {
                checkWriteSet(op->buffer, op->indices[0]);
            }
            return;
        }
        case ExprKind::kCall: {
            const auto *op = static_cast<const ir::CallNode *>(e.get());
            for (const Expr &arg : op->args) {
                walkExpr(arg);
            }
            checkCall(op);
            return;
        }
        case ExprKind::kAdd:
        case ExprKind::kSub:
        case ExprKind::kMul:
        case ExprKind::kFloorDiv:
        case ExprKind::kFloorMod:
        case ExprKind::kDiv:
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
            const auto *op = static_cast<const ir::BinaryNode *>(e.get());
            walkExpr(op->a);
            walkExpr(op->b);
            return;
        }
        case ExprKind::kNot:
            walkExpr(static_cast<const ir::NotNode *>(e.get())->a);
            return;
        case ExprKind::kSelect: {
            // Both arms are checked unconditionally: the interpreter
            // evaluates eagerly, so an unguarded arm must be safe.
            const auto *op = static_cast<const ir::SelectNode *>(e.get());
            walkExpr(op->cond);
            walkExpr(op->trueValue);
            walkExpr(op->falseValue);
            return;
        }
        case ExprKind::kCast:
            walkExpr(static_cast<const ir::CastNode *>(e.get())->value);
            return;
        case ExprKind::kRamp: {
            const auto *op = static_cast<const ir::RampNode *>(e.get());
            walkExpr(op->base);
            walkExpr(op->stride);
            return;
        }
        case ExprKind::kBroadcast:
            walkExpr(static_cast<const ir::BroadcastNode *>(e.get())->value);
            return;
        default:
            return;
        }
    }

    // --- the three checks --------------------------------------------

    void
    checkAccess(const ir::Buffer &buffer, const std::vector<Expr> &indices)
    {
        if (buffer == nullptr) {
            return;
        }
        if (indices.size() != buffer->ndim()) {
            report(DiagCategory::kOutOfBounds, buffer->name,
                   "access has " + std::to_string(indices.size()) +
                       " indices but the buffer has " +
                       std::to_string(buffer->ndim()) + " dimension(s)",
                   anchor_);
            return;
        }
        for (size_t i = 0; i < indices.size(); ++i) {
            LinExpr idx = az_.toLinExpr(indices[i]);
            if (!az_.proveNonNeg(idx)) {
                report(DiagCategory::kOutOfBounds, buffer->name,
                       "cannot prove 0 <= " + ir::exprToString(indices[i]),
                       anchor_);
            }
            LinExpr extent = az_.toLinExpr(buffer->dimExtent(i));
            if (!az_.proveNonNeg(extent - idx - LinExpr::constant_(1))) {
                report(DiagCategory::kOutOfBounds, buffer->name,
                       "cannot prove " + ir::exprToString(indices[i]) +
                           " < " + ir::exprToString(buffer->dimExtent(i)),
                       anchor_);
            }
        }
    }

    void
    checkCall(const ir::CallNode *op)
    {
        if ((op->op == ir::Builtin::kLowerBound ||
             op->op == ir::Builtin::kUpperBound) &&
            op->args.size() == 3 && op->bufferArg != nullptr &&
            op->bufferArg->ndim() == 1) {
            // The search scans positions [lo, hi) of bufferArg; the
            // interpreter hard-aborts on lo < 0 or hi > numel.
            if (!az_.proveNonNeg(op->args[0])) {
                report(DiagCategory::kOutOfBounds, op->bufferArg->name,
                       "cannot prove search lo 0 <= " +
                           ir::exprToString(op->args[0]),
                       anchor_);
            }
            LinExpr hi = az_.toLinExpr(op->args[1]);
            LinExpr extent = az_.toLinExpr(op->bufferArg->dimExtent(0));
            if (!az_.proveNonNeg(extent - hi)) {
                report(DiagCategory::kOutOfBounds, op->bufferArg->name,
                       "cannot prove search hi " +
                           ir::exprToString(op->args[1]) + " <= " +
                           ir::exprToString(op->bufferArg->dimExtent(0)),
                       anchor_);
            }
        }
        if (op->op == ir::Builtin::kAtomicAdd && !op->args.empty() &&
            op->bufferArg != nullptr) {
            checkAccess(op->bufferArg, {op->args[0]});
            checkWriteSet(op->bufferArg, op->args[0]);
            // Atomic updates cannot lose writes; no race check needed.
        }
    }

    const AccumWriteSet *
    declaredAccumFor(const ir::Buffer &buffer) const
    {
        if (!ctx_.hasAccumSpec) {
            return nullptr;
        }
        for (const AccumWriteSet &accum : ctx_.accums) {
            if (accum.buffer == buffer->data->name ||
                accum.buffer == buffer->name) {
                return &accum;
            }
        }
        return nullptr;
    }

    /**
     * Symbolic half of the hull obligation: an access of grid block b
     * to a hull-declaring output (its accumulating load, store or
     * atomic update) is confined to the row slot of a `rowsBuffer`
     * entry in b's rows, and b has a hull.
     */
    void
    checkWriteSet(const ir::Buffer &buffer, const Expr &index)
    {
        const AccumWriteSet *accum = declaredAccumFor(buffer);
        if (accum == nullptr || accum->blockHulls.empty()) {
            return;
        }
        if (accum->rowWidth > 0 && accum->rowsPerBlock > 0 &&
            inBlockLoop_ && provenInBlockRows(*accum, index)) {
            return;
        }
        report(DiagCategory::kWriteSetViolation, buffer->name,
               "cannot prove access index " + ir::exprToString(index) +
                   " stays inside its grid block's declared hull",
               anchor_);
    }

    bool
    provenInBlockRows(const AccumWriteSet &accum, const Expr &index)
    {
        LinExpr block = az_.toLinExpr(blockVar_);
        int64_t num_hulls = static_cast<int64_t>(accum.blockHulls.size());
        if (!az_.proveNonNeg(LinExpr::constant_(num_hulls - 1) - block)) {
            return false;
        }
        LinExpr idx = az_.toLinExpr(index);
        for (int atomId : az_.loadAtomsOf(idx, accum.rowsBuffer)) {
            const auto *load = static_cast<const ir::BufferLoadNode *>(
                az_.atomSource(atomId).get());
            if (load->indices.size() != 1) {
                continue;
            }
            LinExpr slot = az_.atomExpr(atomId) * accum.rowWidth;
            LinExpr entry = az_.toLinExpr(load->indices[0]);
            LinExpr first = block * accum.rowsPerBlock;
            if (az_.proveNonNeg(idx - slot) &&
                az_.proveNonNeg(slot +
                                LinExpr::constant_(accum.rowWidth - 1) -
                                idx) &&
                az_.proveNonNeg(entry - first) &&
                az_.proveNonNeg(first +
                                LinExpr::constant_(accum.rowsPerBlock - 1) -
                                entry)) {
                return true;
            }
        }
        return false;
    }

    void
    checkRace(const ir::Buffer &buffer, const Expr &index)
    {
        if (blockLoop_ == nullptr) {
            return; // no parallel axis
        }
        const ir::VarNode *data = buffer->data.get();
        if (privateBuffers_.count(data)) {
            return; // fresh allocation per parallel iteration
        }
        bool isParam = paramData_.count(data) != 0;
        if (isParam && raceSafeBuffers_.count(data->name)) {
            return; // recognized reduction: ordered by the task graph
        }
        if (!isParam && !sharedAllocs_.count(data)) {
            // Allocated buffer that is neither private nor recorded as
            // shared — defensive: treat as private (cannot happen with
            // a well-formed walk).
            return;
        }
        if (!inBlockLoop_) {
            report(DiagCategory::kParallelRace, buffer->name,
                   "store outside the blockIdx.x loop is replayed by "
                   "every parallel chunk",
                   anchor_);
            return;
        }
        LinExpr idx = az_.toLinExpr(index);
        if (!az_.proveBlockDisjoint(idx, blockVar_)) {
            report(DiagCategory::kParallelRace, buffer->name,
                   "cannot prove distinct blockIdx.x iterations write "
                   "disjoint locations of '" +
                       buffer->name + "' via index " +
                       ir::exprToString(index),
                   anchor_);
        }
    }

    void
    report(DiagCategory category, const std::string &buffer,
           const std::string &message, const std::string &stmt)
    {
        std::string dedup = std::to_string(static_cast<int>(category)) + "|" +
                            buffer + "|" + message + "|" + stmt;
        if (!seen_.insert(dedup).second) {
            return;
        }
        result_.ok = false;
        result_.diagnostics.push_back(
            Diagnostic{category, buffer, message, stmt});
    }

    ir::PrimFunc func_;
    const VerifyContext &ctx_;
    AffineAnalyzer az_;
    VerifyResult result_;
    std::set<std::string> seen_;

    std::set<const ir::VarNode *> paramData_;
    std::set<std::string> derivedAccums_;
    std::set<std::string> raceSafeBuffers_;
    std::set<const ir::VarNode *> privateBuffers_;
    std::set<const ir::VarNode *> sharedAllocs_;
    const ir::ForNode *blockLoop_ = nullptr;
    ir::Var blockVar_;
    bool inBlockLoop_ = false;
    std::string anchor_;
};

} // namespace

const char *
diagCategoryName(DiagCategory category)
{
    switch (category) {
    case DiagCategory::kOutOfBounds:
        return "out-of-bounds";
    case DiagCategory::kWriteSetViolation:
        return "write-set";
    case DiagCategory::kParallelRace:
        return "parallel-race";
    }
    return "unknown";
}

std::string
formatDiagnostics(const VerifyResult &result)
{
    std::ostringstream os;
    for (const Diagnostic &diag : result.diagnostics) {
        os << "  [" << diagCategoryName(diag.category) << "]";
        if (!diag.buffer.empty()) {
            os << " buffer '" << diag.buffer << "'";
        }
        os << ": " << diag.message << "\n    at: " << diag.stmt << "\n";
    }
    return os.str();
}

void
VerifyContext::scalar(const std::string &name, int64_t value)
{
    ValueFact fact;
    fact.lo = ir::intImm(value, ir::DataType::int64());
    fact.hi = fact.lo;
    facts[name] = fact;
}

void
VerifyContext::int32Array(const std::string &name,
                          const std::vector<int32_t> &values)
{
    ValueFact fact;
    if (!values.empty()) {
        auto [lo, hi] = std::minmax_element(values.begin(), values.end());
        fact.lo = ir::intImm(*lo, ir::DataType::int64());
        fact.hi = ir::intImm(*hi, ir::DataType::int64());
        fact.first = ir::intImm(values.front(), ir::DataType::int64());
        fact.last = ir::intImm(values.back(), ir::DataType::int64());
        fact.sorted = std::is_sorted(values.begin(), values.end());
    } else {
        // No elements: every loop over the array has extent zero, so
        // any load of its values is dynamically unreachable. The
        // degenerate range keeps the (vacuous) proofs of dominated
        // accesses discharging instead of failing on "unknown value".
        fact.lo = ir::intImm(0, ir::DataType::int64());
        fact.hi = fact.lo;
    }
    facts[name] = fact;
}

VerifyResult
verifyFunc(const ir::PrimFunc &func, const VerifyContext &ctx)
{
    ICHECK(func != nullptr);
    ICHECK(func->stage == ir::IrStage::kStage3)
        << "verifyFunc expects Stage III IR, got function '" << func->name
        << "'";
    FuncVerifier verifier(func, ctx);
    return verifier.run();
}

} // namespace verify
} // namespace sparsetir
