#include "transform/format_decompose.h"

#include <algorithm>
#include <cctype>

#include "ir/analysis.h"
#include "ir/builder.h"
#include "ir/functor.h"

namespace sparsetir {
namespace transform {

using namespace ir;

namespace {

/** Does the statement access a buffer with the given name? */
bool
accessesBuffer(const Stmt &s, const std::string &buffer_name)
{
    for (const auto &access : collectBufferAccesses(s)) {
        if (access.buffer->name == buffer_name) {
            return true;
        }
    }
    return false;
}

std::string
lowered(const std::string &name)
{
    std::string out = name;
    for (auto &c : out) {
        c = static_cast<char>(std::tolower(c));
    }
    return out;
}

/**
 * Rewrites accesses of the original buffer into the new buffer and
 * substitutes original iteration variables by inverse-mapped
 * coordinate expressions.
 */
class BodyRewriter : public StmtMutator
{
  public:
    BodyRewriter(const Buffer &old_buffer, const Buffer &new_buffer,
                 const std::vector<Expr> &new_buffer_indices,
                 const std::map<const VarNode *, Expr> &var_subst)
        : oldBuffer_(old_buffer), newBuffer_(new_buffer),
          newIndices_(new_buffer_indices), varSubst_(var_subst)
    {}

  protected:
    Expr
    mutateVar(const VarNode *op, const Expr &e) override
    {
        auto it = varSubst_.find(op);
        return it != varSubst_.end() ? it->second : e;
    }

    Expr
    mutateBufferLoad(const BufferLoadNode *op, const Expr &e) override
    {
        if (op->buffer.get() == oldBuffer_.get()) {
            return bufferLoad(newBuffer_, newIndices_);
        }
        return StmtMutator::mutateBufferLoad(op, e);
    }

    Stmt
    mutateBufferStore(const BufferStoreNode *op, const Stmt &s) override
    {
        Expr value = mutateExpr(op->value);
        if (op->buffer.get() == oldBuffer_.get()) {
            return bufferStore(newBuffer_, newIndices_, std::move(value));
        }
        std::vector<Expr> indices;
        for (const auto &idx : op->indices) {
            indices.push_back(mutateExpr(idx));
        }
        return bufferStore(op->buffer, std::move(indices),
                           std::move(value));
    }

  private:
    const Buffer &oldBuffer_;
    const Buffer &newBuffer_;
    const std::vector<Expr> &newIndices_;
    const std::map<const VarNode *, Expr> &varSubst_;
};

/** Build the per-rule rewritten compute iteration. */
Stmt
rewriteIterationForRule(const SparseIterationNode *op,
                        const FormatRewriteRule &rule,
                        const Buffer &old_buffer)
{
    // 1. Expand the axis list through the rule's axis map.
    std::vector<Axis> new_axes;
    std::vector<IterKind> new_kinds;
    // Original iter var -> index in op->axes.
    std::map<std::string, Axis> rule_axis_by_name;
    for (const auto &axis : rule.newAxes) {
        rule_axis_by_name[axis->name] = axis;
    }
    // Original axis index -> list of replacement axis indices in
    // new_axes (for building the inverse substitution later).
    std::vector<std::vector<size_t>> replacement(op->axes.size());
    std::vector<Var> new_vars;
    for (size_t i = 0; i < op->axes.size(); ++i) {
        auto it = rule.axisMap.find(op->axes[i]->name);
        if (it == rule.axisMap.end()) {
            // Unmapped axis: keep the axis AND its iteration variable
            // so body references stay valid.
            replacement[i] = {new_axes.size()};
            new_axes.push_back(op->axes[i]);
            new_kinds.push_back(op->iterKinds[i]);
            new_vars.push_back(op->iterVars[i]);
        } else {
            for (const auto &name : it->second) {
                auto axis_it = rule_axis_by_name.find(name);
                USER_CHECK(axis_it != rule_axis_by_name.end())
                    << "axis map of rule '" << rule.name
                    << "' references unknown new axis '" << name << "'";
                replacement[i].push_back(new_axes.size());
                new_axes.push_back(axis_it->second);
                new_kinds.push_back(op->iterKinds[i]);
                new_vars.push_back(var(lowered(axis_it->second->name),
                                       axis_it->second->idtype));
            }
        }
    }

    // 2. Inverse map: original mapped coordinates from new iter vars.
    // The inverse index map takes new-buffer-axis-order coordinates.
    std::map<std::string, Expr> new_coord_by_axis;
    for (size_t i = 0; i < new_axes.size(); ++i) {
        new_coord_by_axis[new_axes[i]->name] = new_vars[i];
    }
    std::vector<Expr> new_buffer_coords;
    for (const auto &axis : rule.newBuffer->axes) {
        auto it = new_coord_by_axis.find(axis->name);
        USER_CHECK(it != new_coord_by_axis.end())
            << "new buffer axis '" << axis->name
            << "' is not iterated after rewriting '" << op->name << "'";
        new_buffer_coords.push_back(it->second);
    }
    std::vector<Expr> old_coords = rule.invIndexMap(new_buffer_coords);
    USER_CHECK(old_coords.size() == old_buffer->axes.size())
        << "inverse index map of rule '" << rule.name << "' must produce "
        << old_buffer->axes.size() << " coordinates";

    // Substitution: old iteration vars -> inverse-mapped expressions.
    std::map<const VarNode *, Expr> var_subst;
    for (size_t d = 0; d < old_buffer->axes.size(); ++d) {
        // Which iteration variable rides this old buffer axis?
        for (size_t i = 0; i < op->axes.size(); ++i) {
            if (op->axes[i].get() == old_buffer->axes[d].get()) {
                var_subst[op->iterVars[i].get()] = old_coords[d];
            }
        }
    }

    // New-buffer access indices are the new iteration variables in
    // buffer axis order.
    BodyRewriter rewriter(old_buffer, rule.newBuffer, new_buffer_coords,
                          var_subst);
    Stmt body = rewriter.mutateStmt(op->body);
    Stmt init =
        op->init != nullptr ? rewriter.mutateStmt(op->init) : nullptr;

    auto node = std::make_shared<SparseIterationNode>(
        op->name + "_" + rule.name, std::move(new_axes),
        std::move(new_vars), std::move(new_kinds), std::move(body));
    node->init = init;
    return node;
}

/** Build the copy iteration for one rule. */
SparseIteration
makeCopyIteration(const FormatRewriteRule &rule, const Buffer &old_buffer)
{
    const std::vector<Axis> &axes = rule.newAxes;
    std::string pattern(axes.size(), 'S');
    return makeSparseIteration(
        "copy_" + rule.name, axes, pattern,
        [&](const std::vector<Var> &vars) {
            std::map<std::string, Expr> coord_by_axis;
            for (size_t i = 0; i < axes.size(); ++i) {
                coord_by_axis[axes[i]->name] = vars[i];
            }
            std::vector<Expr> store_indices;
            for (const auto &axis : rule.newBuffer->axes) {
                store_indices.push_back(coord_by_axis.at(axis->name));
            }
            std::vector<Expr> old_coords =
                rule.invIndexMap(store_indices);
            Expr value = bufferLoad(old_buffer, old_coords);
            return bufferStore(rule.newBuffer, store_indices,
                               std::move(value));
        });
}

} // namespace

DecomposeResult
decomposeFormat(const PrimFunc &func,
                const std::vector<FormatRewriteRule> &rules)
{
    USER_CHECK(func->stage == IrStage::kStage1)
        << "decomposeFormat expects a Stage I function";
    USER_CHECK(!rules.empty()) << "decomposeFormat needs at least one rule";

    DecomposeResult result;
    PrimFunc out = copyFunc(func);

    // Declare new axes, parameters and buffers.
    for (const auto &rule : rules) {
        Buffer old_buffer = func->findBuffer(rule.bufferName);
        USER_CHECK(old_buffer != nullptr)
            << "rule '" << rule.name << "' targets unknown buffer '"
            << rule.bufferName << "'";
        for (const auto &axis : rule.newAxes) {
            out->axes.push_back(axis);
            for (const Expr &size : {axis->length, axis->nnz, axis->nnzCols}) {
                auto scalar = std::dynamic_pointer_cast<const VarNode>(size);
                if (scalar != nullptr &&
                    std::none_of(out->params.begin(), out->params.end(),
                                 [&](const Var &p) { return p == scalar; })) {
                    out->params.push_back(scalar);
                }
            }
            if (axis->isVariable()) {
                out->params.push_back(axis->indptr);
            }
            if (axis->isSparse()) {
                out->params.push_back(axis->indices);
            }
        }
        out->params.push_back(rule.newBuffer->data);
        out->bufferMap.emplace_back(rule.newBuffer->data, rule.newBuffer);
    }

    // Generate the new body: copy iterations first, then per-rule
    // rewrites of every compute iteration touching the target buffer.
    std::vector<Stmt> new_body;
    for (const auto &rule : rules) {
        Buffer old_buffer = func->findBuffer(rule.bufferName);
        SparseIteration copy_iter = makeCopyIteration(rule, old_buffer);
        result.copyIterNames.push_back(copy_iter->name);
        new_body.push_back(copy_iter);
    }

    std::vector<Stmt> original;
    if (func->body != nullptr) {
        if (func->body->kind == StmtKind::kSeq) {
            auto seq_node =
                std::static_pointer_cast<const SeqStmtNode>(func->body);
            original = seq_node->seq;
        } else {
            original = {func->body};
        }
    }
    for (const auto &stmt : original) {
        if (stmt->kind != StmtKind::kSparseIteration) {
            new_body.push_back(stmt);
            continue;
        }
        auto iter =
            std::static_pointer_cast<const SparseIterationNode>(stmt);
        bool rewritten = false;
        for (const auto &rule : rules) {
            if (!accessesBuffer(stmt, rule.bufferName)) {
                continue;
            }
            Buffer old_buffer = func->findBuffer(rule.bufferName);
            Stmt new_iter =
                rewriteIterationForRule(iter.get(), rule, old_buffer);
            result.computeIterNames.push_back(
                std::static_pointer_cast<const SparseIterationNode>(
                    new_iter)
                    ->name);
            new_body.push_back(new_iter);
            rewritten = true;
        }
        if (!rewritten) {
            new_body.push_back(stmt);
        }
    }

    out->body = seq(std::move(new_body));
    result.func = out;
    return result;
}

std::pair<PrimFunc, PrimFunc>
splitPreprocess(const PrimFunc &func,
                const std::vector<std::string> &copy_names)
{
    auto is_copy = [&](const Stmt &s) {
        if (s->kind != StmtKind::kSparseIteration) {
            return false;
        }
        auto iter =
            std::static_pointer_cast<const SparseIterationNode>(s);
        return std::find(copy_names.begin(), copy_names.end(),
                         iter->name) != copy_names.end();
    };

    std::vector<Stmt> stmts;
    if (func->body->kind == StmtKind::kSeq) {
        stmts = std::static_pointer_cast<const SeqStmtNode>(func->body)
                    ->seq;
    } else {
        stmts = {func->body};
    }
    std::vector<Stmt> pre;
    std::vector<Stmt> compute;
    for (const auto &s : stmts) {
        (is_copy(s) ? pre : compute).push_back(s);
    }

    PrimFunc pre_func = copyFunc(func);
    pre_func->name = func->name + "_preprocess";
    pre_func->body = seq(std::move(pre));
    PrimFunc compute_func = copyFunc(func);
    compute_func->body = seq(std::move(compute));
    return {pre_func, compute_func};
}

} // namespace transform
} // namespace sparsetir
