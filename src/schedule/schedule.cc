#include "schedule/schedule.h"

#include <algorithm>
#include <map>
#include <set>

#include "ir/analysis.h"
#include "ir/functor.h"
#include "ir/simplify.h"
#include "ir/structural_equal.h"

namespace sparsetir {
namespace schedule {

using namespace ir;

namespace {

/** Non-owning Stmt view of a node inside an owned tree. */
Stmt
borrowStmt(const StmtNode *node)
{
    return Stmt(Stmt(), node);
}

/** Find the For node with the given loop var name; error if absent. */
class LoopFinder : public StmtVisitor
{
  public:
    explicit LoopFinder(const std::string &name) : name_(name) {}

    const ForNode *found = nullptr;

  protected:
    void
    visitFor(const ForNode *op) override
    {
        if (op->loopVar->name == name_) {
            ICHECK(found == nullptr)
                << "duplicate loop name '" << name_ << "'";
            found = op;
        }
        StmtVisitor::visitFor(op);
    }

  private:
    const std::string &name_;
};

const ForNode *
findLoop(const PrimFunc &func, const std::string &name)
{
    LoopFinder finder(name);
    finder.visitStmt(func->body);
    USER_CHECK(finder.found != nullptr)
        << "no loop named '" << name << "' in function '" << func->name
        << "'";
    return finder.found;
}

/** Find a block by name; error if absent. */
class BlockFinder : public StmtVisitor
{
  public:
    explicit BlockFinder(const std::string &name) : name_(name) {}

    const BlockNode *found = nullptr;

  protected:
    void
    visitBlock(const BlockNode *op) override
    {
        if (op->name == name_) {
            found = op;
        }
        StmtVisitor::visitBlock(op);
    }

  private:
    const std::string &name_;
};

const BlockNode *
findBlock(const PrimFunc &func, const std::string &name)
{
    BlockFinder finder(name);
    finder.visitStmt(func->body);
    USER_CHECK(finder.found != nullptr)
        << "no block named '" << name << "' in function '" << func->name
        << "'";
    return finder.found;
}

/** Replace one statement node (by address) with another. */
class StmtReplacer : public StmtMutator
{
  public:
    StmtReplacer(const StmtNode *target, Stmt replacement)
        : target_(target), replacement_(std::move(replacement))
    {}

    Stmt
    mutateStmt(const Stmt &s) override
    {
        if (s.get() == target_) {
            return replacement_;
        }
        return StmtMutator::mutateStmt(s);
    }

  private:
    const StmtNode *target_;
    Stmt replacement_;
};

Stmt
replaceStmt(const Stmt &root, const StmtNode *target, Stmt replacement)
{
    StmtReplacer replacer(target, std::move(replacement));
    return replacer.mutateStmt(root);
}

/** Swap a var for a list of vars in every block's reduceVars. */
class ReduceVarRewriter : public StmtMutator
{
  public:
    ReduceVarRewriter(const VarNode *old_var, std::vector<Var> new_vars)
        : oldVar_(old_var), newVars_(std::move(new_vars))
    {}

  protected:
    Stmt
    mutateBlock(const BlockNode *op, const Stmt &s) override
    {
        Stmt mutated = StmtMutator::mutateBlock(op, s);
        auto current = static_cast<const BlockNode *>(mutated.get());
        bool has = false;
        for (const auto &rv : current->reduceVars) {
            if (rv.get() == oldVar_) {
                has = true;
                break;
            }
        }
        if (!has) {
            return mutated;
        }
        auto node = std::make_shared<BlockNode>(*current);
        std::vector<Var> rewritten;
        for (const auto &rv : node->reduceVars) {
            if (rv.get() == oldVar_) {
                for (const auto &nv : newVars_) {
                    rewritten.push_back(nv);
                }
            } else {
                rewritten.push_back(rv);
            }
        }
        node->reduceVars = std::move(rewritten);
        return node;
    }

  private:
    const VarNode *oldVar_;
    std::vector<Var> newVars_;
};

/** Is `v` a reduction var of any block under `s`? */
bool
isReductionVar(const Stmt &s, const VarNode *v)
{
    class Scanner : public StmtVisitor
    {
      public:
        explicit Scanner(const VarNode *v) : v_(v) {}
        bool found = false;

      protected:
        void
        visitBlock(const BlockNode *op) override
        {
            for (const auto &rv : op->reduceVars) {
                if (rv.get() == v_) {
                    found = true;
                }
            }
            StmtVisitor::visitBlock(op);
        }

      private:
        const VarNode *v_;
    };
    Scanner scanner(v);
    scanner.visitStmt(s);
    return scanner.found;
}

/** Loops (outermost first) on the path from root to a target node. */
class PathCollector : public StmtVisitor
{
  public:
    explicit PathCollector(const StmtNode *target) : target_(target) {}

    std::vector<const ForNode *> path;
    bool done = false;

    void
    visitStmt(const Stmt &s) override
    {
        if (done) {
            return;
        }
        if (s.get() == target_) {
            done = true;
            path = stack_;
            return;
        }
        if (s->kind == StmtKind::kFor) {
            stack_.push_back(static_cast<const ForNode *>(s.get()));
            StmtVisitor::visitStmt(s);
            if (!done) {
                stack_.pop_back();
            }
            return;
        }
        StmtVisitor::visitStmt(s);
    }

  private:
    const StmtNode *target_;
    std::vector<const ForNode *> stack_;
};

std::vector<const ForNode *>
loopsAbove(const PrimFunc &func, const StmtNode *target)
{
    PathCollector collector(target);
    collector.visitStmt(func->body);
    ICHECK(collector.done) << "target statement not found in function";
    return collector.path;
}

Stmt
makeFor(const ForNode *proto, Var loop_var, Expr min_value, Expr extent,
        Stmt body)
{
    auto node = std::make_shared<ForNode>(
        std::move(loop_var), std::move(min_value), std::move(extent),
        proto->forKind, std::move(body), proto->threadTag);
    node->annotations = proto->annotations;
    return node;
}

} // namespace

Schedule::Schedule(PrimFunc func) : func_(copyFunc(func))
{
    USER_CHECK(func_->stage != IrStage::kStage1)
        << "Stage II schedules require a lowered function; apply "
        << "lowerSparseIterations first";
}

std::vector<std::string>
Schedule::getLoops(const std::string &block_name) const
{
    const BlockNode *block = findBlock(func_, block_name);
    std::vector<std::string> names;
    for (const ForNode *loop : loopsAbove(func_, block)) {
        names.push_back(loop->loopVar->name);
    }
    return names;
}

std::pair<std::string, std::string>
Schedule::split(const std::string &name, int64_t factor)
{
    USER_CHECK(factor > 0) << "split factor must be positive";
    const ForNode *loop = findLoop(func_, name);
    USER_CHECK(isConstInt(loop->minValue, 0))
        << "split expects a zero-based loop";

    Var outer = var(name + "_o", loop->loopVar->dtype);
    Var inner = var(name + "_i", loop->loopVar->dtype);
    Expr factor_imm = intImm(factor, loop->loopVar->dtype);
    Expr fused = add(mul(outer, factor_imm), inner);

    std::map<const VarNode *, Expr> subst{{loop->loopVar.get(), fused}};
    Stmt body = substitute(loop->body, subst);

    int64_t const_extent = 0;
    bool divisible = tryConstInt(simplify(loop->extent), &const_extent) &&
                     const_extent % factor == 0;
    if (!divisible) {
        body = ifThenElse(lt(fused, loop->extent), body);
    }

    Expr outer_extent =
        divisible
            ? intImm(const_extent / factor, loop->loopVar->dtype)
            : simplify(floorDiv(
                  add(loop->extent,
                      intImm(factor - 1, loop->loopVar->dtype)),
                  factor_imm));

    // Inner loop inherits the original kind; outer becomes serial.
    auto inner_loop = std::make_shared<ForNode>(
        inner, intImm(0), factor_imm, loop->forKind, body,
        loop->threadTag);
    inner_loop->annotations = loop->annotations;
    Stmt outer_loop = forLoop(outer, intImm(0), outer_extent, inner_loop);

    Stmt new_body = replaceStmt(func_->body, loop, outer_loop);
    ReduceVarRewriter rv_rewriter(loop->loopVar.get(), {outer, inner});
    func_->body = rv_rewriter.mutateStmt(new_body);
    return {outer->name, inner->name};
}

std::string
Schedule::fuse(const std::string &outer, const std::string &inner)
{
    const ForNode *outer_loop = findLoop(func_, outer);
    USER_CHECK(outer_loop->body->kind == StmtKind::kFor)
        << "fuse requires '" << inner << "' directly nested in '" << outer
        << "'";
    auto inner_loop =
        static_cast<const ForNode *>(outer_loop->body.get());
    USER_CHECK(inner_loop->loopVar->name == inner)
        << "loop directly inside '" << outer << "' is '"
        << inner_loop->loopVar->name << "', not '" << inner << "'";
    USER_CHECK(isConstInt(outer_loop->minValue, 0) &&
               isConstInt(inner_loop->minValue, 0))
        << "fuse expects zero-based loops";

    bool outer_reduce =
        isReductionVar(func_->body, outer_loop->loopVar.get());
    bool inner_reduce =
        isReductionVar(func_->body, inner_loop->loopVar.get());
    USER_CHECK(outer_reduce == inner_reduce)
        << "cannot fuse a spatial loop with a reduction loop";

    Var fused =
        var(outer + "_" + inner + "_f", outer_loop->loopVar->dtype);
    Expr inner_extent = inner_loop->extent;
    // No later pass folds a division by a symbolic extent away, and
    // with one outer iteration the fused variable stays below it.
    // Constant extents keep the division form: host hoisting folds it,
    // and the GPU IR the simulator reads stays as it was.
    int64_t ignored = 0;
    bool unit_outer = isConstInt(outer_loop->extent, 1) &&
                      !tryConstInt(inner_extent, &ignored);
    std::map<const VarNode *, Expr> subst{
        {outer_loop->loopVar.get(),
         unit_outer ? intImm(0, fused->dtype) : floorDiv(fused, inner_extent)},
        {inner_loop->loopVar.get(),
         unit_outer ? Expr(fused) : floorMod(fused, inner_extent)}};
    Stmt body = substitute(inner_loop->body, subst);
    Stmt fused_loop =
        forLoop(fused, intImm(0),
                simplify(mul(outer_loop->extent, inner_extent)), body);

    Stmt new_body = replaceStmt(func_->body, outer_loop, fused_loop);
    ReduceVarRewriter rw1(outer_loop->loopVar.get(), {fused});
    new_body = rw1.mutateStmt(new_body);
    ReduceVarRewriter rw2(inner_loop->loopVar.get(), {});
    func_->body = rw2.mutateStmt(new_body);
    return fused->name;
}

void
Schedule::reorder(const std::vector<std::string> &names)
{
    USER_CHECK(names.size() >= 2) << "reorder needs at least two loops";
    // The outermost named loop is the one with no named loop above it.
    const ForNode *top = nullptr;
    for (const auto &name : names) {
        const ForNode *loop = findLoop(func_, name);
        bool has_named_above = false;
        for (const ForNode *anc : loopsAbove(func_, loop)) {
            if (std::find(names.begin(), names.end(),
                          anc->loopVar->name) != names.end()) {
                has_named_above = true;
                break;
            }
        }
        if (!has_named_above) {
            USER_CHECK(top == nullptr)
                << "loops to reorder are not members of one nest";
            top = loop;
        }
    }
    ICHECK(top != nullptr);

    // Walk the straight-line chain from `top` until all named loops
    // are found; no block boundaries may be crossed.
    std::vector<const ForNode *> chain;
    const StmtNode *cursor = top;
    size_t named_found = 0;
    while (true) {
        USER_CHECK(cursor->kind == StmtKind::kFor)
            << "reorder would cross a non-loop statement (TensorIR "
            << "block boundary)";
        auto loop = static_cast<const ForNode *>(cursor);
        chain.push_back(loop);
        if (std::find(names.begin(), names.end(),
                      loop->loopVar->name) != names.end()) {
            ++named_found;
        }
        if (named_found == names.size()) {
            break;
        }
        cursor = loop->body.get();
    }

    // Extents must not depend on vars of other loops in the chain.
    std::set<const VarNode *> chain_vars;
    for (const ForNode *loop : chain) {
        chain_vars.insert(loop->loopVar.get());
    }
    for (const ForNode *loop : chain) {
        for (const VarNode *v : collectVars(loop->extent)) {
            USER_CHECK(!chain_vars.count(v))
                << "loop '" << loop->loopVar->name
                << "' has a data-dependent extent inside the reordered "
                << "nest";
        }
    }

    // Permute: named slots take the requested order, unnamed loops
    // keep their positions.
    std::vector<const ForNode *> result = chain;
    std::vector<size_t> named_positions;
    for (size_t i = 0; i < chain.size(); ++i) {
        if (std::find(names.begin(), names.end(),
                      chain[i]->loopVar->name) != names.end()) {
            named_positions.push_back(i);
        }
    }
    ICHECK_EQ(named_positions.size(), names.size());
    for (size_t k = 0; k < names.size(); ++k) {
        result[named_positions[k]] = findLoop(func_, names[k]);
    }

    Stmt body = chain.back()->body;
    for (size_t i = result.size(); i-- > 0;) {
        const ForNode *proto = result[i];
        body = makeFor(proto, proto->loopVar, proto->minValue,
                       proto->extent, body);
    }
    func_->body = replaceStmt(func_->body, top, body);
}

void
Schedule::bind(const std::string &name, const std::string &thread_tag)
{
    const ForNode *loop = findLoop(func_, name);
    USER_CHECK(!isReductionVar(func_->body, loop->loopVar.get()))
        << "cannot bind reduction loop '" << name
        << "' to threads without atomics; rfactor it first";
    auto node = std::make_shared<ForNode>(*loop);
    node->forKind = ForKind::kThreadBinding;
    node->threadTag = thread_tag;
    func_->body = replaceStmt(func_->body, loop, node);
}

void
Schedule::vectorize(const std::string &name)
{
    const ForNode *loop = findLoop(func_, name);
    int64_t extent = 0;
    USER_CHECK(tryConstInt(simplify(loop->extent), &extent))
        << "vectorize requires a constant loop extent";
    auto node = std::make_shared<ForNode>(*loop);
    node->forKind = ForKind::kVectorized;
    func_->body = replaceStmt(func_->body, loop, node);
}

void
Schedule::unroll(const std::string &name)
{
    const ForNode *loop = findLoop(func_, name);
    auto node = std::make_shared<ForNode>(*loop);
    node->forKind = ForKind::kUnrolled;
    func_->body = replaceStmt(func_->body, loop, node);
}

void
Schedule::parallel(const std::string &name)
{
    const ForNode *loop = findLoop(func_, name);
    auto node = std::make_shared<ForNode>(*loop);
    node->forKind = ForKind::kParallel;
    func_->body = replaceStmt(func_->body, loop, node);
}

namespace {

/**
 * Collect the if-conditions that dominate `block` under `s` and
 * reference no reduction variable. These are spatial guards — e.g. a
 * non-divisible split's tail predicate `if (k_o*tx + k_i < feat)` —
 * and the cache-write epilogue MUST replicate them: the write-back
 * stores the block's spatial indices outside the reduction subtree,
 * so an unguarded epilogue executes the padded tail iterations the
 * guard exists to skip and stores out of bounds. (Found by the
 * differential fuzzer on hyb SpMM with feat % threadX != 0; every
 * power-of-two feat divides the clamped threadX, which is why the
 * fixed-shape suites never hit it.) Conditions referencing reduction
 * variables vary per reduction step and stay inside the subtree.
 * Returns true when `block` lies under `s`; guards accumulate only
 * along the found path.
 */
bool
collectSpatialGuards(const StmtNode *s, const BlockNode *block,
                     const std::set<const VarNode *> &reduce_set,
                     std::vector<Expr> *guards)
{
    if (s == nullptr) {
        return false;
    }
    switch (s->kind) {
      case StmtKind::kBlock: {
        auto *node = static_cast<const BlockNode *>(s);
        if (node == block) {
            return true;
        }
        return collectSpatialGuards(node->body.get(), block,
                                    reduce_set, guards);
      }
      case StmtKind::kFor:
        return collectSpatialGuards(
            static_cast<const ForNode *>(s)->body.get(), block,
            reduce_set, guards);
      case StmtKind::kLetStmt:
        return collectSpatialGuards(
            static_cast<const LetStmtNode *>(s)->body.get(), block,
            reduce_set, guards);
      case StmtKind::kAllocate:
        return collectSpatialGuards(
            static_cast<const AllocateNode *>(s)->body.get(), block,
            reduce_set, guards);
      case StmtKind::kSeq: {
        auto *node = static_cast<const SeqStmtNode *>(s);
        for (const Stmt &child : node->seq) {
            if (collectSpatialGuards(child.get(), block, reduce_set,
                                     guards)) {
                return true;
            }
        }
        return false;
      }
      case StmtKind::kIfThenElse: {
        auto *node = static_cast<const IfThenElseNode *>(s);
        bool spatial = true;
        for (const VarNode *v : collectVars(node->cond)) {
            if (reduce_set.count(v)) {
                spatial = false;
                break;
            }
        }
        if (collectSpatialGuards(node->thenBody.get(), block,
                                 reduce_set, guards)) {
            if (spatial) {
                guards->push_back(node->cond);
            }
            return true;
        }
        if (collectSpatialGuards(node->elseBody.get(), block,
                                 reduce_set, guards)) {
            // No schedule primitive nests a block in an else branch;
            // replicating would need the negated condition. Fail
            // loudly rather than emit an unguarded epilogue.
            ICHECK(!spatial)
                << "cache_write cannot replicate an else-branch "
                   "spatial guard in its epilogue";
            return true;
        }
        return false;
      }
      default:
        return false;
    }
}

} // namespace

void
Schedule::cacheWrite(const std::string &block_name,
                     const std::string &buffer_name, bool accumulate)
{
    const BlockNode *block = findBlock(func_, block_name);
    USER_CHECK(!block->reduceVars.empty())
        << "cache_write targets a reduction block";

    std::vector<BufferAccess> accesses =
        collectBufferAccesses(block->body);
    Buffer target;
    std::vector<Expr> target_indices;
    for (const auto &access : accesses) {
        if (access.isWrite && access.buffer->name == buffer_name) {
            target = access.buffer;
            target_indices = access.indices;
            break;
        }
    }
    USER_CHECK(target != nullptr)
        << "block '" << block_name << "' does not write buffer '"
        << buffer_name << "'";

    std::set<const VarNode *> reduce_set;
    for (const auto &rv : block->reduceVars) {
        reduce_set.insert(rv.get());
    }
    for (const auto &idx : target_indices) {
        for (const VarNode *v : collectVars(idx)) {
            USER_CHECK(!reduce_set.count(v))
                << "cache_write: store index depends on reduction var '"
                << v->name << "'";
        }
    }

    // Spatial loops nested inside the outermost reduction loop are
    // allowed when zero-based with a constant extent: the
    // accumulator then holds one element per iteration of those
    // loops (row-major over them, outermost first), and the
    // write-back becomes a loop nest over them. Without such loops
    // the accumulator is the 1-element register of the GPU
    // schedules.
    auto path = loopsAbove(func_, block);
    const ForNode *outer_reduce = nullptr;
    std::vector<const ForNode *> inner_spatial;
    int64_t acc_size = 1;
    for (const ForNode *loop : path) {
        bool is_reduce = reduce_set.count(loop->loopVar.get()) > 0;
        if (outer_reduce == nullptr) {
            if (is_reduce) {
                outer_reduce = loop;
            }
        } else if (!is_reduce) {
            int64_t extent = 0;
            USER_CHECK(isConstInt(loop->minValue, 0) &&
                       tryConstInt(loop->extent, &extent) && extent > 0)
                << "cache_write: spatial loop '" << loop->loopVar->name
                << "' nested inside reduction loop '"
                << outer_reduce->loopVar->name
                << "' needs a zero min and a constant positive extent";
            inner_spatial.push_back(loop);
            acc_size *= extent;
        }
    }
    USER_CHECK(outer_reduce != nullptr)
        << "no reduction loop encloses block '" << block_name << "'";

    Buffer accumulator =
        denseBuffer(target->name + "_local", {intImm(acc_size)},
                    target->dtype, MemScope::kLocal);

    /** Redirects the target's accesses to the accumulator. */
    class TargetRewriter : public StmtMutator
    {
      public:
        TargetRewriter(const BufferNode *target, Buffer accumulator,
                       const std::vector<const ForNode *> &loops)
            : target_(target), acc_(std::move(accumulator)),
              loops_(loops)
        {}

        /**
         * Accumulator element of the current inner spatial iteration:
         * row-major over the loops, 0 when there are none.
         */
        Expr
        index() const
        {
            if (loops_.empty()) {
                return intImm(0);
            }
            Expr flat = loops_[0]->loopVar;
            for (size_t d = 1; d < loops_.size(); ++d) {
                flat = add(mul(flat, loops_[d]->extent),
                           loops_[d]->loopVar);
            }
            return flat;
        }

      protected:
        Expr
        mutateBufferLoad(const BufferLoadNode *op, const Expr &e) override
        {
            if (op->buffer.get() == target_) {
                return bufferLoad(acc_, {index()});
            }
            return StmtMutator::mutateBufferLoad(op, e);
        }

        Stmt
        mutateBufferStore(const BufferStoreNode *op,
                          const Stmt &s) override
        {
            Expr value = mutateExpr(op->value);
            if (op->buffer.get() == target_) {
                return bufferStore(acc_, {index()}, std::move(value));
            }
            std::vector<Expr> indices;
            for (const auto &idx : op->indices) {
                indices.push_back(mutateExpr(idx));
            }
            return bufferStore(op->buffer, std::move(indices),
                               std::move(value));
        }

      private:
        const BufferNode *target_;
        Buffer acc_;
        const std::vector<const ForNode *> &loops_;
    };

    TargetRewriter rewriter(target.get(), accumulator, inner_spatial);
    auto new_block = std::make_shared<BlockNode>(*block);
    new_block->body = rewriter.mutateStmt(block->body);
    if (new_block->init != nullptr) {
        new_block->init = rewriter.mutateStmt(new_block->init);
    }

    // Spatial guards dominating the block INSIDE the reduction
    // subtree (a non-divisible split's tail predicate) also govern
    // the write-back's indices; replicate them around the epilogue or
    // the padded tail stores out of bounds.
    std::vector<Expr> guards;
    collectSpatialGuards(outer_reduce, block, reduce_set, &guards);

    Stmt reduce_subtree =
        replaceStmt(borrowStmt(outer_reduce), block, new_block);
    Expr result = bufferLoad(accumulator, {rewriter.index()});
    if (accumulate) {
        result = add(bufferLoad(target, target_indices),
                     std::move(result));
    }
    Stmt write_back =
        bufferStore(target, target_indices, std::move(result));
    for (auto it = guards.rbegin(); it != guards.rend(); ++it) {
        write_back = ifThenElse(*it, write_back);
    }
    if (!inner_spatial.empty()) {
        // The write-back nest re-walks the inner spatial loops under
        // fresh variables (loop names stay unique in the function).
        std::vector<Var> wb_vars;
        std::map<const VarNode *, Expr> rename;
        for (const ForNode *loop : inner_spatial) {
            wb_vars.push_back(
                var(loop->loopVar->name + "_wb", loop->loopVar->dtype));
            rename[loop->loopVar.get()] = wb_vars.back();
        }
        write_back = substitute(write_back, rename);
        for (size_t d = inner_spatial.size(); d-- > 0;) {
            const ForNode *loop = inner_spatial[d];
            write_back = makeFor(loop, wb_vars[d], loop->minValue,
                                 loop->extent, std::move(write_back));
        }
    }
    Stmt replacement =
        allocate(accumulator, seq({reduce_subtree, write_back}));
    func_->body = replaceStmt(func_->body, outer_reduce, replacement);
}

void
Schedule::decomposeReduction(const std::string &block_name,
                             const std::string &loop_name)
{
    const BlockNode *block = findBlock(func_, block_name);
    USER_CHECK(block->init != nullptr)
        << "decompose_reduction: block '" << block_name
        << "' has no init";
    const ForNode *loop = findLoop(func_, loop_name);
    std::set<const VarNode *> reduce_set;
    for (const auto &rv : block->reduceVars) {
        reduce_set.insert(rv.get());
    }
    std::vector<const ForNode *> path = loopsAbove(func_, block);
    auto at = std::find(path.begin(), path.end(), loop);
    USER_CHECK(at != path.end() && reduce_set.count(loop->loopVar.get()))
        << "decompose_reduction: '" << loop_name
        << "' is not a reduction loop of block '" << block_name << "'";
    for (auto it = path.begin(); it != at; ++it) {
        USER_CHECK(!reduce_set.count((*it)->loopVar.get()))
            << "decompose_reduction: reduction loop '"
            << (*it)->loopVar->name << "' encloses '" << loop_name
            << "'";
    }

    // Spatial loops get fresh variables; reduction variables read 0.
    std::map<const VarNode *, Expr> rename;
    std::vector<std::pair<const ForNode *, Var>> nest;
    for (auto it = at; it != path.end(); ++it) {
        const ForNode *l = *it;
        const StmtNode *next =
            it + 1 != path.end() ? static_cast<const StmtNode *>(*(it + 1))
                                 : block;
        int64_t extent = 0;
        USER_CHECK(l->body.get() == next && isConstInt(l->minValue, 0) &&
                   tryConstInt(l->extent, &extent) && extent > 0)
            << "decompose_reduction: loop '" << l->loopVar->name
            << "' needs a zero min, a constant positive extent and "
               "only the next loop or the block as its body";
        if (reduce_set.count(l->loopVar.get())) {
            rename[l->loopVar.get()] = intImm(0, l->loopVar->dtype);
        } else {
            nest.emplace_back(
                l, var(l->loopVar->name + "_init", l->loopVar->dtype));
            rename[l->loopVar.get()] = nest.back().second;
        }
    }
    Stmt init = substitute(block->init, rename);
    for (size_t d = nest.size(); d-- > 0;) {
        const ForNode *l = nest[d].first;
        init = makeFor(l, nest[d].second, l->minValue, l->extent,
                       std::move(init));
    }
    auto update = std::make_shared<BlockNode>(*block);
    update->init = nullptr;
    Stmt reduce = replaceStmt(borrowStmt(loop), block, update);
    func_->body =
        replaceStmt(func_->body, loop, seq({init, std::move(reduce)}));
}

void
Schedule::cacheRead(const std::string &loop_name,
                    const std::string &buffer_name, MemScope scope)
{
    const ForNode *loop = findLoop(func_, loop_name);

    std::vector<BufferAccess> accesses =
        collectBufferAccesses(loop->body);
    Buffer target;
    for (const auto &access : accesses) {
        if (access.buffer->name == buffer_name) {
            USER_CHECK(!access.isWrite)
                << "cache_read target '" << buffer_name
                << "' is written inside loop '" << loop_name << "'";
            target = access.buffer;
        }
    }
    USER_CHECK(target != nullptr)
        << "buffer '" << buffer_name << "' is not read inside loop '"
        << loop_name << "'";
    // Sparse buffers are stageable when every axis is dense-fixed
    // (positions coincide with coordinates, so the rectangular region
    // analysis below is exact).
    for (const auto &axis : target->axes) {
        USER_CHECK(axis->kind == ir::AxisKind::kDenseFixed)
            << "cache_read requires dense(-fixed) buffer '"
            << buffer_name << "'";
    }

    // Bounds of loops strictly inside `loop`.
    std::map<const VarNode *, Interval> inner_bounds;
    class InnerLoopScan : public StmtVisitor
    {
      public:
        std::map<const VarNode *, Interval> *bounds = nullptr;

      protected:
        void
        visitFor(const ForNode *op) override
        {
            int64_t min_v = 0;
            int64_t extent = 0;
            if (tryConstInt(simplify(op->minValue), &min_v) &&
                tryConstInt(simplify(op->extent), &extent) &&
                extent > 0) {
                (*bounds)[op->loopVar.get()] =
                    Interval::range(min_v, min_v + extent - 1);
            }
            StmtVisitor::visitFor(op);
        }
    } scan;
    scan.bounds = &inner_bounds;
    scan.visitStmt(loop->body);

    size_t ndim = target->ndim();
    std::vector<Expr> base(ndim);
    std::vector<int64_t> extent(ndim, 1);
    std::map<const VarNode *, Expr> zero_subst;
    for (const auto &[v, bounds] : inner_bounds) {
        zero_subst[v] = intImm(bounds.lo);
    }
    bool have_pattern = false;
    for (const auto &access : accesses) {
        if (access.buffer->name != buffer_name) {
            continue;
        }
        for (size_t d = 0; d < ndim; ++d) {
            Expr base_d =
                simplify(substitute(access.indices[d], zero_subst));
            Interval delta = boundsOf(
                simplify(sub(access.indices[d], base_d)), inner_bounds);
            USER_CHECK(delta.hasLo && delta.hasHi && delta.lo == 0)
                << "cache_read: access to '" << buffer_name << "' dim "
                << d << " is not a base+offset pattern";
            int64_t ext = delta.hi + 1;
            // A split padded past the buffer's edge guards its tail,
            // which is never read: the region stops at the edge.
            int64_t base_v = 0;
            int64_t dim = 0;
            if (tryConstInt(base_d, &base_v) &&
                tryConstInt(simplify(target->dimExtent(d)), &dim)) {
                ext = std::min(ext, dim - base_v);
            }
            if (!have_pattern) {
                base[d] = base_d;
            } else {
                USER_CHECK(structuralEqual(base[d], base_d))
                    << "cache_read: accesses to '" << buffer_name
                    << "' have mismatched bases in dim " << d;
            }
            extent[d] = std::max(extent[d], ext);
        }
        have_pattern = true;
    }

    std::vector<Expr> scratch_shape;
    for (size_t d = 0; d < ndim; ++d) {
        scratch_shape.push_back(intImm(extent[d]));
    }
    Buffer scratch =
        denseBuffer(target->name + "_" + memScopeName(scope),
                    scratch_shape, target->dtype, scope);

    std::vector<Var> copy_vars;
    std::vector<Expr> src_indices;
    std::vector<Expr> dst_indices;
    for (size_t d = 0; d < ndim; ++d) {
        Var cv = var(target->name + "_c" + std::to_string(d));
        copy_vars.push_back(cv);
        src_indices.push_back(add(base[d], cv));
        dst_indices.push_back(cv);
    }
    Stmt copy = bufferStore(scratch, dst_indices,
                            bufferLoad(target, src_indices));
    for (size_t d = ndim; d-- > 0;) {
        copy = forLoop(copy_vars[d], intImm(0), intImm(extent[d]), copy);
    }
    copy = block(target->name + "_" + memScopeName(scope) + "_copy",
                 copy);

    class AccessRemap : public StmtMutator
    {
      public:
        AccessRemap(const BufferNode *target, Buffer scratch,
                    const std::vector<Expr> &base)
            : target_(target), scratch_(std::move(scratch)), base_(base)
        {}

      protected:
        Expr
        mutateBufferLoad(const BufferLoadNode *op, const Expr &e) override
        {
            if (op->buffer.get() != target_) {
                return StmtMutator::mutateBufferLoad(op, e);
            }
            std::vector<Expr> indices;
            for (size_t d = 0; d < op->indices.size(); ++d) {
                indices.push_back(
                    simplify(sub(op->indices[d], base_[d])));
            }
            return bufferLoad(scratch_, std::move(indices));
        }

      private:
        const BufferNode *target_;
        Buffer scratch_;
        const std::vector<Expr> &base_;
    };

    AccessRemap remap(target.get(), scratch, base);
    Stmt new_inner = remap.mutateStmt(loop->body);
    Stmt new_body = allocate(scratch, seq({copy, new_inner}));
    Stmt new_loop = makeFor(loop, loop->loopVar, loop->minValue,
                            loop->extent, new_body);
    func_->body = replaceStmt(func_->body, loop, new_loop);
}

void
Schedule::rfactor(const std::string &block_name,
                  const std::string &loop_name)
{
    const BlockNode *block = findBlock(func_, block_name);
    const ForNode *loop = findLoop(func_, loop_name);
    std::set<const VarNode *> reduce_set;
    for (const auto &rv : block->reduceVars) {
        reduce_set.insert(rv.get());
    }
    USER_CHECK(reduce_set.count(loop->loopVar.get()))
        << "'" << loop_name << "' is not a reduction loop of block '"
        << block_name << "'";

    USER_CHECK(block->body->kind == StmtKind::kBufferStore)
        << "rfactor expects a single-store reduction block";
    auto store = static_cast<const BufferStoreNode *>(block->body.get());
    Buffer target = store->buffer;
    for (const auto &idx : store->indices) {
        for (const VarNode *v : collectVars(idx)) {
            USER_CHECK(!reduce_set.count(v))
                << "rfactor: store index depends on a reduction var";
        }
    }

    int64_t loop_extent = 0;
    USER_CHECK(tryConstInt(simplify(loop->extent), &loop_extent))
        << "rfactor requires a constant extent for loop '" << loop_name
        << "'";

    Buffer partial =
        denseBuffer(target->name + "_rf", {intImm(loop_extent)},
                    target->dtype, MemScope::kLocal);

    class PartialRewriter : public StmtMutator
    {
      public:
        PartialRewriter(const BufferNode *target, Buffer partial, Var r)
            : target_(target), partial_(std::move(partial)),
              r_(std::move(r))
        {}

      protected:
        Expr
        mutateBufferLoad(const BufferLoadNode *op, const Expr &e) override
        {
            if (op->buffer.get() == target_) {
                return bufferLoad(partial_, {Expr(r_)});
            }
            return StmtMutator::mutateBufferLoad(op, e);
        }

        Stmt
        mutateBufferStore(const BufferStoreNode *op,
                          const Stmt &s) override
        {
            Expr value = mutateExpr(op->value);
            if (op->buffer.get() == target_) {
                return bufferStore(partial_, {Expr(r_)},
                                   std::move(value));
            }
            std::vector<Expr> indices;
            for (const auto &idx : op->indices) {
                indices.push_back(mutateExpr(idx));
            }
            return bufferStore(op->buffer, std::move(indices),
                               std::move(value));
        }

      private:
        const BufferNode *target_;
        Buffer partial_;
        Var r_;
    };

    PartialRewriter rewriter(target.get(), partial, loop->loopVar);
    auto new_block = std::make_shared<BlockNode>(*block);
    new_block->body = rewriter.mutateStmt(block->body);
    if (new_block->init != nullptr) {
        new_block->init = rewriter.mutateStmt(new_block->init);
    }
    // Partition the remaining reduce vars: loops enclosing the
    // factored loop keep gating the final reduction's init; loops
    // inside it gate the partial accumulator's init.
    std::set<const VarNode *> outer_reduce_vars;
    for (const ForNode *anc : loopsAbove(func_, loop)) {
        if (reduce_set.count(anc->loopVar.get())) {
            outer_reduce_vars.insert(anc->loopVar.get());
        }
    }
    std::vector<Var> inner_remaining;
    std::vector<Var> outer_remaining;
    for (const auto &rv : new_block->reduceVars) {
        if (rv.get() == loop->loopVar.get()) {
            continue;
        }
        if (outer_reduce_vars.count(rv.get())) {
            outer_remaining.push_back(rv);
        } else {
            inner_remaining.push_back(rv);
        }
    }
    new_block->reduceVars = std::move(inner_remaining);

    Stmt partial_subtree =
        replaceStmt(borrowStmt(loop), block, new_block);

    Var r2 = var(loop_name + "_rf", loop->loopVar->dtype);
    Stmt final_update = bufferStore(
        target, store->indices,
        add(bufferLoad(target, store->indices),
            bufferLoad(partial, {Expr(r2)})));
    auto final_block =
        std::make_shared<BlockNode>(block_name + "_rf", final_update);
    final_block->reduceVars = outer_remaining;
    final_block->reduceVars.push_back(r2);
    if (block->init != nullptr) {
        final_block->init = block->init;
    }
    Stmt final_loop =
        forLoop(r2, intImm(0), intImm(loop_extent), final_block);

    Stmt replacement =
        allocate(partial, seq({partial_subtree, final_loop}));
    func_->body = replaceStmt(func_->body, loop, replacement);
}

void
Schedule::tensorize(const std::string &block_name,
                    const std::string &intrinsic)
{
    const BlockNode *block = findBlock(func_, block_name);
    auto node = std::make_shared<BlockNode>(*block);
    node->annotations["tensorize"] = stringImm(intrinsic);
    func_->body = replaceStmt(func_->body, block, node);
}

void
Schedule::annotateBlock(const std::string &block_name,
                        const std::string &key, Expr value)
{
    const BlockNode *block = findBlock(func_, block_name);
    auto node = std::make_shared<BlockNode>(*block);
    node->annotations[key] = std::move(value);
    func_->body = replaceStmt(func_->body, block, node);
}

void
Schedule::annotateLoop(const std::string &loop_name,
                       const std::string &key, Expr value)
{
    const ForNode *loop = findLoop(func_, loop_name);
    auto node = std::make_shared<ForNode>(*loop);
    node->annotations[key] = std::move(value);
    func_->body = replaceStmt(func_->body, loop, node);
}

} // namespace schedule
} // namespace sparsetir
