#include "transform/lower_sparse_iter.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/analysis.h"
#include "ir/functor.h"
#include "ir/simplify.h"

namespace sparsetir {
namespace transform {

using namespace ir;

Expr
axisSlots(const Axis &axis)
{
    switch (axis->kind) {
      case AxisKind::kDenseFixed:
        return axis->length;
      case AxisKind::kDenseVariable:
      case AxisKind::kSparseVariable:
        return axis->nnz;
      case AxisKind::kSparseFixed:
        return mul(axisSlots(axis->parent), axis->nnzCols);
    }
    ICHECK(false);
    return nullptr;
}

Buffer
indptrBufferOf(const Axis &axis)
{
    ICHECK(axis->isVariable())
        << "axis " << axis->name << " has no indptr";
    Expr parent_slots = axis->parent != nullptr ? axisSlots(axis->parent)
                                                : intImm(1);
    auto node = std::make_shared<BufferNode>();
    node->name = axis->name + "_indptr";
    node->data = axis->indptr;
    node->dtype = axis->idtype;
    node->shape = {simplify(add(parent_slots, intImm(1)))};
    return node;
}

Buffer
indicesBufferOf(const Axis &axis)
{
    ICHECK(axis->isSparse())
        << "axis " << axis->name << " has no indices";
    auto node = std::make_shared<BufferNode>();
    node->name = axis->name + "_indices";
    node->data = axis->indices;
    node->dtype = axis->idtype;
    node->shape = {simplify(axisSlots(axis))};
    return node;
}

namespace {

/** Per-axis state while lowering one sparse iteration. */
struct AxisLoopInfo
{
    Axis axis;
    /** Relative position variable (loop var or let-bound var). */
    Var posVar;
    /** Absolute storage position expression. */
    Expr absPos;
    /** Coordinate expression in terms of position variables. */
    Expr coord;
};

class Lowerer
{
  public:
    explicit Lowerer(const PrimFunc &func) : func_(func) {}

    PrimFunc
    run()
    {
        PrimFunc result = copyFunc(func_);
        // Step 1: auxiliary buffer materialization. Collect all axes
        // reachable from declared axes (parents included).
        for (const auto &axis : func_->axes) {
            materializeAxis(axis);
        }
        for (const auto &[param, buffer] : func_->bufferMap) {
            for (const auto &axis : buffer->axes) {
                materializeAxis(axis);
            }
        }

        Stmt body = lowerStmt(func_->body);
        // Step 4: region analysis.
        body = annotateRegions(simplifyStmt(body));
        result->body = body;
        result->stage = IrStage::kStage2;
        // Register aux buffers in the buffer map so downstream passes
        // and the interpreter can bind them, in materialization order:
        // the buffer map's order (and everything laid out from it)
        // must not depend on where the axes sit on the heap.
        for (const auto &[axis, buffer] : indptrBuffers_) {
            result->bufferMap.emplace_back(buffer->data, buffer);
        }
        for (const auto &[axis, buffer] : indicesBuffers_) {
            result->bufferMap.emplace_back(buffer->data, buffer);
        }
        // Domain hints (assume_buffer_domain in the paper).
        for (const auto &[axis_ptr, buffer] : indicesBuffers_) {
            result->attrs["domain::" + buffer->name] = axis_ptr->length;
        }
        return result;
    }

  private:
    void
    materializeAxis(const Axis &axis)
    {
        if (axis == nullptr || visitedAxes_.count(axis.get())) {
            return;
        }
        visitedAxes_.insert(axis.get());
        materializeAxis(axis->parent);
        if (axis->isVariable()) {
            indptrBuffers_.emplace_back(axis.get(), indptrBufferOf(axis));
        }
        if (axis->isSparse()) {
            indicesBuffers_.emplace_back(axis.get(),
                                         indicesBufferOf(axis));
        }
    }

    /** Aux buffers per axis, in materialization order. */
    using AxisBuffers = std::vector<std::pair<const AxisNode *, Buffer>>;

    static const Buffer &
    bufferOf(const AxisBuffers &buffers, const AxisNode *axis)
    {
        auto it = std::find_if(
            buffers.begin(), buffers.end(),
            [axis](const auto &entry) { return entry.first == axis; });
        ICHECK(it != buffers.end()) << "axis has no aux buffer";
        return it->second;
    }

    Buffer
    indptrBuf(const Axis &axis)
    {
        materializeAxis(axis);
        return bufferOf(indptrBuffers_, axis.get());
    }

    Buffer
    indicesBuf(const Axis &axis)
    {
        materializeAxis(axis);
        return bufferOf(indicesBuffers_, axis.get());
    }

    Stmt
    lowerStmt(const Stmt &s)
    {
        if (s->kind == StmtKind::kSparseIteration) {
            return lowerIteration(
                std::static_pointer_cast<const SparseIterationNode>(s));
        }
        if (s->kind == StmtKind::kSeq) {
            auto op = static_cast<const SeqStmtNode *>(s.get());
            std::vector<Stmt> out;
            out.reserve(op->seq.size());
            for (const auto &child : op->seq) {
                out.push_back(lowerStmt(child));
            }
            return seq(std::move(out));
        }
        return s;
    }

    /** Absolute position of the parent of `axis` in loop context. */
    Expr
    parentAbsPos(const Axis &axis,
                 const std::map<const AxisNode *, AxisLoopInfo> &infos)
    {
        if (axis->parent == nullptr) {
            return intImm(0);
        }
        auto it = infos.find(axis->parent.get());
        ICHECK(it != infos.end())
            << "axis " << axis->name << " iterated before its parent "
            << axis->parent->name
            << "; sparse_reorder must keep dependency order";
        return it->second.absPos;
    }

    /**
     * Fill in posVar/absPos/coord for one axis given the relative
     * position variable.
     */
    AxisLoopInfo
    makeInfo(const Axis &axis, const Var &pos_var,
             const std::map<const AxisNode *, AxisLoopInfo> &infos)
    {
        AxisLoopInfo info;
        info.axis = axis;
        info.posVar = pos_var;
        switch (axis->kind) {
          case AxisKind::kDenseFixed:
            info.absPos = pos_var;
            info.coord = pos_var;
            break;
          case AxisKind::kDenseVariable: {
            Expr parent_pos = parentAbsPos(axis, infos);
            Expr base = bufferLoad(indptrBuf(axis), {parent_pos});
            info.absPos = add(base, pos_var);
            info.coord = pos_var;
            break;
          }
          case AxisKind::kSparseFixed: {
            Expr parent_pos = parentAbsPos(axis, infos);
            info.absPos =
                add(mul(parent_pos, axis->nnzCols), pos_var);
            info.coord = bufferLoad(indicesBuf(axis), {info.absPos});
            break;
          }
          case AxisKind::kSparseVariable: {
            Expr parent_pos = parentAbsPos(axis, infos);
            Expr base = bufferLoad(indptrBuf(axis), {parent_pos});
            info.absPos = add(base, pos_var);
            info.coord = bufferLoad(indicesBuf(axis), {info.absPos});
            break;
          }
        }
        return info;
    }

    /** Loop extent for one axis in the current context. */
    Expr
    loopExtent(const Axis &axis,
               const std::map<const AxisNode *, AxisLoopInfo> &infos)
    {
        switch (axis->kind) {
          case AxisKind::kDenseFixed:
            return axis->length;
          case AxisKind::kSparseFixed:
            return axis->nnzCols;
          case AxisKind::kDenseVariable:
          case AxisKind::kSparseVariable: {
            Expr parent_pos = parentAbsPos(axis, infos);
            Buffer indptr = indptrBuf(axis);
            return sub(bufferLoad(indptr, {add(parent_pos, intImm(1))}),
                       bufferLoad(indptr, {parent_pos}));
          }
        }
        ICHECK(false);
        return nullptr;
    }

    /** True when the extent expression depends on loop variables. */
    bool
    extentDataDependent(const Expr &extent)
    {
        // Any buffer load inside the extent makes it data-dependent.
        struct Finder : public ExprVisitor
        {
            bool found = false;
            void
            visitBufferLoad(const BufferLoadNode *op) override
            {
                found = true;
                ExprVisitor::visitBufferLoad(op);
            }
        } finder;
        finder.visitExpr(extent);
        return finder.found;
    }

    Stmt
    lowerIteration(const SparseIteration &iter)
    {
        std::map<const AxisNode *, AxisLoopInfo> infos;
        // Step 2+3 bookkeeping.
        struct LoopSpec
        {
            Var loopVar;
            Expr extent;
            bool dataDependent;
            std::vector<Var> letVars;  // fused-position recoveries
            std::vector<Expr> letValues;
            bool isReduction;
        };
        std::vector<LoopSpec> loops;

        size_t axis_pos = 0;
        for (size_t g = 0; g < iter->fuseGroups.size(); ++g) {
            int group = iter->fuseGroups[g];
            ICHECK_GE(group, 1);
            if (group == 1) {
                const Axis &axis = iter->axes[axis_pos];
                LoopSpec spec;
                spec.extent = loopExtent(axis, infos);
                spec.dataDependent = extentDataDependent(spec.extent);
                spec.loopVar = var(iter->iterVars[axis_pos]->name,
                                   axis->idtype);
                spec.isReduction =
                    iter->iterKinds[axis_pos] == IterKind::kReduction;
                infos[axis.get()] =
                    makeInfo(axis, spec.loopVar, infos);
                loops.push_back(std::move(spec));
                ++axis_pos;
            } else {
                // Fused group: consecutive axes forming an ancestor
                // chain; iterate the flattened non-zero space of the
                // deepest axis and recover outer positions by search.
                std::vector<Axis> chain(iter->axes.begin() + axis_pos,
                                        iter->axes.begin() + axis_pos +
                                            group);
                for (int k = 1; k < group; ++k) {
                    USER_CHECK(chain[k]->parent == chain[k - 1])
                        << "fused axes must form a parent chain";
                }
                const Axis &deepest = chain.back();
                USER_CHECK(deepest->isVariable())
                    << "fused iteration requires a variable deepest "
                    << "axis";
                LoopSpec spec;
                spec.extent = axisSlots(deepest);
                spec.dataDependent = false;
                std::string fused_name;
                for (int k = 0; k < group; ++k) {
                    fused_name += iter->iterVars[axis_pos + k]->name;
                }
                spec.loopVar = var(fused_name, deepest->idtype);
                spec.isReduction = false;
                for (int k = 0; k < group; ++k) {
                    spec.isReduction |= iter->iterKinds[axis_pos + k] ==
                                        IterKind::kReduction;
                }
                // Recover positions from the flat index, deepest
                // first: the flat index IS the deepest absolute
                // position; each parent's absolute position comes from
                // an upper_bound search over its child's indptr.
                Expr abs = spec.loopVar;
                std::vector<std::pair<Var, Expr>> lets;
                std::vector<Expr> abs_chain(group);
                abs_chain[group - 1] = abs;
                for (int k = group - 1; k >= 1; --k) {
                    const Axis &child = chain[k];
                    Buffer indptr = indptrBuf(child);
                    Expr parent_slots =
                        chain[k - 1]->parent == nullptr
                            ? axisSlots(chain[k - 1])
                            : axisSlots(chain[k - 1]);
                    // upper_bound(indptr, 0, len, abs) - 1
                    Expr search = sub(
                        call(child->idtype, Builtin::kUpperBound,
                             {intImm(0),
                              simplify(add(parent_slots, intImm(1))),
                              abs_chain[k]},
                             indptr),
                        intImm(1));
                    Var parent_abs_var =
                        var(iter->iterVars[axis_pos + k - 1]->name +
                                "_pos",
                            child->idtype);
                    lets.emplace_back(parent_abs_var, search);
                    abs_chain[k - 1] = parent_abs_var;
                }
                // Fill axis infos with absolute/relative positions.
                for (int k = 0; k < group; ++k) {
                    const Axis &axis = chain[k];
                    AxisLoopInfo info;
                    info.axis = axis;
                    info.absPos = abs_chain[k];
                    // Relative position: abs - row start.
                    if (k == 0) {
                        if (axis->isVariable() && axis->parent != nullptr) {
                            Expr parent_pos = parentAbsPos(axis, infos);
                            info.posVar = nullptr;
                            // Relative position unused for outer fused
                            // axes in buffer access matching; keep abs.
                        }
                        info.posVar = nullptr;
                    } else {
                        info.posVar = nullptr;
                    }
                    if (axis->isSparse()) {
                        info.coord =
                            bufferLoad(indicesBuf(axis), {info.absPos});
                    } else if (axis->kind == AxisKind::kDenseFixed) {
                        info.coord = info.absPos;
                    } else {
                        // Dense-variable: coordinate = relative pos.
                        Expr parent_pos =
                            k > 0 ? abs_chain[k - 1]
                                  : parentAbsPos(axis, infos);
                        info.coord = sub(
                            info.absPos,
                            bufferLoad(indptrBuf(axis), {parent_pos}));
                    }
                    infos[axis.get()] = info;
                }
                for (auto &[v, value] : lets) {
                    spec.letVars.push_back(v);
                    spec.letValues.push_back(value);
                }
                loops.push_back(std::move(spec));
                axis_pos += group;
            }
        }
        ICHECK_EQ(axis_pos, iter->axes.size());

        // Step 3: coordinate translation of the body.
        Stmt body = translateBody(iter, infos);
        Stmt init = iter->init != nullptr
                        ? translateBody(iter, infos, /*use_init=*/true)
                        : nullptr;

        // Collect reduction loop variables for init gating.
        std::vector<Var> reduce_vars;
        for (const auto &spec : loops) {
            if (spec.isReduction) {
                reduce_vars.push_back(spec.loopVar);
            }
        }

        // Innermost block holds the body (+init).
        auto inner_block =
            std::make_shared<BlockNode>(iter->name, body);
        inner_block->init = init;
        inner_block->reduceVars = reduce_vars;
        Stmt current = inner_block;

        // Wrap loops inside-out; insert an isolation block before each
        // data-dependent loop (paper Figure 8).
        int block_counter = 0;
        for (size_t idx = loops.size(); idx-- > 0;) {
            LoopSpec &spec = loops[idx];
            // Let-bind fused position recoveries just inside the loop.
            for (size_t li = spec.letVars.size(); li-- > 0;) {
                current = letStmt(spec.letVars[li], spec.letValues[li],
                                  current);
            }
            current = forLoop(spec.loopVar, intImm(0), spec.extent,
                              current);
            if (idx > 0 && spec.dataDependent) {
                current = block(iter->name + "_" +
                                    std::to_string(block_counter++),
                                current);
            }
        }
        return current;
    }

    /**
     * Rewrite the stage I body: buffer accesses move from coordinate
     * space to position space (eqs. 1-5).
     */
    Stmt
    translateBody(const SparseIteration &iter,
                  const std::map<const AxisNode *, AxisLoopInfo> &infos,
                  bool use_init = false)
    {
        // Coordinate expression for each iteration variable.
        std::map<const VarNode *, Expr> coord_subst;
        for (size_t i = 0; i < iter->axes.size(); ++i) {
            const auto &info = infos.at(iter->axes[i].get());
            coord_subst[iter->iterVars[i].get()] = info.coord;
        }

        class AccessTranslator : public StmtMutator
        {
          public:
            AccessTranslator(
                Lowerer *lowerer,
                const std::map<const AxisNode *, AxisLoopInfo> &infos,
                const std::map<const VarNode *, Expr> &coord_subst)
                : lowerer_(lowerer), infos_(infos),
                  coordSubst_(coord_subst)
            {}

          protected:
            Expr
            mutateVar(const VarNode *op, const Expr &e) override
            {
                // A bare iteration variable outside a buffer access
                // means its coordinate value.
                auto it = coordSubst_.find(op);
                return it != coordSubst_.end() ? it->second : e;
            }

            Expr
            mutateBufferLoad(const BufferLoadNode *op,
                             const Expr &e) override
            {
                if (!op->buffer->isSparse()) {
                    return StmtMutator::mutateBufferLoad(op, e);
                }
                TranslatedAccess access =
                    translateIndices(op->buffer, op->indices);
                Expr load = std::make_shared<BufferLoadNode>(
                    op->dtype, op->buffer, std::move(access.positions));
                if (access.guard != nullptr) {
                    // Coordinate might be absent: absent loads read as
                    // zero (this is what makes generated format-copy
                    // iterations produce correct padding).
                    Expr zero = op->dtype.isFloat()
                                    ? floatImm(0.0, op->dtype)
                                    : intImm(0, op->dtype);
                    load = select(access.guard, std::move(load),
                                  std::move(zero));
                }
                return load;
            }

            Stmt
            mutateBufferStore(const BufferStoreNode *op,
                              const Stmt &s) override
            {
                Expr value = mutateExpr(op->value);
                if (!op->buffer->isSparse()) {
                    std::vector<Expr> indices;
                    for (const auto &idx : op->indices) {
                        indices.push_back(mutateExpr(idx));
                    }
                    return bufferStore(op->buffer, std::move(indices),
                                       std::move(value));
                }
                TranslatedAccess access =
                    translateIndices(op->buffer, op->indices);
                Stmt store = bufferStore(op->buffer,
                                         std::move(access.positions),
                                         std::move(value));
                if (access.guard != nullptr) {
                    // Stores to absent coordinates are dropped.
                    store = ifThenElse(access.guard, std::move(store));
                }
                return store;
            }

          private:
            struct TranslatedAccess
            {
                std::vector<Expr> positions;
                /** Null when the access provably hits; else validity. */
                Expr guard;
            };

            /**
             * Translate coordinate-space indices of one sparse buffer
             * access into per-axis relative positions (eqs. 1-5).
             */
            TranslatedAccess
            translateIndices(const Buffer &buffer,
                             const std::vector<Expr> &indices)
            {
                TranslatedAccess out;
                out.positions.reserve(indices.size());
                // Absolute position of the previous buffer axis,
                // rebuilt as we walk the buffer's axis chain.
                Expr prev_abs = intImm(0);
                for (size_t d = 0; d < indices.size(); ++d) {
                    const Axis &axis = buffer->axes[d];
                    // Fast path (eq. 1 trivial case): the index is the
                    // iteration variable of this very axis.
                    const VarNode *as_var = nullptr;
                    if (indices[d]->kind == ExprKind::kVar) {
                        as_var =
                            static_cast<const VarNode *>(indices[d].get());
                    }
                    bool riding_axis = false;
                    if (as_var != nullptr) {
                        auto info_it = infos_.find(axis.get());
                        if (info_it != infos_.end() &&
                            coordSubst_.count(as_var) &&
                            sameIterVar(as_var, axis)) {
                            const auto &info = info_it->second;
                            if (info.posVar != nullptr) {
                                out.positions.push_back(info.posVar);
                            } else {
                                // Fused axis: relative position =
                                // absolute - row base.
                                out.positions.push_back(relativePos(
                                    axis, info.absPos, prev_abs));
                            }
                            prev_abs = info.absPos;
                            riding_axis = true;
                        }
                    }
                    if (riding_axis) {
                        continue;
                    }
                    // General case: compute the coordinate-space value
                    // then compress to a position (eq. 4).
                    Expr coord = mutateExpr(indices[d]);
                    auto add_guard = [&](Expr g) {
                        out.guard = out.guard == nullptr
                                        ? g
                                        : logicalAnd(out.guard, g);
                    };
                    switch (axis->kind) {
                      case AxisKind::kDenseFixed:
                        out.positions.push_back(coord);
                        prev_abs = out.positions.back();
                        break;
                      case AxisKind::kDenseVariable: {
                        out.positions.push_back(coord);
                        Expr base = bufferLoad(
                            lowerer_->indptrBuf(axis), {prev_abs});
                        prev_abs = add(base, coord);
                        break;
                      }
                      case AxisKind::kSparseFixed: {
                        Expr lo = mul(prev_abs, axis->nnzCols);
                        Expr hi = add(lo, axis->nnzCols);
                        Expr found = call(
                            axis->idtype, Builtin::kLowerBound,
                            {lo, hi, coord},
                            lowerer_->indicesBuf(axis));
                        add_guard(logicalAnd(
                            lt(found, hi),
                            eq(bufferLoad(lowerer_->indicesBuf(axis),
                                          {found}),
                               coord)));
                        out.positions.push_back(sub(found, lo));
                        prev_abs = found;
                        break;
                      }
                      case AxisKind::kSparseVariable: {
                        Buffer indptr = lowerer_->indptrBuf(axis);
                        Expr lo = bufferLoad(indptr, {prev_abs});
                        Expr hi = bufferLoad(
                            indptr, {add(prev_abs, intImm(1))});
                        Expr found = call(
                            axis->idtype, Builtin::kLowerBound,
                            {lo, hi, coord},
                            lowerer_->indicesBuf(axis));
                        add_guard(logicalAnd(
                            lt(found, hi),
                            eq(bufferLoad(lowerer_->indicesBuf(axis),
                                          {found}),
                               coord)));
                        out.positions.push_back(sub(found, lo));
                        prev_abs = found;
                        break;
                      }
                    }
                }
                return out;
            }

            /** Relative position from absolute, given parent abs. */
            Expr
            relativePos(const Axis &axis, const Expr &abs,
                        const Expr &parent_abs)
            {
                switch (axis->kind) {
                  case AxisKind::kDenseFixed:
                    return abs;
                  case AxisKind::kSparseFixed:
                    return sub(abs, mul(parent_abs, axis->nnzCols));
                  case AxisKind::kDenseVariable:
                  case AxisKind::kSparseVariable:
                    return sub(abs,
                               bufferLoad(lowerer_->indptrBuf(axis),
                                          {parent_abs}));
                }
                ICHECK(false);
                return nullptr;
            }

            /** Is `v` the iteration variable bound to `axis`? */
            bool
            sameIterVar(const VarNode *v, const Axis &axis)
            {
                auto it = iterVarAxis_.find(v);
                if (it == iterVarAxis_.end()) {
                    return false;
                }
                return it->second == axis.get();
            }

          public:
            std::map<const VarNode *, const AxisNode *> iterVarAxis_;

          private:
            Lowerer *lowerer_;
            const std::map<const AxisNode *, AxisLoopInfo> &infos_;
            const std::map<const VarNode *, Expr> &coordSubst_;
        };

        AccessTranslator translator(this, infos, coord_subst);
        for (size_t i = 0; i < iter->axes.size(); ++i) {
            translator.iterVarAxis_[iter->iterVars[i].get()] =
                iter->axes[i].get();
        }
        Stmt target = use_init ? iter->init : iter->body;
        return translator.mutateStmt(target);
    }

    PrimFunc func_;
    std::set<const AxisNode *> visitedAxes_;
    AxisBuffers indptrBuffers_;
    AxisBuffers indicesBuffers_;
};

} // namespace

PrimFunc
lowerSparseIterations(const PrimFunc &func)
{
    USER_CHECK(func->stage == IrStage::kStage1)
        << "lowerSparseIterations expects a Stage I function";
    Lowerer lowerer(func);
    return lowerer.run();
}

} // namespace transform
} // namespace sparsetir
