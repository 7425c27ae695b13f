#include "dfg/lower.h"

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "ir/buffer.h"
#include "ir/expr.h"
#include "ir/stmt.h"
#include "support/logging.h"
#include "transform/fuse_regions.h"
#include "transform/hoist_invariants.h"

namespace sparsetir {
namespace dfg {

using namespace ir;

namespace {

/**
 * Flat float/int buffer whose handle param carries the buffer name
 * itself (the binding key), matching the core kernels' convention
 * ("J_indptr" binds the param named "J_indptr").
 */
Buffer
flatBuffer(const std::string &name, int64_t numel, DataType dtype)
{
    USER_CHECK(numel >= 0 &&
               numel <= std::numeric_limits<int32_t>::max())
        << "buffer '" << name << "' with " << numel
        << " elements exceeds the int32 index space";
    auto node = std::make_shared<BufferNode>();
    node->data = var(name, DataType::handle());
    node->name = name;
    node->dtype = dtype;
    node->shape = {intImm(numel)};
    return node;
}

/** Interior values carry generated names; named values their own. */
std::string
valueBufferName(const ValueDesc &desc, int vid)
{
    return desc.name.empty() ? "t_" + std::to_string(vid) : desc.name;
}

int64_t
valueNumel(const ValueDesc &desc)
{
    return desc.edge ? desc.pattern->nnz() : desc.rows * desc.cols;
}

/**
 * Shared lowering state: one row variable and one buffer object per
 * value / structure array, reused by every node kernel so the fusion
 * pass's name-keyed dedup and the structural index folding see
 * pointer-identical vars and buffers.
 */
struct LowerCtx
{
    const OpGraph *graph = nullptr;
    Var row;
    std::vector<Buffer> valueBuf;
    std::vector<PatternRef> patterns;
    std::vector<Buffer> indptrBuf;
    std::vector<Buffer> indicesBuf;

    int
    patternId(const PatternRef &pattern)
    {
        for (size_t i = 0; i < patterns.size(); ++i) {
            if (patterns[i].get() == pattern.get()) {
                return static_cast<int>(i);
            }
        }
        int id = static_cast<int>(patterns.size());
        std::string stem = "J" + std::to_string(id);
        patterns.push_back(pattern);
        indptrBuf.push_back(
            flatBuffer(stem + "_indptr",
                       static_cast<int64_t>(pattern->indptr.size()),
                       DataType::int32()));
        indicesBuf.push_back(flatBuffer(stem + "_indices",
                                        pattern->nnz(),
                                        DataType::int32()));
        return id;
    }
};

/** `extent`-element float32 local accumulator. */
Buffer
accBuffer(const std::string &name, int64_t extent = 1)
{
    auto node = std::make_shared<BufferNode>();
    node->data = var(name, DataType::handle());
    node->name = name;
    node->dtype = DataType::float32();
    node->shape = {intImm(extent)};
    node->scope = MemScope::kLocal;
    return node;
}

/**
 * Emission helpers for one node. Everything row-relative is written
 * in terms of ctx.row; the `J_indptr[i] + r` position and the
 * `r < J_indptr[i+1] - J_indptr[i]` guard are re-emitted structurally
 * identical at every use so the affine prover's interning and the
 * fusion pass's index folding both match them.
 */
struct NodeEmit
{
    LowerCtx *ctx;
    const Node *node;
    int nid = 0;
    int pid = -1;

    Var
    loopVar(const std::string &stem) const
    {
        return var(stem + std::to_string(nid));
    }

    Expr
    width() const
    {
        const Buffer &jp = ctx->indptrBuf[static_cast<size_t>(pid)];
        return sub(bufferLoad(jp, {add(ctx->row, intImm(1))}),
                   bufferLoad(jp, {ctx->row}));
    }

    /** Flat edge position of (row, r). */
    Expr
    pos(const Var &r) const
    {
        const Buffer &jp = ctx->indptrBuf[static_cast<size_t>(pid)];
        return add(bufferLoad(jp, {ctx->row}), r);
    }

    /** Column id at (row, r). */
    Expr
    col(const Var &r) const
    {
        return bufferLoad(ctx->indicesBuf[static_cast<size_t>(pid)],
                          {pos(r)});
    }

    /** Padded inner loop over positions, body guarded by the width. */
    Stmt
    rowPositions(const Var &r, Stmt body) const
    {
        int64_t maxw = ctx->patterns[static_cast<size_t>(pid)]
                           ->maxRowNnz();
        return forLoop(r, intImm(0), intImm(maxw),
                       ifThenElse(lt(r, width()), std::move(body)));
    }

    const Buffer &
    in(size_t which) const
    {
        return ctx->valueBuf[static_cast<size_t>(
            node->inputs[which])];
    }

    const Buffer &
    out() const
    {
        return ctx->valueBuf[static_cast<size_t>(node->output)];
    }

    /** Flat row-major offset (ctx.row, k) of a dense value. */
    Expr
    denseAt(int vid, const Var &k) const
    {
        const ValueDesc &desc = ctx->graph->value(vid);
        return add(mul(ctx->row, intImm(desc.cols)), k);
    }
};

Stmt
sddmmRowBody(const NodeEmit &e)
{
    const OpGraph &g = *e.ctx->graph;
    int64_t feat = g.value(e.node->inputs[0]).cols;
    int64_t n = g.value(e.node->inputs[1]).cols;
    Buffer acc = accBuffer("acc" + std::to_string(e.nid));
    Var r = e.loopVar("r");
    Var k = e.loopVar("k");
    Expr x = bufferLoad(e.in(0),
                        {add(mul(e.ctx->row, intImm(feat)), k)});
    Expr y = bufferLoad(e.in(1), {add(mul(k, intImm(n)), e.col(r))});
    Stmt inner = seq({
        bufferStore(acc, {intImm(0)}, floatImm(0.0)),
        forLoop(k, intImm(0), intImm(feat),
                bufferStore(acc, {intImm(0)},
                            add(bufferLoad(acc, {intImm(0)}),
                                mul(x, y)))),
        bufferStore(e.out(), {e.pos(r)},
                    bufferLoad(acc, {intImm(0)})),
    });
    return allocate(acc, e.rowPositions(r, std::move(inner)));
}

Stmt
softmaxRowBody(const NodeEmit &e)
{
    Buffer mx = accBuffer("accmx" + std::to_string(e.nid));
    Buffer sm = accBuffer("accsm" + std::to_string(e.nid));
    Var r1 = e.loopVar("ra");
    Var r2 = e.loopVar("rb");
    Var r3 = e.loopVar("rc");
    // Numerically-stable three-pass form. Pass 2 stores the float32
    // exp(x - max) into the output and sums the stored values; pass 3
    // divides them in place. One exp() per entry gives the same bits
    // as recomputing it for the division, because the stored value is
    // exactly what a second call would return. Fused and chain
    // lowerings share this emitter, so they stay bitwise equal.
    Expr neg_inf = floatImm(-std::numeric_limits<float>::max());
    Stmt pass1 = e.rowPositions(
        r1, bufferStore(mx, {intImm(0)},
                        max(bufferLoad(mx, {intImm(0)}),
                            bufferLoad(e.in(0), {e.pos(r1)}))));
    Expr shifted = call(DataType::float32(), Builtin::kExp,
                        {sub(bufferLoad(e.in(0), {e.pos(r2)}),
                             bufferLoad(mx, {intImm(0)}))});
    Stmt pass2 = e.rowPositions(
        r2, seq({
                bufferStore(e.out(), {e.pos(r2)}, std::move(shifted)),
                bufferStore(sm, {intImm(0)},
                            add(bufferLoad(sm, {intImm(0)}),
                                bufferLoad(e.out(), {e.pos(r2)}))),
            }));
    Stmt pass3 = e.rowPositions(
        r3, bufferStore(e.out(), {e.pos(r3)},
                        div(bufferLoad(e.out(), {e.pos(r3)}),
                            bufferLoad(sm, {intImm(0)}))));
    Stmt body = seq({
        bufferStore(mx, {intImm(0)}, neg_inf),
        std::move(pass1),
        bufferStore(sm, {intImm(0)}, floatImm(0.0)),
        std::move(pass2),
        std::move(pass3),
    });
    return allocate(mx, allocate(sm, std::move(body)));
}

/**
 * Host-order row reduction into the node's dense output row: a
 * feat-wide local accumulator is zeroed, `outer` wraps the
 * constant-extent feature loop `acc[f] = acc[f] + term(f)` in the
 * loop it reduces over, and a write-back loop stores acc[f] (divided
 * by `divisor` when one is given).
 * Each feature still sums its terms in `outer`'s order, so this is
 * bit for bit the feature-outer form with a one-element accumulator,
 * but the innermost loop now walks contiguous features (it
 * vectorizes, and the gathered row's column id loads once per
 * non-zero rather than once per feature).
 */
Stmt
featureInnerReduce(const NodeEmit &e, const std::string &stem,
                   const std::function<Stmt(Stmt)> &outer,
                   const std::function<Expr(const Var &)> &term,
                   const Expr &divisor = Expr())
{
    int64_t feat = e.ctx->graph->value(e.node->output).cols;
    Buffer acc = accBuffer("acc" + std::to_string(e.nid), feat);
    Var fz = e.loopVar(stem + "z");
    Var f = e.loopVar(stem);
    Var fw = e.loopVar(stem + "w");
    Stmt init = forLoop(fz, intImm(0), intImm(feat),
                        bufferStore(acc, {fz}, floatImm(0.0)));
    Stmt reduce = outer(forLoop(
        f, intImm(0), intImm(feat),
        bufferStore(acc, {f}, add(bufferLoad(acc, {f}), term(f)))));
    Expr sum = bufferLoad(acc, {fw});
    Stmt write_back = forLoop(
        fw, intImm(0), intImm(feat),
        bufferStore(e.out(), {e.denseAt(e.node->output, fw)},
                    divisor == nullptr ? sum : div(sum, divisor)));
    return allocate(acc, seq({std::move(init), std::move(reduce),
                              std::move(write_back)}));
}

Stmt
spmmRowBody(const NodeEmit &e)
{
    int64_t feat = e.ctx->graph->value(e.node->output).cols;
    Var r = e.loopVar("r");
    return featureInnerReduce(
        e, "k",
        [&](Stmt feature_loop) {
            return e.rowPositions(r, std::move(feature_loop));
        },
        [&](const Var &k) {
            Expr b = bufferLoad(e.in(1),
                                {add(mul(e.col(r), intImm(feat)), k)});
            return mul(bufferLoad(e.in(0), {e.pos(r)}), std::move(b));
        });
}

Stmt
elementwiseRowBody(const NodeEmit &e)
{
    Var r = e.loopVar("r");
    Expr v = bufferLoad(e.in(0), {e.pos(r)});
    Expr mapped;
    switch (e.node->fn) {
      case EwiseFn::kScale:
        mapped = mul(v, floatImm(e.node->scale));
        break;
      case EwiseFn::kRelu:
        mapped = max(v, floatImm(0.0));
        break;
    }
    return e.rowPositions(
        r, bufferStore(e.out(), {e.pos(r)}, std::move(mapped)));
}

Stmt
aggregateRowBody(const NodeEmit &e)
{
    int64_t feat = e.ctx->graph->value(e.node->output).cols;
    Var r = e.loopVar("r");
    // Empty rows divide by max(degree, 1): sum is zero, mean is zero,
    // and no division-by-zero reaches either backend.
    Expr degree;
    if (e.node->mean) {
        degree = max(cast(DataType::float32(), e.width()), floatImm(1.0));
    }
    return featureInnerReduce(
        e, "k",
        [&](Stmt feature_loop) {
            return e.rowPositions(r, std::move(feature_loop));
        },
        [&](const Var &k) {
            return bufferLoad(e.in(0),
                              {add(mul(e.col(r), intImm(feat)), k)});
        },
        degree);
}

Stmt
updateRowBody(const NodeEmit &e)
{
    const OpGraph &g = *e.ctx->graph;
    int64_t inner = g.value(e.node->inputs[0]).cols;
    int64_t feat = g.value(e.node->output).cols;
    Var k = e.loopVar("k");
    return featureInnerReduce(
        e, "j",
        [&](Stmt feature_loop) {
            return forLoop(k, intImm(0), intImm(inner),
                           std::move(feature_loop));
        },
        [&](const Var &j) {
            Expr h = bufferLoad(e.in(0),
                                {e.denseAt(e.node->inputs[0], k)});
            Expr w = bufferLoad(e.in(1), {add(mul(k, intImm(feat)), j)});
            return mul(std::move(h), std::move(w));
        });
}

Stmt
addRowBody(const NodeEmit &e)
{
    const OpGraph &g = *e.ctx->graph;
    int64_t feat = g.value(e.node->output).cols;
    Var k = e.loopVar("k");
    Expr lhs = bufferLoad(e.in(0), {e.denseAt(e.node->inputs[0], k)});
    Expr rhs = bufferLoad(e.in(1), {e.denseAt(e.node->inputs[1], k)});
    return forLoop(k, intImm(0), intImm(feat),
                   bufferStore(e.out(),
                               {e.denseAt(e.node->output, k)},
                               add(std::move(lhs), std::move(rhs))));
}

PrimFunc
nodeFunc(LowerCtx *ctx, int nid)
{
    const Node &node = ctx->graph->nodes()[static_cast<size_t>(nid)];
    NodeEmit e;
    e.ctx = ctx;
    e.node = &node;
    e.nid = nid;
    if (node.pattern != nullptr) {
        e.pid = ctx->patternId(node.pattern);
    }

    Stmt row_body;
    switch (node.type) {
      case OpType::kSddmm:
        row_body = sddmmRowBody(e);
        break;
      case OpType::kMaskedSoftmax:
        row_body = softmaxRowBody(e);
        break;
      case OpType::kSpmm:
        row_body = spmmRowBody(e);
        break;
      case OpType::kElementwise:
        row_body = elementwiseRowBody(e);
        break;
      case OpType::kAggregate:
        row_body = aggregateRowBody(e);
        break;
      case OpType::kUpdate:
        row_body = updateRowBody(e);
        break;
      case OpType::kAdd:
        row_body = addRowBody(e);
        break;
    }
    ICHECK(row_body != nullptr);

    PrimFunc func = primFunc("dfg_" + std::string(opTypeName(node.type)) +
                             "_n" + std::to_string(nid));
    func->stage = IrStage::kStage3;
    auto addParam = [&func](const Buffer &buffer) {
        for (const auto &[v, b] : func->bufferMap) {
            (void)v;
            if (b.get() == buffer.get()) {
                return;
            }
        }
        func->params.push_back(buffer->data);
        func->bufferMap.emplace_back(buffer->data, buffer);
    };
    if (e.pid >= 0) {
        addParam(ctx->indptrBuf[static_cast<size_t>(e.pid)]);
        // Softmax and elementwise never read column ids; keep their
        // signatures to what the body touches.
        if (node.type == OpType::kSddmm ||
            node.type == OpType::kSpmm ||
            node.type == OpType::kAggregate) {
            addParam(ctx->indicesBuf[static_cast<size_t>(e.pid)]);
        }
    }
    for (int input : node.inputs) {
        addParam(ctx->valueBuf[static_cast<size_t>(input)]);
    }
    addParam(ctx->valueBuf[static_cast<size_t>(node.output)]);

    func->body = forLoop(ctx->row, intImm(0),
                         intImm(ctx->graph->rows()),
                         std::move(row_body),
                         ForKind::kThreadBinding, "blockIdx.x");
    return func;
}

} // namespace

namespace {

/**
 * Operand slots a node gathers by column id, i.e. reads operand rows
 * other than the fused row (spmm's dense rhs at B[col(p),k],
 * aggregate's input at X[col(p),k], sddmm's rhs at Y[k,col(p)];
 * sddmm's lhs is row-local today but held to the same rule so both
 * sddmm operands obey one contract). Fusion demotes interior values
 * to per-row locals covering only the fused row's window, and rows
 * run in parallel over blockIdx.x — so a gather over an interior
 * value would read local memory the row never wrote and race with
 * the producer in other rows. Only graph inputs may be gathered.
 */
size_t
gatheredOperands(OpType type, size_t slots[2])
{
    switch (type) {
      case OpType::kSddmm:
        slots[0] = 0;
        slots[1] = 1;
        return 2;
      case OpType::kSpmm:
        slots[0] = 1;
        return 1;
      case OpType::kAggregate:
        slots[0] = 0;
        return 1;
      default:
        return 0;
    }
}

} // namespace

bool
fusible(const OpGraph &graph, std::string *reason)
{
    const SparsityPattern *shared = nullptr;
    for (const Node &node : graph.nodes()) {
        if (node.pattern == nullptr) {
            continue;
        }
        if (shared == nullptr) {
            shared = node.pattern.get();
        } else if (shared != node.pattern.get()) {
            *reason = "nodes iterate distinct sparsity structures "
                      "(share one PatternRef to fuse)";
            return false;
        }
    }
    for (const Node &node : graph.nodes()) {
        size_t slots[2];
        size_t count = gatheredOperands(node.type, slots);
        for (size_t g = 0; g < count; ++g) {
            int vid = node.inputs[slots[g]];
            if (graph.value(vid).producer >= 0) {
                *reason = std::string(opTypeName(node.type)) +
                          " gathers rows of interior value '" +
                          valueBufferName(graph.value(vid), vid) +
                          "' across the row space; fusion cannot "
                          "localize a gathered operand";
                return false;
            }
        }
    }
    std::vector<int> consumers(graph.values().size(), 0);
    for (const Node &node : graph.nodes()) {
        for (int input : node.inputs) {
            consumers[static_cast<size_t>(input)] += 1;
        }
    }
    for (int vid : graph.outputs()) {
        if (consumers[static_cast<size_t>(vid)] > 0) {
            *reason = "interior value '" + graph.value(vid).name +
                      "' is exposed as a graph output and must "
                      "materialize";
            return false;
        }
    }
    reason->clear();
    return true;
}

GraphLowering
lowerGraph(const OpGraph &graph, bool fuse)
{
    USER_CHECK(!graph.nodes().empty())
        << "cannot lower a graph with no compute nodes";
    USER_CHECK(!graph.outputs().empty())
        << "cannot lower a graph with no marked outputs";

    LowerCtx ctx;
    ctx.graph = &graph;
    ctx.row = var("i");
    ctx.valueBuf.reserve(graph.values().size());
    for (size_t vid = 0; vid < graph.values().size(); ++vid) {
        const ValueDesc &desc = graph.values()[vid];
        ctx.valueBuf.push_back(
            flatBuffer(valueBufferName(desc, static_cast<int>(vid)),
                       valueNumel(desc), DataType::float32()));
    }

    GraphLowering out;
    out.rows = graph.rows();
    for (size_t nid = 0; nid < graph.nodes().size(); ++nid) {
        out.funcs.push_back(nodeFunc(&ctx, static_cast<int>(nid)));
    }
    for (size_t pid = 0; pid < ctx.patterns.size(); ++pid) {
        StructureBinding binding;
        binding.indptrName = ctx.indptrBuf[pid]->name;
        binding.indicesName = ctx.indicesBuf[pid]->name;
        binding.pattern = ctx.patterns[pid];
        out.structures.push_back(std::move(binding));
    }

    std::string reason;
    bool can_fuse = fuse && fusible(graph, &reason);
    if (can_fuse) {
        std::vector<transform::LocalizeSpec> specs;
        for (size_t vid = 0; vid < graph.values().size(); ++vid) {
            const ValueDesc &desc = graph.values()[vid];
            if (desc.producer < 0 || !desc.name.empty()) {
                continue; // inputs and marked outputs stay global
            }
            transform::LocalizeSpec spec;
            spec.buffer = ctx.valueBuf[vid]->name;
            if (desc.edge) {
                int pid = ctx.patternId(desc.pattern);
                spec.rowBase = bufferLoad(
                    ctx.indptrBuf[static_cast<size_t>(pid)],
                    {ctx.row});
                spec.extent = std::max<int64_t>(
                    1, desc.pattern->maxRowNnz());
            } else {
                spec.rowBase = mul(ctx.row, intImm(desc.cols));
                spec.extent = desc.cols;
            }
            specs.push_back(std::move(spec));
        }
        out.funcs = {transform::fuseRowRegions(out.funcs,
                                               "dfg_fused_graph",
                                               specs)};
        out.fused = true;
    } else {
        out.fused = false;
        out.reason = fuse ? reason : "per-kernel dispatch requested";
        for (size_t vid = 0; vid < graph.values().size(); ++vid) {
            const ValueDesc &desc = graph.values()[vid];
            if (desc.producer < 0 || !desc.name.empty()) {
                continue;
            }
            LoweredTemp temp;
            temp.name = ctx.valueBuf[vid]->name;
            temp.numel = valueNumel(desc);
            out.temps.push_back(std::move(temp));
        }
    }
    for (ir::PrimFunc &func : out.funcs) {
        func = transform::hoistInvariants(func);
    }
    return out;
}

} // namespace dfg
} // namespace sparsetir
