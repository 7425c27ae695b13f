#include "core/ops.h"

#include "ir/analysis.h"
#include "ir/builder.h"
#include "transform/stage1_schedule.h"

namespace sparsetir {
namespace core {

using namespace ir;

PrimFunc
buildSpmm(int64_t feat)
{
    SparseTirBuilder b("spmm");
    Var m = b.scalarParam("m");
    Var n = b.scalarParam("n");
    Var nnz = b.scalarParam("nnz");
    Var feat_size = b.scalarParam("feat_size");
    Axis i_axis = b.addDenseFixed("I", m);
    Axis j_axis = b.addSparseVariable("J", i_axis, n, nnz);
    Axis jd_axis = b.addDenseFixed("J_", n);
    Axis k_axis =
        b.addDenseFixed("K", feat > 0 ? intImm(feat) : Expr(feat_size));
    Buffer a = b.addSparseBuffer("A", {i_axis, j_axis});
    Buffer x = b.addSparseBuffer("B", {jd_axis, k_axis});
    Buffer c = b.addSparseBuffer("C", {i_axis, k_axis});
    b.spIter(
        {i_axis, j_axis, k_axis}, "SRS", "spmm",
        [&](const std::vector<Var> &v) {
            return bufferStore(
                c, {v[0], v[2]},
                add(bufferLoad(c, {v[0], v[2]}),
                    mul(bufferLoad(a, {v[0], v[1]}),
                        bufferLoad(x, {v[1], v[2]}))));
        },
        [&](const std::vector<Var> &v) {
            return bufferStore(c, {v[0], v[2]}, floatImm(0.0f));
        });
    return b.finish();
}

PrimFunc
buildSddmm(bool fuse_ij)
{
    SparseTirBuilder b("sddmm");
    Var m = b.scalarParam("m");
    Var n = b.scalarParam("n");
    Var nnz = b.scalarParam("nnz");
    Var feat = b.scalarParam("feat_size");
    Axis i_axis = b.addDenseFixed("I", m);
    Axis j_axis = b.addSparseVariable("J", i_axis, n, nnz);
    Axis id_axis = b.addDenseFixed("I_", m);
    Axis jd_axis = b.addDenseFixed("J_", n);
    Axis k_axis = b.addDenseFixed("K", feat);
    Buffer a = b.addSparseBuffer("A", {i_axis, j_axis});
    Buffer x = b.addSparseBuffer("X", {id_axis, k_axis});
    Buffer y = b.addSparseBuffer("Y", {k_axis, jd_axis});
    Buffer out = b.addSparseBuffer("B", {i_axis, j_axis});
    b.spIter(
        {i_axis, j_axis, k_axis}, "SSR", "sddmm",
        [&](const std::vector<Var> &v) {
            return bufferStore(
                out, {v[0], v[1]},
                add(bufferLoad(out, {v[0], v[1]}),
                    mul(mul(bufferLoad(a, {v[0], v[1]}),
                            bufferLoad(x, {v[0], v[2]})),
                        bufferLoad(y, {v[2], v[1]}))));
        },
        [&](const std::vector<Var> &v) {
            return bufferStore(out, {v[0], v[1]}, floatImm(0.0f));
        });
    PrimFunc func = b.finish();
    if (fuse_ij) {
        func = transform::sparseFuse(func, "sddmm", {"I", "J"});
    }
    return func;
}

PrimFunc
buildBsrSpmm(int block_size)
{
    SparseTirBuilder b("bsr_spmm");
    Var mb = b.scalarParam("mb");    // block rows
    Var nb = b.scalarParam("nb");    // block cols
    Var nnzb = b.scalarParam("nnzb");
    Var feat = b.scalarParam("feat_size");
    Axis io = b.addDenseFixed("IO", mb);
    Axis jo = b.addSparseVariable("JO", io, nb, nnzb);
    Axis ii = b.addDenseFixed("II", intImm(block_size));
    Axis ji = b.addDenseFixed("JI", intImm(block_size));
    Axis jd = b.addDenseFixed("J_", mul(nb, intImm(block_size)));
    Axis k_axis = b.addDenseFixed("K", feat);
    Axis id = b.addDenseFixed("I_", mul(mb, intImm(block_size)));
    Buffer a = b.addSparseBuffer("A", {io, jo, ii, ji});
    Buffer x = b.addSparseBuffer("B", {jd, k_axis});
    Buffer c = b.addSparseBuffer("C", {id, k_axis});
    Expr bs = intImm(block_size);
    // Iteration order keeps the intra-block (ii, ji) loops innermost
    // so the tensorized MMA consumes whole fragments: the simulator
    // and codegen then see one cooperative block-load per (jo, k)
    // tile instead of per-thread scalar traffic.
    b.spIter(
        {io, jo, k_axis, ii, ji}, "SRSSR", "bsr_spmm",
        [&](const std::vector<Var> &v) {
            // v = [io, jo, k, ii, ji]
            Expr row = add(mul(v[0], bs), v[3]);
            Expr col = add(mul(v[1], bs), v[4]);
            return bufferStore(
                c, {row, v[2]},
                add(bufferLoad(c, {row, v[2]}),
                    mul(bufferLoad(a, {v[0], v[1], v[3], v[4]}),
                        bufferLoad(x, {col, v[2]}))));
        },
        [&](const std::vector<Var> &v) {
            Expr row = add(mul(v[0], bs), v[3]);
            return bufferStore(c, {row, v[2]}, floatImm(0.0f));
        });
    return b.finish();
}

PrimFunc
buildBsrSddmm(int block_size)
{
    SparseTirBuilder b("bsr_sddmm");
    Var mb = b.scalarParam("mb");    // block rows
    Var nb = b.scalarParam("nb");    // block cols
    Var nnzb = b.scalarParam("nnzb");
    Var feat = b.scalarParam("feat_size");
    Axis io = b.addDenseFixed("IO", mb);
    Axis jo = b.addSparseVariable("JO", io, nb, nnzb);
    Axis ii = b.addDenseFixed("II", intImm(block_size));
    Axis ji = b.addDenseFixed("JI", intImm(block_size));
    Axis id = b.addDenseFixed("I_", mul(mb, intImm(block_size)));
    Axis jd = b.addDenseFixed("J_", mul(nb, intImm(block_size)));
    Axis k_axis = b.addDenseFixed("K", feat);
    Buffer x = b.addSparseBuffer("X", {id, k_axis});
    Buffer y = b.addSparseBuffer("Y", {k_axis, jd});
    Buffer out = b.addSparseBuffer("B", {io, jo, ii, ji});
    Expr bs = intImm(block_size);
    b.spIter(
        {io, jo, ii, ji, k_axis}, "SSSSR", "bsr_sddmm",
        [&](const std::vector<Var> &v) {
            // v = [io, jo, ii, ji, k]
            Expr row = add(mul(v[0], bs), v[2]);
            Expr col = add(mul(v[1], bs), v[3]);
            return bufferStore(
                out, {v[0], v[1], v[2], v[3]},
                add(bufferLoad(out, {v[0], v[1], v[2], v[3]}),
                    mul(bufferLoad(x, {row, v[4]}),
                        bufferLoad(y, {v[4], col}))));
        },
        [&](const std::vector<Var> &v) {
            return bufferStore(out, {v[0], v[1], v[2], v[3]},
                               floatImm(0.0f));
        });
    return b.finish();
}

PrimFunc
buildSrbcrsSpmm(int tile_height, int group_size)
{
    SparseTirBuilder b("srbcrs_spmm");
    Var stripes = b.scalarParam("stripes");
    Var n = b.scalarParam("n");
    Var total_groups = b.scalarParam("total_groups");
    Var feat = b.scalarParam("feat_size");
    // S: stripe axis; G: variable groups per stripe; T: g tiles per
    // group carrying column indices; V: t rows inside a tile.
    Axis s_axis = b.addDenseFixed("S", stripes);
    Axis g_axis =
        b.addDenseVariable("G", s_axis, total_groups, total_groups);
    Axis t_axis = b.addSparseFixed("T", g_axis, n, intImm(group_size));
    Axis v_axis = b.addDenseFixed("V", intImm(tile_height));
    Axis jd = b.addDenseFixed("J_", n);
    Axis k_axis = b.addDenseFixed("K", feat);
    Axis id = b.addDenseFixed("I_", mul(stripes, intImm(tile_height)));
    Buffer a = b.addSparseBuffer("A", {s_axis, g_axis, t_axis, v_axis});
    Buffer x = b.addSparseBuffer("B", {jd, k_axis});
    Buffer c = b.addSparseBuffer("C", {id, k_axis});
    Expr th = intImm(tile_height);
    b.spIter(
        {s_axis, g_axis, t_axis, v_axis, k_axis}, "SRRSS",
        "srbcrs_spmm",
        [&](const std::vector<Var> &v) {
            // v = [s, g, t, vi, k]; the coordinate of t is the column.
            Expr row = add(mul(v[0], th), v[3]);
            return bufferStore(
                c, {row, v[4]},
                add(bufferLoad(c, {row, v[4]}),
                    mul(bufferLoad(a, {v[0], v[1], v[2], v[3]}),
                        bufferLoad(x, {v[2], v[4]}))));
        },
        [&](const std::vector<Var> &v) {
            Expr row = add(mul(v[0], th), v[3]);
            return bufferStore(c, {row, v[4]}, floatImm(0.0f));
        });
    return b.finish();
}

PrimFunc
buildEllRgms(int64_t num_rows, int width, int64_t feat_in,
             int64_t feat_out, const std::string &suffix)
{
    SparseTirBuilder b("rgms_" + suffix);
    Var m = b.scalarParam("m");
    Var n = b.scalarParam("n");
    // Feature sizes are baked in as constants: the fused RGMS kernel
    // is specialized per model configuration, which lets cache_read
    // stage the whole weight tile and keeps every dense loop extent
    // static for scheduling.
    Expr fin = intImm(feat_in);
    Expr fout = intImm(feat_out);
    Axis o_axis = b.addDenseFixed("O" + suffix, intImm(1));
    Axis i_axis =
        b.addSparseFixed("I" + suffix, o_axis, m, intImm(num_rows));
    Axis j_axis =
        b.addSparseFixed("J" + suffix, i_axis, n, intImm(width));
    Axis jd = b.addDenseFixed("J_", n);
    Axis k_axis = b.addDenseFixed("K", fin);
    Axis l_axis = b.addDenseFixed("L", fout);
    Axis id = b.addDenseFixed("I_", m);
    Buffer a = b.addSparseBuffer("A" + suffix, {o_axis, i_axis, j_axis});
    Buffer x = b.addSparseBuffer("X", {jd, k_axis});
    Buffer w = b.addSparseBuffer("W", {k_axis, l_axis});
    Buffer y = b.addSparseBuffer("Y", {id, l_axis});
    b.spIter(
        {o_axis, i_axis, j_axis, k_axis, l_axis}, "SSRRS",
        "rgms_" + suffix,
        [&](const std::vector<Var> &v) {
            // v = [o, i, j, k, l]; i and j stand for coordinates (the
            // original row id and the neighbour column).
            return bufferStore(
                y, {v[1], v[4]},
                add(bufferLoad(y, {v[1], v[4]}),
                    mul(mul(bufferLoad(a, {v[0], v[1], v[2]}),
                            bufferLoad(x, {v[2], v[3]})),
                        bufferLoad(w, {v[3], v[4]}))));
        },
        [&](const std::vector<Var> &v) {
            return bufferStore(y, {v[1], v[4]}, floatImm(0.0f));
        });
    return b.finish();
}

transform::FormatRewriteRule
ellRule(const std::string &suffix, int64_t m, int64_t n, Expr num_rows,
        int width)
{
    transform::FormatRewriteRule rule;
    rule.name = "ell_" + suffix;
    rule.bufferName = "A";
    Axis o_axis = denseFixed("O" + suffix, intImm(1));
    Var i_indices = var("I" + suffix + "_indices", DataType::handle());
    Axis i_axis = sparseFixed("I" + suffix, o_axis, intImm(m),
                              std::move(num_rows), i_indices);
    Var j_indices = var("J" + suffix + "_indices", DataType::handle());
    Axis j_axis = sparseFixed("J" + suffix, i_axis, intImm(n),
                              intImm(width), j_indices);
    rule.newAxes = {o_axis, i_axis, j_axis};
    rule.newBuffer =
        matchSparseBuffer("A_" + rule.name, {o_axis, i_axis, j_axis});
    rule.axisMap = {{"I", {"O" + suffix, "I" + suffix}},
                    {"J", {"J" + suffix}}};
    rule.invIndexMap = [](const std::vector<Expr> &coords) {
        // (o, i, j) -> (i, j)
        return std::vector<Expr>{coords[1], coords[2]};
    };
    rule.fwdIndexMap = [](const std::vector<Expr> &coords) {
        // (i, j) -> (o, i, j)
        return std::vector<Expr>{intImm(0), coords[0], coords[1]};
    };
    return rule;
}

transform::FormatRewriteRule
bsrRule(const std::string &suffix, int64_t m, int64_t n, int block_size,
        int64_t block_rows, int64_t nnz_blocks)
{
    transform::FormatRewriteRule rule;
    rule.name = "bsr_" + suffix;
    rule.bufferName = "A";
    Var indptr = var("IO" + suffix + "_indptr", DataType::handle());
    Var indices = var("JO" + suffix + "_indices", DataType::handle());
    Axis io = denseFixed("IO" + suffix, intImm(block_rows));
    Axis jo = sparseVariable("JO" + suffix, io,
                             intImm((n + block_size - 1) / block_size),
                             intImm(nnz_blocks), indptr, indices);
    Axis ii = denseFixed("II" + suffix, intImm(block_size));
    Axis ji = denseFixed("JI" + suffix, intImm(block_size));
    rule.newAxes = {io, jo, ii, ji};
    rule.newBuffer =
        matchSparseBuffer("A_" + rule.name, {io, jo, ii, ji});
    rule.axisMap = {{"I", {"IO" + suffix, "II" + suffix}},
                    {"J", {"JO" + suffix, "JI" + suffix}}};
    Expr bs = intImm(block_size);
    rule.invIndexMap = [bs](const std::vector<Expr> &coords) {
        // (io, jo, ii, ji) -> (io*b+ii, jo*b+ji)
        return std::vector<Expr>{add(mul(coords[0], bs), coords[2]),
                                 add(mul(coords[1], bs), coords[3])};
    };
    rule.fwdIndexMap = [bs](const std::vector<Expr> &coords) {
        return std::vector<Expr>{
            floorDiv(coords[0], bs), floorDiv(coords[1], bs),
            floorMod(coords[0], bs), floorMod(coords[1], bs)};
    };
    return rule;
}

std::vector<PrimFunc>
splitIterations(const PrimFunc &func)
{
    std::vector<PrimFunc> out;
    auto iterations = collectSparseIterations(func->body);
    out.reserve(iterations.size());
    for (const auto &iter : iterations) {
        PrimFunc piece = copyFunc(func);
        piece->name = func->name + "_" + iter->name;
        piece->body = iter;
        out.push_back(piece);
    }
    return out;
}

} // namespace core
} // namespace sparsetir
