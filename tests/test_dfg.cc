/**
 * @file
 * Dataflow-graph layer: differential correctness and serving-path
 * properties of engine::Engine::dispatchGraph.
 *
 * The load-bearing contract: a fused graph program is BITWISE
 * identical to dispatching the per-node chain (fusion rewrites
 * addressing, never per-row arithmetic), the chain itself matches a
 * dense reference, a graph resolves ONE cached artifact whose warm
 * dispatches never probe the launch grid, the fused path's peak
 * scratch is strictly below the chain's materialized intermediates,
 * and every lowered program — fused or chain — passes the static
 * verifier against the graph's concrete structure arrays.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dfg/lower.h"
#include "dfg/op_graph.h"
#include "engine/engine.h"
#include "ir/functor.h"
#include "model/attention.h"
#include "model/graphsage.h"
#include "model/rgcn.h"
#include "runtime/interpreter.h"
#include "support/rng.h"
#include "test_util.h"

namespace sparsetir {
namespace {

using dfg::OpGraph;
using dfg::PatternRef;
using dfg::SparsityPattern;
using engine::Engine;
using engine::EngineOptions;
using engine::GraphDispatchOptions;
using format::Csr;
using runtime::NDArray;
using testutil::bitwiseEqual;
using testutil::randomVector;

// With SPARSETIR_NATIVE=1 every engine here may serve natively: its
// .so files go to a per-process directory removed at exit.
[[maybe_unused]] const bool kNativeCacheIsolated =
    testutil::isolateNativeCacheDir("/tmp/sparsetir-dfg-native-");

Csr
randomCsr(int64_t rows, int64_t cols, double density, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> dense(rows * cols, 0.0f);
    for (auto &v : dense) {
        if (rng.uniformReal() < density) {
            v = static_cast<float>(rng.uniformReal() * 2.0 - 1.0);
            if (v == 0.0f) {
                v = 0.5f;
            }
        }
    }
    return format::csrFromDense(rows, cols, dense);
}

/** Session options of these tests; every session verifies its
 *  artifacts, so the defaults serve. */
EngineOptions
verifyingOptions()
{
    return EngineOptions();
}

/** Attention pipeline reference in plain float arithmetic. */
std::vector<float>
denseAttentionReference(const Csr &mask, int64_t d,
                        const std::vector<float> &q,
                        const std::vector<float> &kt,
                        const std::vector<float> &v)
{
    float scale =
        static_cast<float>(1.0 / std::sqrt(static_cast<double>(d)));
    std::vector<float> out(mask.rows * d, 0.0f);
    for (int64_t i = 0; i < mask.rows; ++i) {
        int32_t lo = mask.indptr[i];
        int32_t hi = mask.indptr[i + 1];
        if (lo == hi) {
            continue;
        }
        std::vector<float> scores(hi - lo);
        float mx = -std::numeric_limits<float>::max();
        for (int32_t p = lo; p < hi; ++p) {
            float acc = 0.0f;
            for (int64_t k = 0; k < d; ++k) {
                acc += q[i * d + k] *
                       kt[k * mask.cols + mask.indices[p]];
            }
            scores[p - lo] = acc * scale;
            mx = std::max(mx, scores[p - lo]);
        }
        float sum = 0.0f;
        for (float s : scores) {
            sum += std::exp(s - mx);
        }
        for (int64_t k = 0; k < d; ++k) {
            float acc = 0.0f;
            for (int32_t p = lo; p < hi; ++p) {
                acc += std::exp(scores[p - lo] - mx) / sum *
                       v[mask.indices[p] * d + k];
            }
            out[i * d + k] = acc;
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Fused vs chain vs reference
// ---------------------------------------------------------------------

TEST(DfgAttention, FusedMatchesChainBitwiseAndReference)
{
    Csr mask = randomCsr(48, 48, 0.15, 101);
    PatternRef pattern = SparsityPattern::fromCsr(mask);
    int64_t d = 16;
    NDArray q = NDArray::fromFloat(randomVector(mask.rows * d, 1));
    NDArray kt = NDArray::fromFloat(randomVector(d * mask.cols, 2));
    NDArray v = NDArray::fromFloat(randomVector(mask.cols * d, 3));
    NDArray fused({mask.rows * d}, ir::DataType::float32());
    NDArray chain({mask.rows * d}, ir::DataType::float32());

    Engine engine(verifyingOptions());
    auto fused_info = model::attentionPipeline(
        engine, pattern, d, &q, &kt, &v, &fused, /*fuse=*/true);
    auto chain_info = model::attentionPipeline(
        engine, pattern, d, &q, &kt, &v, &chain, /*fuse=*/false);

    EXPECT_EQ(fused_info.numKernels, 1);
    EXPECT_GT(chain_info.numKernels, 1);
    EXPECT_TRUE(bitwiseEqual(fused, chain));

    std::vector<float> reference = denseAttentionReference(
        mask, d, randomVector(mask.rows * d, 1),
        randomVector(d * mask.cols, 2), randomVector(mask.cols * d, 3));
    NDArray ref = NDArray::fromFloat(reference);
    EXPECT_LT(runtime::maxAbsDiff(fused, ref), 1e-4);
}

TEST(DfgGraphSage, FusedMatchesChainBitwiseAndReference)
{
    Csr adj = randomCsr(40, 32, 0.2, 7);
    PatternRef pattern = SparsityPattern::fromCsr(adj);
    int64_t fin = 12, fout = 8;
    NDArray x = NDArray::fromFloat(randomVector(adj.cols * fin, 11));
    NDArray w = NDArray::fromFloat(randomVector(fin * fout, 12));
    NDArray fused({adj.rows * fout}, ir::DataType::float32());
    NDArray chain({adj.rows * fout}, ir::DataType::float32());

    Engine engine(verifyingOptions());
    auto fused_info = model::graphSageLayer(
        engine, pattern, fin, fout, &x, &w, &fused, /*fuse=*/true);
    auto chain_info = model::graphSageLayer(
        engine, pattern, fin, fout, &x, &w, &chain, /*fuse=*/false);

    EXPECT_EQ(fused_info.numKernels, 1);
    EXPECT_EQ(chain_info.numKernels, 2);
    EXPECT_TRUE(bitwiseEqual(fused, chain));

    // Mean-aggregate + update reference (empty rows contribute 0).
    std::vector<float> xs = randomVector(adj.cols * fin, 11);
    std::vector<float> ws = randomVector(fin * fout, 12);
    std::vector<float> h(adj.rows * fin, 0.0f);
    for (int64_t i = 0; i < adj.rows; ++i) {
        int32_t lo = adj.indptr[i], hi = adj.indptr[i + 1];
        for (int64_t k = 0; k < fin; ++k) {
            float acc = 0.0f;
            for (int32_t p = lo; p < hi; ++p) {
                acc += xs[adj.indices[p] * fin + k];
            }
            h[i * fin + k] =
                acc / static_cast<float>(std::max(hi - lo, 1));
        }
    }
    std::vector<float> expected(adj.rows * fout, 0.0f);
    for (int64_t i = 0; i < adj.rows; ++i) {
        for (int64_t j = 0; j < fout; ++j) {
            float acc = 0.0f;
            for (int64_t k = 0; k < fin; ++k) {
                acc += h[i * fin + k] * ws[k * fout + j];
            }
            expected[i * fout + j] = acc;
        }
    }
    NDArray ref = NDArray::fromFloat(expected);
    EXPECT_LT(runtime::maxAbsDiff(fused, ref), 1e-4);
}

TEST(DfgBackends, FusedGraphAgreesBitwiseAcrossBackends)
{
    Csr mask = randomCsr(32, 32, 0.2, 21);
    PatternRef pattern = SparsityPattern::fromCsr(mask);
    int64_t d = 8;
    NDArray q = NDArray::fromFloat(randomVector(mask.rows * d, 31));
    NDArray kt = NDArray::fromFloat(randomVector(d * mask.cols, 32));
    NDArray v = NDArray::fromFloat(randomVector(mask.cols * d, 33));
    NDArray vm_out({mask.rows * d}, ir::DataType::float32());
    NDArray interp_out({mask.rows * d}, ir::DataType::float32());

    EngineOptions vm_opts = verifyingOptions();
    Engine vm_engine(vm_opts);
    EngineOptions interp_opts = verifyingOptions();
    interp_opts.backend = runtime::Backend::kInterpreter;
    Engine interp_engine(interp_opts);

    model::attentionPipeline(vm_engine, pattern, d, &q, &kt, &v,
                             &vm_out);
    model::attentionPipeline(interp_engine, pattern, d, &q, &kt, &v,
                             &interp_out);
    EXPECT_TRUE(bitwiseEqual(vm_out, interp_out));
}

// ---------------------------------------------------------------------
// Serving-path properties
// ---------------------------------------------------------------------

TEST(DfgServing, OneCompilePerGraphThenWarmHits)
{
    Csr mask = randomCsr(24, 24, 0.2, 41);
    PatternRef pattern = SparsityPattern::fromCsr(mask);
    int64_t d = 8;
    NDArray q = NDArray::fromFloat(randomVector(mask.rows * d, 51));
    NDArray kt = NDArray::fromFloat(randomVector(d * mask.cols, 52));
    NDArray v = NDArray::fromFloat(randomVector(mask.cols * d, 53));
    NDArray out({mask.rows * d}, ir::DataType::float32());

    Engine engine(verifyingOptions());
    auto cold = model::attentionPipeline(engine, pattern, d, &q, &kt,
                                         &v, &out);
    EXPECT_FALSE(cold.cacheHit);
    EXPECT_EQ(engine.cacheStats().misses, 1u);

    for (int i = 0; i < 3; ++i) {
        auto warm = model::attentionPipeline(engine, pattern, d, &q,
                                             &kt, &v, &out);
        EXPECT_TRUE(warm.cacheHit);
    }
    EXPECT_EQ(engine.cacheStats().misses, 1u);
    EXPECT_EQ(engine.cacheStats().hits, 3u);
}

TEST(DfgServing, FusedPeakScratchBelowChainIntermediates)
{
    Csr mask = randomCsr(64, 64, 0.2, 61);
    PatternRef pattern = SparsityPattern::fromCsr(mask);
    int64_t d = 16;
    NDArray q = NDArray::fromFloat(randomVector(mask.rows * d, 71));
    NDArray kt = NDArray::fromFloat(randomVector(d * mask.cols, 72));
    NDArray v = NDArray::fromFloat(randomVector(mask.cols * d, 73));
    NDArray out({mask.rows * d}, ir::DataType::float32());

    // The chain materializes three edge intermediates (scores,
    // scaled, weights) in leased scratch.
    int64_t chain_intermediate_bytes =
        3 * mask.nnz() * static_cast<int64_t>(sizeof(float));

    Engine engine(verifyingOptions());
    engine.resetScratchPeak();
    model::attentionPipeline(engine, pattern, d, &q, &kt, &v, &out,
                             /*fuse=*/false);
    EXPECT_GE(engine.scratchStats().peakLeasedBytes,
              chain_intermediate_bytes);

    engine.resetScratchPeak();
    model::attentionPipeline(engine, pattern, d, &q, &kt, &v, &out,
                             /*fuse=*/true);
    // Fused interiors live in per-row locals: nothing is leased, and
    // the fused peak is strictly below the chain's intermediates.
    EXPECT_EQ(engine.scratchStats().peakLeasedBytes, 0);
    EXPECT_LT(engine.scratchStats().peakLeasedBytes,
              chain_intermediate_bytes);
}

TEST(DfgServing, MixedPatternsBailToChain)
{
    PatternRef p1 = SparsityPattern::fromCsr(randomCsr(16, 12, 0.3, 81));
    PatternRef p2 = SparsityPattern::fromCsr(randomCsr(16, 12, 0.3, 82));

    OpGraph graph;
    int x = graph.denseInput("x", 12, 4);
    int w = graph.denseInput("w", 4, 4);
    int h1 = graph.aggregate(p1, x, false);
    int h2 = graph.aggregate(p2, x, false);
    int sum = graph.add(h1, h2);
    int out = graph.update(sum, w);
    graph.markOutput(out, "out");

    std::string reason;
    EXPECT_FALSE(dfg::fusible(graph, &reason));
    EXPECT_FALSE(reason.empty());

    NDArray xs = NDArray::fromFloat(randomVector(12 * 4, 91));
    NDArray ws = NDArray::fromFloat(randomVector(4 * 4, 92));
    NDArray out_arr({16 * 4}, ir::DataType::float32());
    Engine engine(verifyingOptions());
    auto info = engine.dispatchGraph(
        graph, {{"x", &xs}, {"w", &ws}, {"out", &out_arr}});
    EXPECT_EQ(info.numKernels, 4); // chain, despite fuse=true
    // The chain's three intermediates are held only while it runs.
    engine::ScratchStats scratch = engine.scratchStats();
    EXPECT_EQ(scratch.leases, 3u);
    EXPECT_EQ(scratch.leasedBytes, 0);
    EXPECT_EQ(scratch.peakLeasedBytes,
              3 * 16 * 4 * static_cast<int64_t>(sizeof(float)));
}

TEST(DfgServing, SharedPatternObjectIsWhatFuses)
{
    // Identical CONTENT but distinct PatternRef objects: fusion is
    // pointer-keyed (identity defines the iteration space).
    Csr mask = randomCsr(16, 16, 0.3, 83);
    PatternRef p1 = SparsityPattern::fromCsr(mask);
    PatternRef p2 = SparsityPattern::fromCsr(mask);

    OpGraph split;
    int q = split.denseInput("q", 16, 4);
    int kt = split.denseInput("kt", 4, 16);
    int e = split.sddmm(p1, q, kt);
    (void)e;
    int x = split.denseInput("x", 16, 4);
    int h = split.aggregate(p2, x, false);
    split.markOutput(split.update(h, split.denseInput("w", 4, 4)),
                     "out");
    std::string reason;
    EXPECT_FALSE(dfg::fusible(split, &reason));
}

TEST(DfgServing, GatheredInteriorValueBailsToChain)
{
    // aggregate's dense output feeds spmm's gathered rhs: spmm reads
    // rows col(p) != i of it, which fusion's per-row locals cannot
    // represent. The graph must bail to the chain — and stay bitwise
    // equal to the explicit chain dispatch and close to dense math.
    Csr adj = randomCsr(24, 24, 0.25, 120);
    PatternRef pattern = SparsityPattern::fromCsr(adj);
    int64_t feat = 6;
    OpGraph graph;
    int e = graph.edgeInput("e", pattern);
    int x = graph.denseInput("x", 24, feat);
    int h = graph.aggregate(pattern, x, false);
    graph.markOutput(graph.spmm(e, h), "out");

    std::string reason;
    EXPECT_FALSE(dfg::fusible(graph, &reason));
    EXPECT_FALSE(reason.empty());
    dfg::GraphLowering lowering = dfg::lowerGraph(graph, true);
    EXPECT_FALSE(lowering.fused);
    EXPECT_EQ(lowering.funcs.size(), 2u);

    std::vector<float> es = randomVector(adj.nnz(), 121);
    std::vector<float> xs = randomVector(24 * feat, 122);
    NDArray ea = NDArray::fromFloat(es);
    NDArray xa = NDArray::fromFloat(xs);
    NDArray fused_out({24 * feat}, ir::DataType::float32());
    NDArray chain_out({24 * feat}, ir::DataType::float32());
    Engine engine(verifyingOptions());
    auto info = engine.dispatchGraph(
        graph, {{"e", &ea}, {"x", &xa}, {"out", &fused_out}});
    EXPECT_EQ(info.numKernels, 2); // chain, despite fuse=true
    GraphDispatchOptions chain_opts;
    chain_opts.fuse = false;
    engine.dispatchGraph(
        graph, {{"e", &ea}, {"x", &xa}, {"out", &chain_out}},
        chain_opts);
    EXPECT_TRUE(bitwiseEqual(fused_out, chain_out));

    std::vector<float> hs(24 * feat, 0.0f);
    for (int64_t i = 0; i < 24; ++i) {
        for (int32_t p = adj.indptr[i]; p < adj.indptr[i + 1]; ++p) {
            for (int64_t k = 0; k < feat; ++k) {
                hs[i * feat + k] += xs[adj.indices[p] * feat + k];
            }
        }
    }
    std::vector<float> expected(24 * feat, 0.0f);
    for (int64_t i = 0; i < 24; ++i) {
        for (int32_t p = adj.indptr[i]; p < adj.indptr[i + 1]; ++p) {
            for (int64_t k = 0; k < feat; ++k) {
                expected[i * feat + k] +=
                    es[p] * hs[adj.indices[p] * feat + k];
            }
        }
    }
    NDArray ref = NDArray::fromFloat(expected);
    EXPECT_LT(runtime::maxAbsDiff(chain_out, ref), 1e-4);
}

TEST(DfgServing, TwoLayerGraphSageGathersInteriorAndBailsToChain)
{
    // The 2-layer GraphSAGE stack shares one pattern and exposes no
    // interior output, but layer 2's aggregate gathers layer 1's
    // result across rows — exactly the shape that must not fuse.
    Csr adj = randomCsr(20, 20, 0.3, 123);
    PatternRef pattern = SparsityPattern::fromCsr(adj);
    OpGraph graph;
    int x = graph.denseInput("x", 20, 4);
    int w1 = graph.denseInput("w1", 4, 4);
    int w2 = graph.denseInput("w2", 4, 4);
    int y1 = graph.update(graph.aggregate(pattern, x, true), w1);
    int y2 = graph.update(graph.aggregate(pattern, y1, true), w2);
    graph.markOutput(y2, "out");

    std::string reason;
    EXPECT_FALSE(dfg::fusible(graph, &reason));
    EXPECT_FALSE(reason.empty());

    NDArray xa = NDArray::fromFloat(randomVector(20 * 4, 124));
    NDArray w1a = NDArray::fromFloat(randomVector(4 * 4, 125));
    NDArray w2a = NDArray::fromFloat(randomVector(4 * 4, 126));
    NDArray fused_out({20 * 4}, ir::DataType::float32());
    NDArray chain_out({20 * 4}, ir::DataType::float32());
    Engine engine(verifyingOptions());
    auto info = engine.dispatchGraph(graph, {{"x", &xa},
                                             {"w1", &w1a},
                                             {"w2", &w2a},
                                             {"out", &fused_out}});
    EXPECT_EQ(info.numKernels, 4); // chain, despite fuse=true
    GraphDispatchOptions chain_opts;
    chain_opts.fuse = false;
    engine.dispatchGraph(graph,
                         {{"x", &xa},
                          {"w1", &w1a},
                          {"w2", &w2a},
                          {"out", &chain_out}},
                         chain_opts);
    EXPECT_TRUE(bitwiseEqual(fused_out, chain_out));
}

TEST(DfgServing, InteriorOutputBailsToChain)
{
    Csr mask = randomCsr(20, 20, 0.25, 84);
    PatternRef pattern = SparsityPattern::fromCsr(mask);
    OpGraph graph;
    int q = graph.denseInput("q", 20, 4);
    int kt = graph.denseInput("kt", 4, 20);
    int v = graph.denseInput("v", 20, 4);
    int e = graph.sddmm(pattern, q, kt);
    int s = graph.maskedSoftmax(e);
    int out = graph.spmm(s, v);
    graph.markOutput(s, "weights"); // exposes the interior tensor
    graph.markOutput(out, "out");

    std::string reason;
    EXPECT_FALSE(dfg::fusible(graph, &reason));

    NDArray qa = NDArray::fromFloat(randomVector(20 * 4, 93));
    NDArray ka = NDArray::fromFloat(randomVector(4 * 20, 94));
    NDArray va = NDArray::fromFloat(randomVector(20 * 4, 95));
    NDArray weights({mask.nnz()}, ir::DataType::float32());
    NDArray out_arr({20 * 4}, ir::DataType::float32());
    Engine engine(verifyingOptions());
    auto info = engine.dispatchGraph(graph, {{"q", &qa},
                                             {"kt", &ka},
                                             {"v", &va},
                                             {"weights", &weights},
                                             {"out", &out_arr}});
    EXPECT_EQ(info.numKernels, 3);
    // The exposed softmax weights sum to 1 over every non-empty row.
    for (int64_t i = 0; i < mask.rows; ++i) {
        int32_t lo = mask.indptr[i], hi = mask.indptr[i + 1];
        if (lo == hi) {
            continue;
        }
        float sum = 0.0f;
        for (int32_t p = lo; p < hi; ++p) {
            sum += static_cast<float>(weights.floatAt(p));
        }
        EXPECT_NEAR(sum, 1.0f, 1e-4f);
    }
}

TEST(DfgServing, IoMapIsValidated)
{
    Csr adj = randomCsr(8, 8, 0.4, 85);
    PatternRef pattern = SparsityPattern::fromCsr(adj);
    OpGraph graph = model::buildGraphSageLayerGraph(pattern, 4, 4);
    NDArray x = NDArray::fromFloat(randomVector(8 * 4, 96));
    NDArray w = NDArray::fromFloat(randomVector(4 * 4, 97));
    NDArray out({8 * 4}, ir::DataType::float32());
    NDArray small({3}, ir::DataType::float32());
    Engine engine;
    EXPECT_THROW(engine.dispatchGraph(graph, {{"x", &x}, {"w", &w}}),
                 UserError);
    EXPECT_THROW(engine.dispatchGraph(
                     graph, {{"x", &x}, {"w", &w}, {"out", &small}}),
                 UserError);
    EXPECT_THROW(engine.dispatchGraph(graph, {{"x", &x},
                                              {"w", &w},
                                              {"out", &out},
                                              {"typo", &out}}),
                 UserError);
}

TEST(DfgRgcn, MultiRelationChainMatchesReference)
{
    std::vector<dfg::PatternRef> relations = {
        SparsityPattern::fromCsr(randomCsr(24, 24, 0.15, 86)),
        SparsityPattern::fromCsr(randomCsr(24, 24, 0.15, 87)),
        SparsityPattern::fromCsr(randomCsr(24, 24, 0.15, 88)),
    };
    int64_t fin = 8, fout = 6;
    std::vector<float> xs = randomVector(24 * fin, 98);
    std::vector<float> ws = randomVector(fin * fout, 99);
    NDArray x = NDArray::fromFloat(xs);
    NDArray w = NDArray::fromFloat(ws);
    NDArray out({24 * fout}, ir::DataType::float32());

    Engine engine(verifyingOptions());
    auto info =
        model::rgcnLayer(engine, relations, fin, fout, &x, &w, &out);
    // Distinct relation structures dispatch as the chain.
    EXPECT_GT(info.numKernels, 1);

    std::vector<float> h(24 * fin, 0.0f);
    for (const auto &rel : relations) {
        for (size_t i = 0; i + 1 < rel->indptr.size(); ++i) {
            for (int32_t p = rel->indptr[i]; p < rel->indptr[i + 1];
                 ++p) {
                for (int64_t k = 0; k < fin; ++k) {
                    h[i * fin + k] += xs[rel->indices[p] * fin + k];
                }
            }
        }
    }
    std::vector<float> expected(24 * fout, 0.0f);
    for (int64_t i = 0; i < 24; ++i) {
        for (int64_t j = 0; j < fout; ++j) {
            float acc = 0.0f;
            for (int64_t k = 0; k < fin; ++k) {
                acc += h[i * fin + k] * ws[k * fout + j];
            }
            expected[i * fout + j] = acc;
        }
    }
    NDArray ref = NDArray::fromFloat(expected);
    EXPECT_LT(runtime::maxAbsDiff(out, ref), 1e-3);
}

// ---------------------------------------------------------------------
// Lowering-level properties
// ---------------------------------------------------------------------

TEST(DfgLowering, FusedProgramHasNoInteriorParams)
{
    Csr mask = randomCsr(16, 16, 0.3, 89);
    PatternRef pattern = SparsityPattern::fromCsr(mask);
    OpGraph graph = model::buildAttentionGraph(pattern, 8);
    dfg::GraphLowering fused = dfg::lowerGraph(graph, true);
    ASSERT_TRUE(fused.fused);
    ASSERT_EQ(fused.funcs.size(), 1u);
    EXPECT_TRUE(fused.temps.empty());
    // The fused signature holds structure arrays + named io only; no
    // "t_*" intermediate ever appears as a parameter.
    for (const auto &param : fused.funcs[0]->params) {
        EXPECT_NE(param->name.rfind("t_", 0), 0u)
            << "interior tensor '" << param->name
            << "' leaked into the fused signature";
    }

    dfg::GraphLowering chain = dfg::lowerGraph(graph, false);
    EXPECT_FALSE(chain.fused);
    EXPECT_EQ(chain.funcs.size(), 4u);
    EXPECT_EQ(chain.temps.size(), 3u);
    for (const auto &temp : chain.temps) {
        EXPECT_EQ(temp.numel, mask.nnz());
    }
}

// ---------------------------------------------------------------------
// Row-body shapes and the arithmetic they keep
// ---------------------------------------------------------------------

/**
 * Loop facts of one lowered kernel: every access to a local
 * accumulator `acc<nid>` with its enclosing loops, which loops hold
 * another loop, and the kernel's exp() calls.
 */
class RowBodyShape : public ir::StmtVisitor
{
  public:
    struct AccAccess
    {
        /** Enclosing loops, outermost (the row loop) first. */
        std::vector<const ir::ForNode *> loops;
        ir::Expr index;
        /** A store whose value reads the accumulator it writes. */
        bool reduces = false;
    };

    std::map<std::string, std::vector<AccAccess>> accesses;
    std::map<std::string, int64_t> extents;
    std::map<const ir::ForNode *, bool> holdsLoop;
    int exps = 0;

  protected:
    void
    visitFor(const ir::ForNode *op) override
    {
        for (const ir::ForNode *outer : loops_) {
            holdsLoop[outer] = true;
        }
        holdsLoop.emplace(op, false);
        loops_.push_back(op);
        StmtVisitor::visitFor(op);
        loops_.pop_back();
    }

    void
    visitAllocate(const ir::AllocateNode *op) override
    {
        extents[op->buffer->name] =
            static_cast<const ir::IntImmNode *>(op->buffer->shape[0].get())
                ->value;
        StmtVisitor::visitAllocate(op);
    }

    void
    visitBufferStore(const ir::BufferStoreNode *op) override
    {
        if (isAcc(op->buffer)) {
            bool reads_self = false;
            if (op->value->kind == ir::ExprKind::kAdd) {
                auto sum = static_cast<const ir::BinaryNode *>(
                    op->value.get());
                reads_self =
                    sum->a->kind == ir::ExprKind::kBufferLoad &&
                    static_cast<const ir::BufferLoadNode *>(sum->a.get())
                            ->buffer == op->buffer;
            }
            accesses[op->buffer->name].push_back(
                {loops_, op->indices[0], reads_self});
        }
        StmtVisitor::visitBufferStore(op);
    }

    void
    visitBufferLoad(const ir::BufferLoadNode *op) override
    {
        if (isAcc(op->buffer)) {
            accesses[op->buffer->name].push_back(
                {loops_, op->indices[0], false});
        }
        StmtVisitor::visitBufferLoad(op);
    }

    void
    visitCall(const ir::CallNode *op) override
    {
        exps += op->op == ir::Builtin::kExp ? 1 : 0;
        StmtVisitor::visitCall(op);
    }

  private:
    static bool
    isAcc(const ir::Buffer &buffer)
    {
        return buffer->scope == ir::MemScope::kLocal &&
               buffer->name.rfind("acc", 0) == 0;
    }

    std::vector<const ir::ForNode *> loops_;
};

TEST(DfgLowering, RowBodiesAreFeatureInner)
{
    PatternRef pattern =
        SparsityPattern::fromCsr(randomCsr(24, 20, 0.25, 131));
    const OpGraph graphs[] = {
        model::buildAttentionGraph(pattern, 8),
        model::buildGraphSageLayerGraph(pattern, 6, 5),
    };
    for (const OpGraph &graph : graphs) {
        for (bool fuse : {true, false}) {
            dfg::GraphLowering lowering = dfg::lowerGraph(graph, fuse);
            ASSERT_EQ(lowering.fused, fuse);
            // The chain lowers node nid into funcs[nid]; the fused
            // kernel holds every node.
            for (size_t f = 0; f < lowering.funcs.size(); ++f) {
                RowBodyShape shape;
                shape.visitStmt(lowering.funcs[f]->body);
                int softmaxes = 0;
                for (size_t nid = 0; nid < graph.nodes().size(); ++nid) {
                    if (!fuse && nid != f) {
                        continue;
                    }
                    const dfg::Node &node = graph.nodes()[nid];
                    softmaxes +=
                        node.type == dfg::OpType::kMaskedSoftmax ? 1 : 0;
                    if (node.type != dfg::OpType::kSpmm &&
                        node.type != dfg::OpType::kAggregate &&
                        node.type != dfg::OpType::kUpdate) {
                        continue;
                    }
                    int64_t feat = graph.value(node.output).cols;
                    std::string acc = "acc" + std::to_string(nid);
                    SCOPED_TRACE(lowering.funcs[f]->name + " " + acc);
                    EXPECT_EQ(shape.extents[acc], feat);
                    int reductions = 0;
                    ASSERT_FALSE(shape.accesses[acc].empty());
                    for (const auto &access : shape.accesses[acc]) {
                        // Innermost: the constant-extent feature loop,
                        // indexing the accumulator, holding no loop.
                        ASSERT_FALSE(access.loops.empty());
                        const ir::ForNode *inner = access.loops.back();
                        ASSERT_EQ(inner->extent->kind,
                                  ir::ExprKind::kIntImm);
                        EXPECT_EQ(static_cast<const ir::IntImmNode *>(
                                      inner->extent.get())
                                      ->value,
                                  feat);
                        EXPECT_EQ(access.index.get(),
                                  static_cast<const ir::ExprNode *>(
                                      inner->loopVar.get()));
                        EXPECT_FALSE(shape.holdsLoop[inner]);
                        if (access.reduces) {
                            // Row loop, position (or inner-k) loop,
                            // feature loop.
                            EXPECT_EQ(access.loops.size(), 3u);
                            ++reductions;
                        }
                    }
                    EXPECT_EQ(reductions, 1);
                }
                EXPECT_EQ(shape.exps, softmaxes)
                    << lowering.funcs[f]->name;
            }
        }
    }
}

/** float32 exp as every tier computes it: double exp, rounded. */
float
exp32(float x)
{
    return static_cast<float>(std::exp(static_cast<double>(x)));
}

/**
 * Attention in the order the dfg row bodies had before they became
 * feature-inner: each float32 op rounded, each output feature summed
 * over its row's positions in order, and exp computed twice (once
 * for the softmax sum, again for the division).
 */
std::vector<float>
attentionOldOrder(const Csr &mask, int64_t d, const std::vector<float> &q,
                  const std::vector<float> &kt,
                  const std::vector<float> &v)
{
    const double scale = 1.0 / std::sqrt(static_cast<double>(d));
    std::vector<float> out(static_cast<size_t>(mask.rows * d));
    for (int64_t i = 0; i < mask.rows; ++i) {
        int32_t lo = mask.indptr[i], hi = mask.indptr[i + 1];
        std::vector<float> s;
        for (int32_t p = lo; p < hi; ++p) {
            float acc = 0.0f;
            for (int64_t k = 0; k < d; ++k) {
                acc = acc + q[i * d + k] *
                                kt[k * mask.cols + mask.indices[p]];
            }
            s.push_back(static_cast<float>(acc * scale));
        }
        float mx = -std::numeric_limits<float>::max();
        float sum = 0.0f;
        for (float x : s) {
            mx = std::max(mx, x);
        }
        for (float x : s) {
            sum = sum + exp32(x - mx);
        }
        for (int64_t k = 0; k < d; ++k) {
            float acc = 0.0f;
            for (int32_t p = lo; p < hi; ++p) {
                acc = acc + exp32(s[p - lo] - mx) / sum *
                                v[mask.indices[p] * d + k];
            }
            out[i * d + k] = acc;
        }
    }
    return out;
}

/** Mean-aggregate + update, feature-outer, in float32. */
std::vector<float>
graphSageOldOrder(const Csr &adj, int64_t fin, int64_t fout,
                  const std::vector<float> &x,
                  const std::vector<float> &w)
{
    std::vector<float> out(static_cast<size_t>(adj.rows * fout));
    std::vector<float> h(static_cast<size_t>(fin));
    for (int64_t i = 0; i < adj.rows; ++i) {
        int32_t lo = adj.indptr[i], hi = adj.indptr[i + 1];
        for (int64_t k = 0; k < fin; ++k) {
            float acc = 0.0f;
            for (int32_t p = lo; p < hi; ++p) {
                acc = acc + x[adj.indices[p] * fin + k];
            }
            h[k] = acc / std::max(static_cast<float>(hi - lo), 1.0f);
        }
        for (int64_t j = 0; j < fout; ++j) {
            float acc = 0.0f;
            for (int64_t k = 0; k < fin; ++k) {
                acc = acc + h[k] * w[k * fout + j];
            }
            out[i * fout + j] = acc;
        }
    }
    return out;
}

TEST(DfgLowering, RowBodiesKeepOldOrderBitwiseOnEveryTier)
{
    // Empty rows (1, 4, 8) and rows shorter than the widest (5).
    const int64_t widths[] = {3, 0, 1, 5, 0, 2, 5, 4, 0, 1, 3, 2};
    const int64_t rows = 12, cols = 10;
    std::vector<float> dense(rows * cols, 0.0f);
    for (int64_t i = 0; i < rows; ++i) {
        for (int64_t t = 0; t < widths[i]; ++t) {
            dense[i * cols + (i + 3 * t) % cols] = 1.0f;
        }
    }
    Csr mask = format::csrFromDense(rows, cols, dense);
    PatternRef pattern = SparsityPattern::fromCsr(mask);

    std::map<runtime::Backend, std::unique_ptr<Engine>> engines;
    for (runtime::Backend backend :
         {runtime::Backend::kInterpreter, runtime::Backend::kBytecode,
          runtime::Backend::kNative}) {
        EngineOptions options = verifyingOptions();
        options.backend = backend;
        options.nativePromoteAfter = 0; // native from the first resolve
        engines[backend] = std::make_unique<Engine>(options);
    }
    for (int64_t feat : {1, 5, 32, 37}) {
        std::vector<float> q = randomVector(rows * feat, 141);
        std::vector<float> kt = randomVector(feat * cols, 142);
        std::vector<float> v = randomVector(cols * feat, 143);
        std::vector<float> w = randomVector(feat * feat, 144);
        NDArray attention_ref =
            NDArray::fromFloat(attentionOldOrder(mask, feat, q, kt, v));
        NDArray sage_ref = NDArray::fromFloat(
            graphSageOldOrder(mask, feat, feat, v, w));
        NDArray qa = NDArray::fromFloat(q);
        NDArray kta = NDArray::fromFloat(kt);
        NDArray va = NDArray::fromFloat(v);
        NDArray wa = NDArray::fromFloat(w);
        for (auto &[backend, engine] : engines) {
            for (bool fuse : {true, false}) {
                SCOPED_TRACE("feat " + std::to_string(feat) + " backend " +
                             std::to_string(static_cast<int>(backend)) +
                             (fuse ? " fused" : " chain"));
                NDArray out({rows * feat}, ir::DataType::float32());
                model::attentionPipeline(*engine, pattern, feat, &qa, &kta,
                                         &va, &out, fuse);
                EXPECT_TRUE(bitwiseEqual(out, attention_ref));
                NDArray sage({rows * feat}, ir::DataType::float32());
                model::graphSageLayer(*engine, pattern, feat, feat, &va,
                                      &wa, &sage, fuse);
                EXPECT_TRUE(bitwiseEqual(sage, sage_ref));
            }
        }
    }
    engine::NativeStats native =
        engines[runtime::Backend::kNative]->nativeStats();
    EXPECT_GT(native.compiles + native.diskHits, 0u);
    EXPECT_EQ(native.fallbacks, 0u);
    EXPECT_EQ(native.guardMisses, 0u);
}

TEST(DfgGraph, DuplicateValueNamesRejected)
{
    // Lowering keys buffers by binding name; two values sharing one
    // name would silently alias, so the builder must refuse it.
    PatternRef pattern =
        SparsityPattern::fromCsr(randomCsr(8, 8, 0.4, 92));
    OpGraph graph;
    int x = graph.denseInput("x", 8, 4);
    EXPECT_THROW(graph.denseInput("x", 8, 4), UserError);
    EXPECT_THROW(graph.edgeInput("x", pattern), UserError);
    int h = graph.aggregate(pattern, x, false);
    EXPECT_THROW(graph.markOutput(h, "x"), UserError);
    graph.markOutput(h, "out");
    int h2 = graph.aggregate(pattern, x, true);
    EXPECT_THROW(graph.markOutput(h2, "out"), UserError);
}

TEST(DfgGraph, BuildTimeShapeAndNameChecks)
{
    PatternRef pattern =
        SparsityPattern::fromCsr(randomCsr(8, 8, 0.4, 90));
    OpGraph graph;
    EXPECT_THROW(graph.denseInput("J_bad", 4, 4), UserError);
    EXPECT_THROW(graph.denseInput("t_bad", 4, 4), UserError);
    EXPECT_THROW(graph.denseInput("acc_bad", 4, 4), UserError);
    int q = graph.denseInput("q", 8, 4);
    // sddmm rhs must have the pattern's cols.
    int bad = graph.denseInput("bad", 4, 7);
    EXPECT_THROW(graph.sddmm(pattern, q, bad), UserError);
    // Nodes must share one row space.
    PatternRef other =
        SparsityPattern::fromCsr(randomCsr(5, 8, 0.4, 91));
    int x = graph.denseInput("x", 8, 4);
    graph.aggregate(pattern, x, false);
    EXPECT_THROW(graph.aggregate(other, x, false), UserError);
}

} // namespace
} // namespace sparsetir
