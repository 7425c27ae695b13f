/**
 * @file
 * Batched multi-request dispatch and the BSR / SR-BCRS engine entry
 * points: VM-vs-interpreter bitwise equality for the new ops,
 * batched-vs-sequential bitwise equality per request, concurrent
 * batched dispatch through one shared session, single-compile
 * behavior of an N-request batch, and the warm path never probing
 * the launch grid through the interpreter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "dfg/op_graph.h"
#include "engine/engine.h"
#include "format/bsr.h"
#include "format/srbcrs.h"
#include "graph/generator.h"
#include "graph/pruned_weights.h"
#include "support/rng.h"
#include "test_util.h"

namespace sparsetir {
namespace {

using engine::Engine;
using engine::EngineOptions;
using engine::SpmmRequest;
using format::Csr;
using runtime::NDArray;
using testutil::bitwiseEqual;
using testutil::randomVector;

// With SPARSETIR_NATIVE=1 every engine here may serve natively: its
// .so files go to a per-process directory removed at exit.
[[maybe_unused]] const bool kNativeCacheIsolated =
    testutil::isolateNativeCacheDir("/tmp/sparsetir-batch-native-");

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

/** Dense reference C = dense(A) @ B over A's original rows x cols. */
std::vector<float>
denseSpmm(const std::vector<float> &dense, int64_t rows, int64_t cols,
          const std::vector<float> &b, int64_t feat)
{
    std::vector<float> out(rows * feat, 0.0f);
    for (int64_t r = 0; r < rows; ++r) {
        for (int64_t j = 0; j < cols; ++j) {
            float a = dense[r * cols + j];
            if (a == 0.0f) {
                continue;
            }
            for (int64_t k = 0; k < feat; ++k) {
                out[r * feat + k] += a * b[j * feat + k];
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// BSR / SR-BCRS entry points
// ---------------------------------------------------------------------

TEST(EngineBsr, MatchesDenseReferenceAndBackendsAgreeBitwise)
{
    Csr base = graph::blockPrunedWeight(64, 48, 8, 0.2, 0.5, 3);
    format::Bsr a = format::bsrFromCsr(base, 8);
    int64_t feat = 16;
    auto b_host = randomVector(a.blockCols * a.blockSize * feat, 11);
    NDArray b = NDArray::fromFloat(b_host);

    NDArray c_vm({a.blockRows * a.blockSize * feat},
                 ir::DataType::float32());
    Engine vm_eng(EngineOptions{});
    auto info = vm_eng.spmmBsr(a, feat, &b, &c_vm);
    EXPECT_FALSE(info.cacheHit);
    EXPECT_EQ(info.numKernels, 1);

    // Numeric ground truth over the original (unpadded) shape.
    auto dense = format::bsrToDense(a);
    auto expected = denseSpmm(dense, base.rows, base.cols, b_host,
                              feat);
    for (int64_t i = 0; i < base.rows * feat; ++i) {
        ASSERT_NEAR(expected[i], c_vm.floatAt(i), 1e-3) << "at " << i;
    }

    // Reference-oracle backend must agree bitwise.
    EngineOptions interp;
    interp.backend = runtime::Backend::kInterpreter;
    Engine interp_eng(interp);
    NDArray c_interp({a.blockRows * a.blockSize * feat},
                     ir::DataType::float32());
    interp_eng.spmmBsr(a, feat, &b, &c_interp);
    EXPECT_TRUE(bitwiseEqual(c_interp, c_vm))
        << "BSR SpMM diverged between bytecode VM and interpreter";
}

TEST(EngineBsr, CacheHitsOnValuesMissesOnBlockSize)
{
    Csr base = graph::blockPrunedWeight(64, 64, 8, 0.2, 0.5, 5);
    format::Bsr a = format::bsrFromCsr(base, 8);
    int64_t feat = 8;
    auto b_host = randomVector(a.blockCols * a.blockSize * feat, 13);
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.blockRows * a.blockSize * feat},
              ir::DataType::float32());

    Engine eng(EngineOptions{});
    EXPECT_FALSE(eng.spmmBsr(a, feat, &b, &c).cacheHit);

    // Same block structure, rescaled values: hit, fresh values used.
    format::Bsr a2 = a;
    for (auto &v : a2.values) {
        v *= -2.0f;
    }
    NDArray c2({a.blockRows * a.blockSize * feat},
               ir::DataType::float32());
    EXPECT_TRUE(eng.spmmBsr(a2, feat, &b, &c2).cacheHit);
    auto dense2 = format::bsrToDense(a2);
    auto expected2 = denseSpmm(dense2, base.rows, base.cols, b_host,
                               feat);
    for (int64_t i = 0; i < base.rows * feat; ++i) {
        ASSERT_NEAR(expected2[i], c2.floatAt(i), 1e-3) << "at " << i;
    }

    // Same matrix re-blocked at another edge: the blockSize key
    // field must force a distinct artifact.
    format::Bsr a4 = format::bsrFromCsr(base, 4);
    NDArray b4 =
        NDArray::fromFloat(randomVector(
            a4.blockCols * a4.blockSize * feat, 17));
    NDArray c4({a4.blockRows * a4.blockSize * feat},
               ir::DataType::float32());
    EXPECT_FALSE(eng.spmmBsr(a4, feat, &b4, &c4).cacheHit);
}

TEST(EngineSrbcrs, MatchesDenseReferenceAndBackendsAgreeBitwise)
{
    Csr base = graph::unstructuredPrunedWeight(64, 40, 0.12, 7);
    format::SrBcrs a = format::srbcrsFromCsr(base, 4, 8);
    int64_t feat = 8;
    auto b_host = randomVector(a.cols * feat, 19);
    NDArray b = NDArray::fromFloat(b_host);

    Engine vm_eng(EngineOptions{});
    NDArray c_vm({a.stripes * a.tileHeight * feat},
                 ir::DataType::float32());
    auto info = vm_eng.spmmSrbcrs(a, feat, &b, &c_vm);
    EXPECT_FALSE(info.cacheHit);
    NDArray c_warm({a.stripes * a.tileHeight * feat},
                   ir::DataType::float32());
    EXPECT_TRUE(vm_eng.spmmSrbcrs(a, feat, &b, &c_warm).cacheHit);
    EXPECT_TRUE(bitwiseEqual(c_vm, c_warm));

    auto dense = format::srbcrsToDense(a);
    auto expected = denseSpmm(dense, base.rows, base.cols, b_host,
                              feat);
    for (int64_t i = 0; i < base.rows * feat; ++i) {
        ASSERT_NEAR(expected[i], c_vm.floatAt(i), 1e-3) << "at " << i;
    }

    EngineOptions interp;
    interp.backend = runtime::Backend::kInterpreter;
    Engine interp_eng(interp);
    NDArray c_interp({a.stripes * a.tileHeight * feat},
                     ir::DataType::float32());
    interp_eng.spmmSrbcrs(a, feat, &b, &c_interp);
    EXPECT_TRUE(bitwiseEqual(c_interp, c_vm))
        << "SR-BCRS SpMM diverged between bytecode VM and "
           "interpreter";
}

// ---------------------------------------------------------------------
// Batched dispatch: per-request bitwise equality with serial runs
// ---------------------------------------------------------------------

/** N requests with private feature/output arrays over one graph. */
struct Batch
{
    std::vector<NDArray> b;
    std::vector<NDArray> c;
    std::vector<SpmmRequest> requests;

    Batch(int n, int64_t b_size, int64_t c_size, uint64_t seed)
    {
        for (int i = 0; i < n; ++i) {
            b.push_back(NDArray::fromFloat(
                randomVector(b_size, seed + i)));
            c.emplace_back(std::vector<int64_t>{c_size},
                           ir::DataType::float32());
        }
        for (int i = 0; i < n; ++i) {
            requests.push_back(SpmmRequest{&b[i], &c[i]});
        }
    }
};

TEST(EngineBatch, CsrBatchBitwiseMatchesSequentialDispatch)
{
    Csr a = randomCsr(80, 70, 0.12, 23);
    int64_t feat = 16;
    constexpr int kRequests = 5;
    Batch batch(kRequests, a.cols * feat, a.rows * feat, 100);

    // Sequential ground truth through the one-request entry point.
    Engine seq_eng(EngineOptions{});
    std::vector<NDArray> expected;
    for (int i = 0; i < kRequests; ++i) {
        expected.emplace_back(std::vector<int64_t>{a.rows * feat},
                              ir::DataType::float32());
        seq_eng.spmmCsr(a, feat, batch.requests[i].b, &expected[i]);
    }

    Engine eng(EngineOptions{});
    auto info = eng.spmmCsrBatch(a, feat, batch.requests);
    EXPECT_FALSE(info.cacheHit);
    EXPECT_EQ(info.numRequests, kRequests);
    for (int i = 0; i < kRequests; ++i) {
        EXPECT_TRUE(bitwiseEqual(expected[i], batch.c[i]))
            << "request " << i << " diverged from its serial run";
    }

    // Warm batch into dirty outputs must reproduce bit-for-bit.
    auto warm = eng.spmmCsrBatch(a, feat, batch.requests);
    EXPECT_TRUE(warm.cacheHit);
    for (int i = 0; i < kRequests; ++i) {
        EXPECT_TRUE(bitwiseEqual(expected[i], batch.c[i]));
    }
}

TEST(EngineBatch, HybBatchBitwiseMatchesSequentialDispatch)
{
    // Power-law structure: multiple buckets, including split rows
    // (duplicate scatter rows) in the widest one.
    Csr a = graph::powerLawGraph(300, 4000, 1.8, 13);
    int64_t feat = 8;
    engine::HybConfig config;
    config.partitions = 2;
    constexpr int kRequests = 4;
    Batch batch(kRequests, a.cols * feat, a.rows * feat, 200);

    Engine seq_eng(EngineOptions{});
    std::vector<NDArray> expected;
    for (int i = 0; i < kRequests; ++i) {
        expected.emplace_back(std::vector<int64_t>{a.rows * feat},
                              ir::DataType::float32());
        seq_eng.spmmHyb(a, feat, batch.requests[i].b, &expected[i],
                        config);
    }

    Engine eng(EngineOptions{});
    // An empty batch resolves nothing.
    auto none = eng.spmmHybBatch(a, feat, {}, config);
    EXPECT_EQ(none.numRequests, 0);
    EXPECT_EQ(eng.cacheStats().misses, 0u);

    auto info = eng.spmmHybBatch(a, feat, batch.requests, config);
    EXPECT_GE(info.numKernels, 2);
    for (int i = 0; i < kRequests; ++i) {
        EXPECT_TRUE(bitwiseEqual(expected[i], batch.c[i]))
            << "request " << i << " diverged from its serial run";
    }

    // Warm batch into the outputs it just wrote: one cache hit, no
    // further compile, and the dispatch's zeroing keeps it bitwise.
    auto warm = eng.spmmHybBatch(a, feat, batch.requests, config);
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(eng.cacheStats().misses, 1u);
    for (int i = 0; i < kRequests; ++i) {
        EXPECT_TRUE(bitwiseEqual(expected[i], batch.c[i]))
            << "warm request " << i << " diverged";
    }
}

TEST(EngineBatch, BsrAndSrbcrsBatchesMatchSequentialDispatch)
{
    Csr base = graph::blockPrunedWeight(64, 48, 8, 0.2, 0.5, 29);
    format::Bsr bsr = format::bsrFromCsr(base, 8);
    int64_t feat = 8;
    constexpr int kRequests = 3;
    Batch bsr_batch(kRequests, bsr.blockCols * bsr.blockSize * feat,
                    bsr.blockRows * bsr.blockSize * feat, 300);

    Engine eng(EngineOptions{});
    std::vector<NDArray> expected;
    for (int i = 0; i < kRequests; ++i) {
        expected.emplace_back(
            std::vector<int64_t>{bsr.blockRows * bsr.blockSize * feat},
            ir::DataType::float32());
        eng.spmmBsr(bsr, feat, bsr_batch.requests[i].b, &expected[i]);
    }
    eng.spmmBsrBatch(bsr, feat, bsr_batch.requests);
    for (int i = 0; i < kRequests; ++i) {
        EXPECT_TRUE(bitwiseEqual(expected[i], bsr_batch.c[i]))
            << "BSR request " << i << " diverged";
    }

    Csr unstructured = graph::unstructuredPrunedWeight(64, 40, 0.12, 31);
    format::SrBcrs sr = format::srbcrsFromCsr(unstructured, 4, 8);
    Batch sr_batch(kRequests, sr.cols * feat,
                   sr.stripes * sr.tileHeight * feat, 400);
    std::vector<NDArray> sr_expected;
    for (int i = 0; i < kRequests; ++i) {
        sr_expected.emplace_back(
            std::vector<int64_t>{sr.stripes * sr.tileHeight * feat},
            ir::DataType::float32());
        eng.spmmSrbcrs(sr, feat, sr_batch.requests[i].b,
                       &sr_expected[i]);
    }
    eng.spmmSrbcrsBatch(sr, feat, sr_batch.requests);
    for (int i = 0; i < kRequests; ++i) {
        EXPECT_TRUE(bitwiseEqual(sr_expected[i], sr_batch.c[i]))
            << "SR-BCRS request " << i << " diverged";
    }
}

// ---------------------------------------------------------------------
// Cache economics and the warm-path grid probe
// ---------------------------------------------------------------------

TEST(EngineBatch, NRequestBatchPerformsExactlyOneCompile)
{
    Csr a = randomCsr(60, 50, 0.1, 37);
    int64_t feat = 8;
    constexpr int kRequests = 6;
    Batch batch(kRequests, a.cols * feat, a.rows * feat, 500);

    Engine eng(EngineOptions{});
    auto info = eng.spmmCsrBatch(a, feat, batch.requests);
    EXPECT_FALSE(info.cacheHit);
    engine::CacheStats cache = eng.cacheStats();
    EXPECT_EQ(cache.misses, 1u)
        << "an N-request batch must resolve the artifact exactly once";
    EXPECT_EQ(cache.hits, 0u);
    auto stats = eng.stats();
    EXPECT_EQ(stats.requests, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(stats.cacheMisses, 1u);
    EXPECT_EQ(stats.cacheHits, static_cast<uint64_t>(kRequests - 1));

    // A second batch rides the cached artifact: one hit, no compile.
    auto warm = eng.spmmCsrBatch(a, feat, batch.requests);
    EXPECT_TRUE(warm.cacheHit);
    cache = eng.cacheStats();
    EXPECT_EQ(cache.misses, 1u);
    EXPECT_EQ(cache.hits, 1u);
}

TEST(EngineBatch, ConcurrentBatchedDispatchFromManyThreads)
{
    Csr a = graph::powerLawGraph(150, 1800, 1.7, 43);
    int64_t feat = 8;
    engine::HybConfig config;
    config.partitions = 2;
    constexpr int kCallers = 4;
    constexpr int kRequests = 3;

    // Serial per-request ground truth.
    Engine seq_eng(EngineOptions{});
    Batch reference(kRequests, a.cols * feat, a.rows * feat, 700);
    std::vector<NDArray> expected;
    for (int i = 0; i < kRequests; ++i) {
        expected.emplace_back(std::vector<int64_t>{a.rows * feat},
                              ir::DataType::float32());
        seq_eng.spmmHyb(a, feat, reference.requests[i].b,
                        &expected[i], config);
    }

    Engine eng(EngineOptions{});
    // Prime the artifact: racing first-time builders may each
    // compile (documented CompileCache behavior); warm concurrent
    // batches must all hit the one cached artifact.
    {
        Batch prime(kRequests, a.cols * feat, a.rows * feat, 700);
        eng.spmmHybBatch(a, feat, prime.requests, config);
    }
    std::vector<int> failures(kCallers, 0);
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
        callers.emplace_back([&, t] {
            // Same feature values as the reference batch, private
            // arrays per caller.
            Batch mine(kRequests, a.cols * feat, a.rows * feat, 700);
            for (int round = 0; round < 3; ++round) {
                eng.spmmHybBatch(a, feat, mine.requests, config);
                for (int i = 0; i < kRequests; ++i) {
                    if (!bitwiseEqual(expected[i], mine.c[i])) {
                        ++failures[t];
                    }
                }
            }
        });
    }
    for (auto &caller : callers) {
        caller.join();
    }
    for (int t = 0; t < kCallers; ++t) {
        EXPECT_EQ(failures[t], 0) << "caller " << t;
    }
    // All callers shared one artifact.
    EXPECT_EQ(eng.cacheStats().misses, 1u);
}

TEST(EngineBatch, RejectsAliasedOrMissingOutputs)
{
    Csr a = randomCsr(20, 20, 0.2, 47);
    int64_t feat = 4;
    // The CSR batch never writes a rejected output; the hyb batch
    // zeroes its outputs, and must do so only after the whole batch
    // validated.
    using BatchCall = std::function<void(
        Engine &, const std::vector<SpmmRequest> &)>;
    std::vector<std::pair<const char *, BatchCall>> calls = {
        {"csr",
         [&](Engine &eng, const std::vector<SpmmRequest> &requests) {
             eng.spmmCsrBatch(a, feat, requests);
         }},
        {"hyb",
         [&](Engine &eng, const std::vector<SpmmRequest> &requests) {
             eng.spmmHybBatch(a, feat, requests);
         }},
    };
    std::vector<float> b_host = randomVector(a.cols * feat, 48);
    const NDArray sentinel =
        NDArray::fromFloat(std::vector<float>(a.rows * feat, 42.5f));
    for (const auto &[what, call] : calls) {
        NDArray b = NDArray::fromFloat(b_host);
        NDArray c = sentinel;
        NDArray c2 = sentinel;

        Engine eng(EngineOptions{});
        std::vector<SpmmRequest> aliased = {SpmmRequest{&b, &c},
                                            SpmmRequest{&b, &c}};
        EXPECT_THROW(call(eng, aliased), UserError) << what;
        std::vector<SpmmRequest> missing = {SpmmRequest{&b, &c2},
                                            SpmmRequest{&b, nullptr}};
        EXPECT_THROW(call(eng, missing), UserError) << what;
        // An output aliasing an input — its own or another request's —
        // would race under concurrent execution.
        std::vector<SpmmRequest> self = {SpmmRequest{&c, &c}};
        EXPECT_THROW(call(eng, self), UserError) << what;
        std::vector<SpmmRequest> cross = {SpmmRequest{&b, &c},
                                          SpmmRequest{&c, &c2}};
        EXPECT_THROW(call(eng, cross), UserError) << what;

        EXPECT_TRUE(bitwiseEqual(NDArray::fromFloat(b_host), b)) << what;
        for (const NDArray *out : {&c, &c2}) {
            EXPECT_TRUE(bitwiseEqual(sentinel, *out))
                << what << ": a rejected batch wrote a caller array";
        }
    }
}

// ---------------------------------------------------------------------
// A batch below the pool size splits on shared storage
// ---------------------------------------------------------------------

TEST(EngineBatch, BatchBelowPoolSizeLeasesNoScratchAndMatchesSequential)
{
    // Two requests on four workers: each request's kernels are cut
    // into chunks ordered by their write hulls, all on the caller's
    // outputs, so no scratch is leased and each output is bitwise
    // equal to its own serial dispatch.
    Csr a = graph::powerLawGraph(300, 4000, 1.8, 97);
    int64_t feat = 8;
    engine::HybConfig config;
    config.partitions = 2;
    constexpr int kRequests = 2;
    Batch batch(kRequests, a.cols * feat, a.rows * feat, 800);

    EngineOptions serial_options;
    serial_options.parallel = false;
    Engine serial(serial_options);
    std::vector<NDArray> expected;
    for (int i = 0; i < kRequests; ++i) {
        expected.emplace_back(std::vector<int64_t>{a.rows * feat},
                              ir::DataType::float32());
        serial.spmmHyb(a, feat, &batch.b[i], &expected[i], config);
    }

    EngineOptions options;
    options.numThreads = 4;
    Engine eng(options);
    for (int round = 0; round < 2; ++round) {
        auto info = eng.spmmHybBatch(a, feat, batch.requests, config);
        ASSERT_GE(info.numKernels, 3);
        for (int i = 0; i < kRequests; ++i) {
            EXPECT_TRUE(bitwiseEqual(expected[i], batch.c[i]))
                << "round " << round << " request " << i;
        }
    }
    engine::ScratchStats scratch = eng.scratchStats();
    EXPECT_EQ(scratch.leases, 0u);
    EXPECT_EQ(scratch.peakLeasedBytes, 0);
}

// ---------------------------------------------------------------------
// Rectangular RGCN: the featIn/featOut keying fix, end to end
// ---------------------------------------------------------------------

TEST(EngineBatch, RectangularRgcnSwappedFeatsAreDistinctArtifacts)
{
    format::RelationalCsr graph;
    graph.rows = 30;
    graph.cols = 30;
    for (int r = 0; r < 2; ++r) {
        graph.relations.push_back(randomCsr(30, 30, 0.1, 51 + r));
    }
    int64_t fa = 8;
    int64_t fb = 4;
    auto x_wide = randomVector(graph.cols * fa, 61);
    auto x_narrow = randomVector(graph.cols * fb, 62);
    auto w_host = randomVector(fa * fb, 63);  // also fb x fa sized

    auto reference = [&](const std::vector<float> &x_host,
                         int64_t fin, int64_t fout) {
        // Y = sum_r A_r @ (X @ W), X: cols x fin, W: fin x fout.
        std::vector<float> xw(graph.cols * fout, 0.0f);
        for (int64_t j = 0; j < graph.cols; ++j) {
            for (int64_t l = 0; l < fout; ++l) {
                float acc = 0.0f;
                for (int64_t k = 0; k < fin; ++k) {
                    acc += x_host[j * fin + k] *
                           w_host[k * fout + l];
                }
                xw[j * fout + l] = acc;
            }
        }
        std::vector<float> expected(graph.rows * fout, 0.0f);
        for (const Csr &rel : graph.relations) {
            auto part = core::referenceSpmm(rel, xw, fout);
            for (size_t i = 0; i < expected.size(); ++i) {
                expected[i] += part[i];
            }
        }
        return expected;
    };

    Engine eng(EngineOptions{});
    NDArray x1 = NDArray::fromFloat(x_wide);
    NDArray w = NDArray::fromFloat(w_host);
    NDArray y1({graph.rows * fb}, ir::DataType::float32());
    auto first = eng.rgcn(graph, fa, fb, &x1, &w, &y1);
    EXPECT_FALSE(first.cacheHit);
    auto expected1 = reference(x_wide, fa, fb);
    for (int64_t i = 0; i < y1.numel(); ++i) {
        ASSERT_NEAR(expected1[i], y1.floatAt(i), 1e-2) << "at " << i;
    }

    // Swapped dims: before the v3 key split this aliased the cached
    // (fa, fb) artifact; it must compile its own.
    NDArray x2 = NDArray::fromFloat(x_narrow);
    NDArray y2({graph.rows * fa}, ir::DataType::float32());
    auto second = eng.rgcn(graph, fb, fa, &x2, &w, &y2);
    EXPECT_FALSE(second.cacheHit);
    auto expected2 = reference(x_narrow, fb, fa);
    for (int64_t i = 0; i < y2.numel(); ++i) {
        ASSERT_NEAR(expected2[i], y2.floatAt(i), 1e-2) << "at " << i;
    }
    EXPECT_EQ(eng.cacheStats().misses, 2u);
}

// ---------------------------------------------------------------------
// CacheKey v5: graph artifacts must never alias per-kernel artifacts
// ---------------------------------------------------------------------

TEST(EngineCacheKeyV5, GraphAndPerKernelSddmmDoNotAlias)
{
    // A single-node sddmm GRAPH and the per-kernel sddmm entry point
    // over the SAME structure, rows, and nnz. Before the v5 op split
    // these could collide on (structure, rows, nnz); both must miss.
    Csr a = randomCsr(32, 32, 0.2, 211);
    // Unit values: the per-kernel entry scales by A's values, the
    // graph node samples the pattern only.
    std::fill(a.values.begin(), a.values.end(), 1.0f);
    int64_t feat = 8;

    dfg::OpGraph graph;
    dfg::PatternRef pattern = dfg::SparsityPattern::fromCsr(a);
    int q = graph.denseInput("q", a.rows, feat);
    int kt = graph.denseInput("kt", feat, a.cols);
    graph.markOutput(graph.sddmm(pattern, q, kt), "out");

    NDArray q_arr = NDArray::fromFloat(randomVector(a.rows * feat, 1));
    NDArray kt_arr = NDArray::fromFloat(randomVector(feat * a.cols, 2));
    NDArray graph_out({a.nnz()}, ir::DataType::float32());

    Engine eng(EngineOptions{});
    eng.dispatchGraph(graph,
                      {{"q", &q_arr}, {"kt", &kt_arr},
                       {"out", &graph_out}});
    EXPECT_EQ(eng.cacheStats().misses, 1u);

    // Per-kernel sddmm takes X (rows x feat) and Y (feat x cols) —
    // the same layouts the graph node uses for q / kt.
    NDArray kernel_out({a.nnz()}, ir::DataType::float32());
    auto second = eng.sddmm(a, feat, &q_arr, &kt_arr, &kernel_out);
    EXPECT_FALSE(second.cacheHit);
    EXPECT_EQ(eng.cacheStats().misses, 2u);
    EXPECT_EQ(eng.cacheStats().hits, 0u);

    // Same math either way.
    for (int64_t i = 0; i < a.nnz(); ++i) {
        EXPECT_NEAR(graph_out.floatAt(i), kernel_out.floatAt(i), 1e-4)
            << "at nnz position " << i;
    }
}

TEST(EngineCacheKeyV5, GraphsDifferingOnlyInEdgeStructureBothMiss)
{
    // Two topologically identical graphs whose patterns have EQUAL
    // rows/cols/nnz but different edge positions: one diagonal, one
    // shifted diagonal. Everything the pre-v5 key hashed (op, rows,
    // nnz, schedule) matches; only the structure content differs.
    int64_t n = 16;
    Csr diag, shifted;
    diag.rows = diag.cols = shifted.rows = shifted.cols = n;
    diag.indptr.push_back(0);
    shifted.indptr.push_back(0);
    for (int64_t i = 0; i < n; ++i) {
        diag.indices.push_back(static_cast<int32_t>(i));
        diag.values.push_back(1.0f);
        diag.indptr.push_back(static_cast<int32_t>(i + 1));
        shifted.indices.push_back(static_cast<int32_t>((i + 1) % n));
        shifted.values.push_back(1.0f);
        shifted.indptr.push_back(static_cast<int32_t>(i + 1));
    }

    int64_t feat = 4;
    auto build = [&](const Csr &structure) {
        dfg::OpGraph graph;
        dfg::PatternRef pattern =
            dfg::SparsityPattern::fromCsr(structure);
        int x = graph.denseInput("x", n, feat);
        int h = graph.aggregate(pattern, x, /*mean=*/false);
        graph.markOutput(h, "out");
        return graph;
    };

    std::vector<float> x_host = randomVector(n * feat, 3);
    NDArray x_arr = NDArray::fromFloat(x_host);
    NDArray out1({n * feat}, ir::DataType::float32());
    NDArray out2({n * feat}, ir::DataType::float32());

    Engine eng(EngineOptions{});
    eng.dispatchGraph(build(diag), {{"x", &x_arr}, {"out", &out1}});
    eng.dispatchGraph(build(shifted), {{"x", &x_arr}, {"out", &out2}});
    EXPECT_EQ(eng.cacheStats().misses, 2u);
    EXPECT_EQ(eng.cacheStats().hits, 0u);

    // Diagonal aggregate is the identity; shifted is a row rotation.
    for (int64_t i = 0; i < n; ++i) {
        for (int64_t k = 0; k < feat; ++k) {
            EXPECT_EQ(out1.floatAt(i * feat + k),
                      x_host[i * feat + k]);
            EXPECT_EQ(out2.floatAt(i * feat + k),
                      x_host[((i + 1) % n) * feat + k]);
        }
    }
}

TEST(EngineCacheKeyV5, FusedAndChainGraphArtifactsAreDistinct)
{
    // fuse on/off is part of the key's digest: dispatching the
    // same graph both ways compiles two artifacts, then both rehit.
    Csr a = randomCsr(24, 24, 0.2, 223);
    dfg::PatternRef pattern = dfg::SparsityPattern::fromCsr(a);
    int64_t feat = 4;
    dfg::OpGraph graph;
    int x = graph.denseInput("x", a.cols, feat);
    int h = graph.aggregate(pattern, x, /*mean=*/true);
    graph.markOutput(h, "out");

    NDArray x_arr = NDArray::fromFloat(randomVector(a.cols * feat, 5));
    NDArray out({a.rows * feat}, ir::DataType::float32());
    Engine eng(EngineOptions{});
    engine::GraphDispatchOptions fused, chain;
    fused.fuse = true;
    chain.fuse = false;
    eng.dispatchGraph(graph, {{"x", &x_arr}, {"out", &out}}, fused);
    eng.dispatchGraph(graph, {{"x", &x_arr}, {"out", &out}}, chain);
    EXPECT_EQ(eng.cacheStats().misses, 2u);
    eng.dispatchGraph(graph, {{"x", &x_arr}, {"out", &out}}, fused);
    eng.dispatchGraph(graph, {{"x", &x_arr}, {"out", &out}}, chain);
    EXPECT_EQ(eng.cacheStats().misses, 2u);
    EXPECT_EQ(eng.cacheStats().hits, 2u);
}

} // namespace
} // namespace sparsetir
