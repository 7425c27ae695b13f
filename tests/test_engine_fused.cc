/**
 * @file
 * Fused task-graph dispatch: bitwise equality of the fused schedule
 * against the serial oracle on hyb SpMM (single and batched,
 * including the prepared-handle overload) and RGCN; structural properties of built TaskGraphs;
 * chains headed by exclusive kernels; request chains on shared
 * storage for batches that fill the pool; and determinism under
 * contention — many threads hammering one shared fused session must
 * produce bit-identical results from exactly one compile, without
 * ever probing the launch grid through the interpreter.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "engine/engine.h"
#include "graph/generator.h"
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

/** Engine with every schedule knob explicit. */
Engine
makeEngine(runtime::Backend backend, bool parallel, int threads,
           int64_t min_chunk = 8)
{
    EngineOptions options;
    options.backend = backend;
    options.parallel = parallel;
    options.numThreads = threads;
    options.minBlocksPerChunk = min_chunk;
    return Engine(options);
}

// ---------------------------------------------------------------------
// Fused vs serial, single request
// ---------------------------------------------------------------------

TEST(EngineFused, HybBitwiseMatchesSerial)
{
    // Power-law structure: several buckets per partition, split rows
    // (an exclusive kernel) in the widest one.
    Csr a = graph::powerLawGraph(300, 4000, 1.8, 13);
    int64_t feat = 8;
    engine::HybConfig config;
    config.partitions = 2;
    auto b_host = randomVector(a.cols * feat, 7);
    NDArray b = NDArray::fromFloat(b_host);

    // Serial interpreter oracle.
    Engine serial = makeEngine(runtime::Backend::kInterpreter,
                               /*parallel=*/false, 1);
    NDArray expected({a.rows * feat}, ir::DataType::float32());
    serial.spmmHyb(a, feat, &b, &expected, config);

    struct Variant
    {
        const char *name;
        runtime::Backend backend;
    };
    const Variant variants[] = {
        {"bytecode fused", runtime::Backend::kBytecode},
        {"interpreter fused", runtime::Backend::kInterpreter},
    };
    for (const Variant &variant : variants) {
        Engine eng = makeEngine(variant.backend, /*parallel=*/true, 4,
                                /*min_chunk=*/4);
        NDArray c({a.rows * feat}, ir::DataType::float32());
        auto info = eng.spmmHyb(a, feat, &b, &c, config);
        EXPECT_GE(info.numKernels, 2);
        EXPECT_TRUE(bitwiseEqual(expected, c))
            << variant.name << " diverged from the serial oracle";
        // Warm re-dispatch into a dirty output must reproduce.
        auto warm = eng.spmmHyb(a, feat, &b, &c, config);
        EXPECT_TRUE(warm.cacheHit);
        EXPECT_TRUE(bitwiseEqual(expected, c))
            << variant.name << " warm re-dispatch diverged";
    }
}

TEST(EngineFused, RgcnBitwiseMatchesSerial)
{
    format::RelationalCsr graph;
    graph.rows = 60;
    graph.cols = 60;
    for (int r = 0; r < 3; ++r) {
        graph.relations.push_back(
            graph::powerLawGraph(60, 400, 1.7, 31 + r));
        graph.relations.back().cols = 60;
    }
    int64_t feat = 8;
    NDArray x = NDArray::fromFloat(randomVector(graph.cols * feat, 41));
    NDArray w = NDArray::fromFloat(randomVector(feat * feat, 42));

    Engine serial = makeEngine(runtime::Backend::kInterpreter, false,
                               1);
    NDArray expected({graph.rows * feat}, ir::DataType::float32());
    serial.rgcn(graph, feat, &x, &w, &expected);

    for (runtime::Backend backend :
         {runtime::Backend::kBytecode, runtime::Backend::kInterpreter}) {
        Engine eng = makeEngine(backend, true, 4);
        NDArray y({graph.rows * feat}, ir::DataType::float32());
        auto info = eng.rgcn(graph, feat, &x, &w, &y);
        EXPECT_GE(info.numKernels, 3);
        EXPECT_TRUE(bitwiseEqual(expected, y))
            << "fused rgcn on "
            << (backend == runtime::Backend::kBytecode ? "bytecode"
                                                       : "interpreter")
            << " diverged from the serial oracle";
    }
}

// ---------------------------------------------------------------------
// Batched fused dispatch
// ---------------------------------------------------------------------

TEST(EngineFused, HybBatchBitwiseMatchesSequential)
{
    Csr a = graph::powerLawGraph(250, 3000, 1.8, 53);
    int64_t feat = 8;
    engine::HybConfig config;
    config.partitions = 2;
    constexpr int kRequests = 4;

    std::vector<NDArray> b;
    std::vector<NDArray> fused_c;
    std::vector<NDArray> expected;
    for (int i = 0; i < kRequests; ++i) {
        b.push_back(
            NDArray::fromFloat(randomVector(a.cols * feat, 60 + i)));
        fused_c.emplace_back(std::vector<int64_t>{a.rows * feat},
                             ir::DataType::float32());
        expected.emplace_back(std::vector<int64_t>{a.rows * feat},
                              ir::DataType::float32());
    }

    // Per-request serial ground truth.
    Engine serial = makeEngine(runtime::Backend::kInterpreter, false,
                               1);
    for (int i = 0; i < kRequests; ++i) {
        serial.spmmHyb(a, feat, &b[i], &expected[i], config);
    }

    Engine fused_eng = makeEngine(runtime::Backend::kBytecode, true,
                                  4);
    std::vector<SpmmRequest> fused_requests;
    for (int i = 0; i < kRequests; ++i) {
        fused_requests.push_back(SpmmRequest{&b[i], &fused_c[i]});
    }
    fused_eng.spmmHybBatch(a, feat, fused_requests, config);
    for (int i = 0; i < kRequests; ++i) {
        EXPECT_TRUE(bitwiseEqual(expected[i], fused_c[i]))
            << "fused batch request " << i << " diverged";
    }

    // Prepared-handle overload through the fused path.
    engine::PreparedSpmmHyb prepared =
        fused_eng.prepareSpmmHyb(a, feat, config);
    EXPECT_TRUE(prepared.cacheHit);
    for (auto &c : fused_c) {
        c.zero();
    }
    auto info = fused_eng.spmmHybBatch(prepared, fused_requests);
    EXPECT_TRUE(info.cacheHit);
    for (int i = 0; i < kRequests; ++i) {
        EXPECT_TRUE(bitwiseEqual(expected[i], fused_c[i]))
            << "fused prepared-handle request " << i << " diverged";
    }
}

// ---------------------------------------------------------------------
// Chains headed by exclusive kernels
// ---------------------------------------------------------------------

TEST(EngineFused, ChainHeadedByExclusiveKernelRunsViaKickoff)
{
    // Cap the bucket width at 1 on a matrix whose every row has
    // several entries: all rows split into multiple width-1 ELL rows,
    // so the decomposition is a SINGLE exclusive kernel — the fold
    // chain starts (and ends) with an exclusive entry that no compute
    // unit completion would ever trigger; only the per-request
    // kickoff tasks can run it.
    Csr a = randomCsr(40, 30, 0.3, 71);
    ASSERT_GT(a.nnz(), a.rows);  // rows with >= 2 entries exist
    int64_t feat = 4;
    engine::HybConfig config;
    config.partitions = 1;
    config.bucketCapLog2 = 0;

    Engine serial = makeEngine(runtime::Backend::kInterpreter, false,
                               1);
    NDArray b = NDArray::fromFloat(randomVector(a.cols * feat, 72));
    NDArray expected({a.rows * feat}, ir::DataType::float32());
    serial.spmmHyb(a, feat, &b, &expected, config);

    Engine fused = makeEngine(runtime::Backend::kBytecode, true, 4);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    fused.spmmHyb(a, feat, &b, &c, config);
    EXPECT_TRUE(bitwiseEqual(expected, c));

    // Batched: the exclusive kernel still runs once per request,
    // concurrently ACROSS requests (disjoint outputs), serially
    // within each.
    constexpr int kRequests = 3;
    std::vector<NDArray> bs;
    std::vector<NDArray> cs;
    for (int i = 0; i < kRequests; ++i) {
        bs.push_back(
            NDArray::fromFloat(randomVector(a.cols * feat, 80 + i)));
        cs.emplace_back(std::vector<int64_t>{a.rows * feat},
                        ir::DataType::float32());
    }
    std::vector<SpmmRequest> requests;
    for (int i = 0; i < kRequests; ++i) {
        requests.push_back(SpmmRequest{&bs[i], &cs[i]});
    }
    fused.spmmHybBatch(a, feat, requests, config);
    for (int i = 0; i < kRequests; ++i) {
        NDArray want({a.rows * feat}, ir::DataType::float32());
        serial.spmmHyb(a, feat, &bs[i], &want, config);
        EXPECT_TRUE(bitwiseEqual(want, cs[i]))
            << "exclusive-head batch request " << i << " diverged";
    }
}

// ---------------------------------------------------------------------
// TaskGraph structure
// ---------------------------------------------------------------------

TEST(EngineFused, TaskGraphSplitsGridsAndOrdersChains)
{
    auto pool = std::make_shared<engine::ThreadPool>(8);
    engine::ParallelExecutor executor(pool);

    engine::CompiledKernel kernel =
        engine::compileKernel(
            core::compileSpmmCsrFunc(4, core::SpmmSchedule()));
    ASSERT_NE(kernel.blockExtent, nullptr);
    engine::CompiledKernel exclusive = kernel;
    exclusive.exclusive = true;

    runtime::Bindings bindings;
    bindings.scalars["m"] = 64;
    bindings.scalars["n"] = 32;
    bindings.scalars["nnz"] = 100;
    bindings.scalars["feat_size"] = 4;
    std::vector<const runtime::Bindings *> requests{&bindings,
                                                    &bindings};

    engine::ExecOptions options;
    options.minBlocksPerChunk = 8;
    std::vector<const engine::CompiledKernel *> kernels{&kernel,
                                                        &exclusive};
    engine::TaskGraph graph =
        executor.buildTaskGraph(kernels, requests, options);

    ASSERT_EQ(graph.numRequests, 2);
    ASSERT_EQ(graph.chains.size(), 2u);
    for (const auto &chain : graph.chains) {
        // One entry per kernel, in list order.
        ASSERT_EQ(chain.size(), kernels.size());
        EXPECT_EQ(chain[0].kernel, 0);
        EXPECT_FALSE(chain[0].onShared);
        EXPECT_GE(chain[0].numUnits, 1);
        EXPECT_EQ(chain[1].kernel, 1);
        EXPECT_TRUE(chain[1].onShared);
        EXPECT_EQ(chain[1].numUnits, 0);
        // Chunk windows of the non-exclusive kernel tile the grid
        // contiguously in chunk order.
        if (chain[0].numUnits > 1) {
            int64_t cursor = 0;
            for (int c = 0; c < chain[0].numUnits; ++c) {
                const engine::TaskGraph::Unit &unit =
                    graph.units[chain[0].firstUnit + c];
                EXPECT_EQ(unit.blockBegin, cursor);
                EXPECT_GT(unit.blockEnd, unit.blockBegin);
                cursor = unit.blockEnd;
            }
            EXPECT_EQ(cursor, 64);
        }
    }
    // Exclusive kernels contribute no compute units at all.
    for (const engine::TaskGraph::Unit &unit : graph.units) {
        EXPECT_EQ(unit.kernel, 0);
    }
    // Unit count stays near the worker count (kickoffs aside).
    EXPECT_LE(graph.units.size(), 16u);
}

TEST(EngineFused, LoneKernelChunksToMinOfWorkersAndExtentOverMinChunk)
{
    // One kernel under one request: the task graph splits its grid
    // into min(workers, extent / minBlocksPerChunk) chunks (unsplit
    // below two), the grid-parallel shape single-kernel dispatch has
    // always had.
    engine::CompiledKernel kernel =
        engine::compileKernel(
            core::compileSpmmCsrFunc(4, core::SpmmSchedule()));
    runtime::Bindings bindings;
    bindings.scalars["m"] = 64;
    bindings.scalars["n"] = 32;
    bindings.scalars["nnz"] = 100;
    bindings.scalars["feat_size"] = 4;
    std::vector<const engine::CompiledKernel *> kernels{&kernel};
    std::vector<const runtime::Bindings *> requests{&bindings};

    struct Shape
    {
        int workers;
        int64_t minChunk;
        int chunks;
    };
    const Shape shapes[] = {
        {8, 4, 8},    // worker-bound: min(8, 16)
        {8, 16, 4},   // extent-bound: min(8, 4)
        {4, 8, 4},    // min(4, 8)
        {2, 64, 1},   // 64 / 64 = 1 chunk: unsplit
    };
    for (const Shape &shape : shapes) {
        engine::ParallelExecutor executor(
            std::make_shared<engine::ThreadPool>(shape.workers));
        engine::ExecOptions options;
        options.minBlocksPerChunk = shape.minChunk;
        engine::TaskGraph graph =
            executor.buildTaskGraph(kernels, requests, options);
        ASSERT_EQ(graph.chains.size(), 1u);
        ASSERT_EQ(graph.chains[0].size(), 1u);
        EXPECT_EQ(graph.chains[0][0].numUnits, shape.chunks)
            << shape.workers << " workers, minChunk " << shape.minChunk;
        EXPECT_EQ(graph.units.size(), static_cast<size_t>(shape.chunks));
        if (shape.chunks == 1) {
            EXPECT_EQ(graph.units[0].blockEnd, -1) << "unsplit unit";
        }
    }
}

// ---------------------------------------------------------------------
// Request chains: a batch that fills the pool privatizes nothing
// ---------------------------------------------------------------------

/** A plain kernel, an exclusive copy of it, and bindings to plan on. */
struct PlanFixture
{
    engine::CompiledKernel kernel = engine::compileKernel(
        core::compileSpmmCsrFunc(4, core::SpmmSchedule()));
    engine::CompiledKernel exclusive;
    runtime::Bindings bindings;

    PlanFixture()
    {
        exclusive = kernel;
        exclusive.exclusive = true;
        bindings.scalars["m"] = 64;
        bindings.scalars["n"] = 32;
        bindings.scalars["nnz"] = 100;
        bindings.scalars["feat_size"] = 4;
    }

    engine::TaskGraph
    plan(int workers, int requests) const
    {
        engine::ParallelExecutor executor(
            std::make_shared<engine::ThreadPool>(workers));
        std::vector<const engine::CompiledKernel *> kernels{
            &kernel, &exclusive, &kernel};
        std::vector<const runtime::Bindings *> views(requests,
                                                     &bindings);
        return executor.buildTaskGraph(kernels, views);
    }
};

TEST(EngineFused, FullBatchPlansRequestChainsOnSharedStorage)
{
    PlanFixture fixture;
    engine::TaskGraph graph = fixture.plan(/*workers=*/4,
                                           /*requests=*/4);
    EXPECT_TRUE(graph.units.empty()) << "a full batch privatized units";
    ASSERT_EQ(graph.chains.size(), 4u);
    for (const auto &chain : graph.chains) {
        ASSERT_EQ(chain.size(), 3u);
        for (size_t k = 0; k < chain.size(); ++k) {
            EXPECT_EQ(chain[k].kernel, static_cast<int>(k));
            EXPECT_TRUE(chain[k].onShared);
            EXPECT_EQ(chain[k].numUnits, 0);
        }
    }
}

TEST(EngineFused, BatchBelowPoolSizeStillPrivatizes)
{
    PlanFixture fixture;
    engine::TaskGraph graph = fixture.plan(/*workers=*/4,
                                           /*requests=*/3);
    // Two non-exclusive kernels per request, one unit each at least.
    EXPECT_GE(graph.units.size(), 6u);
    ASSERT_EQ(graph.chains.size(), 3u);
    for (const auto &chain : graph.chains) {
        ASSERT_EQ(chain.size(), 3u);
        EXPECT_FALSE(chain[0].onShared);
        EXPECT_GE(chain[0].numUnits, 1);
        EXPECT_TRUE(chain[1].onShared) << "exclusive kernel";
        EXPECT_FALSE(chain[2].onShared);
        EXPECT_GE(chain[2].numUnits, 1);
    }
}

/** Point native engines of this process at one fresh artifact dir:
 *  never load .so files persisted by other processes. */
void
isolateNativeCacheDir()
{
    static const bool done = [] {
        static char tmpl[] = "/tmp/sparsetir-fused-native-XXXXXX";
        if (::mkdtemp(tmpl) != nullptr) {
            ::setenv("SPARSETIR_NATIVE_CACHE_DIR", tmpl, 1);
        }
        return true;
    }();
    (void)done;
}

TEST(EngineFused, FullBatchLeasesNoScratchAndMatchesSerial)
{
    Csr a = graph::powerLawGraph(300, 4000, 1.8, 101);
    int64_t feat = 8;
    engine::HybConfig config;
    config.partitions = 2;
    constexpr int kThreads = 4;

    std::vector<NDArray> b;
    std::vector<NDArray> expected;
    for (int i = 0; i < kThreads; ++i) {
        b.push_back(
            NDArray::fromFloat(randomVector(a.cols * feat, 110 + i)));
        expected.emplace_back(std::vector<int64_t>{a.rows * feat},
                              ir::DataType::float32());
    }
    Engine serial = makeEngine(runtime::Backend::kBytecode,
                               /*parallel=*/false, 1);
    for (int i = 0; i < kThreads; ++i) {
        serial.spmmHyb(a, feat, &b[i], &expected[i], config);
    }

    isolateNativeCacheDir();
    for (runtime::Backend backend :
         {runtime::Backend::kBytecode, runtime::Backend::kNative}) {
        const char *name =
            backend == runtime::Backend::kNative ? "native" : "bytecode";
        EngineOptions options;
        options.backend = backend;
        options.numThreads = kThreads;
        options.nativePromoteAfter = 0;  // native from the first resolve
        Engine eng(options);

        std::vector<NDArray> c;
        std::vector<SpmmRequest> requests;
        for (int i = 0; i < kThreads; ++i) {
            c.emplace_back(std::vector<int64_t>{a.rows * feat},
                           ir::DataType::float32());
        }
        for (int i = 0; i < kThreads; ++i) {
            requests.push_back(SpmmRequest{&b[i], &c[i]});
        }
        uint64_t leases_before = eng.scratchStats().leases;
        auto info = eng.spmmHybBatch(a, feat, requests, config);
        ASSERT_GE(info.numKernels, 3) << name;
        EXPECT_EQ(info.privatizedUnits, 0) << name;
        EXPECT_EQ(eng.scratchStats().leases, leases_before)
            << name << ": a full batch leased scratch";
        EXPECT_EQ(eng.metricsSnapshot().counters.at(
                      "engine.privatized_units"),
                  0u)
            << name;
        for (int i = 0; i < kThreads; ++i) {
            EXPECT_TRUE(bitwiseEqual(expected[i], c[i]))
                << name << " request " << i << " diverged";
        }
        if (backend == runtime::Backend::kNative) {
            EXPECT_GT(eng.nativeStats().compiles +
                          eng.nativeStats().diskHits,
                      0u);
            EXPECT_EQ(eng.nativeStats().fallbacks, 0u);
        }
    }
}

TEST(EngineFused, SingleRequestHybReportsPrivatizedUnits)
{
    Csr a = graph::powerLawGraph(300, 4000, 1.8, 103);
    int64_t feat = 8;
    engine::HybConfig config;
    config.partitions = 2;
    NDArray b = NDArray::fromFloat(randomVector(a.cols * feat, 104));
    NDArray c({a.rows * feat}, ir::DataType::float32());

    Engine eng = makeEngine(runtime::Backend::kBytecode,
                            /*parallel=*/true, 2);
    auto info = eng.spmmHyb(a, feat, &b, &c, config);
    EXPECT_GT(info.privatizedUnits, 0);
    EXPECT_EQ(eng.metricsSnapshot().counters.at(
                  "engine.privatized_units"),
              static_cast<uint64_t>(info.privatizedUnits));

    // A serial session runs no units at all.
    Engine serial = makeEngine(runtime::Backend::kBytecode,
                               /*parallel=*/false, 2);
    EXPECT_EQ(serial.spmmHyb(a, feat, &b, &c, config).privatizedUnits,
              0);
}

// ---------------------------------------------------------------------
// Determinism under contention
// ---------------------------------------------------------------------

TEST(EngineFused, DeterministicUnderContentionWithOneCompile)
{
    Csr a = graph::powerLawGraph(200, 2400, 1.8, 91);
    int64_t feat = 8;
    engine::HybConfig config;
    config.partitions = 2;
    auto b_host = randomVector(a.cols * feat, 92);

    Engine serial = makeEngine(runtime::Backend::kInterpreter, false,
                               1);
    NDArray b_ref = NDArray::fromFloat(b_host);
    NDArray expected({a.rows * feat}, ir::DataType::float32());
    serial.spmmHyb(a, feat, &b_ref, &expected, config);

    // One shared fused session. Prime the artifact first: racing
    // first-time builders may each compile (documented CompileCache
    // behavior); the warm contention run must hit one artifact.
    Engine eng = makeEngine(runtime::Backend::kBytecode, true, 4);
    {
        NDArray b = NDArray::fromFloat(b_host);
        NDArray c({a.rows * feat}, ir::DataType::float32());
        eng.spmmHyb(a, feat, &b, &c, config);
    }
    // The whole contention run is warm: it must never size a grid
    // through the interpreter probe.
    runtime::resetLaunchProbeCount();

    constexpr int kThreads = 8;
    constexpr int kRounds = 7;  // 8 x 7 = 56 dispatches >= 50
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> callers;
    for (int t = 0; t < kThreads; ++t) {
        callers.emplace_back([&, t] {
            NDArray b = NDArray::fromFloat(b_host);
            NDArray c({a.rows * feat}, ir::DataType::float32());
            for (int round = 0; round < kRounds; ++round) {
                c.zero();
                eng.spmmHyb(a, feat, &b, &c, config);
                if (!bitwiseEqual(expected, c)) {
                    ++mismatches[t];
                }
            }
        });
    }
    for (auto &caller : callers) {
        caller.join();
    }
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(mismatches[t], 0)
            << "thread " << t
            << " observed a nondeterministic fused result";
    }
    EXPECT_EQ(eng.cacheStats().misses, 1u)
        << "contention run compiled the artifact more than once";
    EXPECT_EQ(runtime::launchProbeCount(), 0u)
        << "warm fused dispatch probed the grid through the "
           "interpreter";
    // Every privatization lease went back to the pool.
    EXPECT_EQ(eng.scratchStats().leasedBytes, 0);
}

} // namespace
} // namespace sparsetir
