/**
 * @file
 * Execution engine tests: compile-cache keying (structure-sensitive,
 * value-insensitive), deterministic parallel execution (bitwise
 * equality with the serial interpreter across worker counts), the
 * write-set analysis behind task-graph ordering, and concurrent
 * dispatch through one shared Engine session.
 */

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "dfg/op_graph.h"
#include "engine/compile_cache.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "engine/fingerprint.h"
#include "engine/thread_pool.h"
#include "format/bsr.h"
#include "format/relational.h"
#include "format/srbcrs.h"
#include "graph/generator.h"
#include "ir/expr.h"
#include "ir/stmt.h"
#include "observe/metrics.h"
#include "support/rng.h"
#include "test_util.h"

namespace sparsetir {
namespace {

using core::BindingSet;
using engine::Engine;
using engine::EngineOptions;
using format::Csr;
using runtime::NDArray;
using testutil::bitwiseEqual;
using testutil::randomVector;

// With SPARSETIR_NATIVE=1 every engine here may serve natively: its
// .so files go to a per-process directory removed at exit.
[[maybe_unused]] const bool kNativeCacheIsolated =
    testutil::isolateNativeCacheDir("/tmp/sparsetir-engine-native-");

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

// ---------------------------------------------------------------------
// Fingerprint / cache keying
// ---------------------------------------------------------------------

TEST(Fingerprint, StructureHashIgnoresValues)
{
    Csr a = randomCsr(20, 20, 0.2, 1);
    Csr b = a;
    for (auto &v : b.values) {
        v *= 2.0f;
    }
    EXPECT_EQ(engine::structureHash(a), engine::structureHash(b));
}

TEST(Fingerprint, StructureHashSeesStructure)
{
    Csr a = randomCsr(20, 20, 0.2, 1);
    Csr b = randomCsr(20, 20, 0.2, 2);
    EXPECT_NE(engine::structureHash(a), engine::structureHash(b));
}

// A cache hit trusts the key, so the structure hash must separate the
// near misses a real structure change produces, and agree on equal
// structures however they were built.
TEST(Fingerprint, StructureHashSeparatesNearMisses)
{
    Csr a = randomCsr(40, 40, 0.2, 3);
    const uint64_t base = engine::structureHash(a);
    EXPECT_EQ(engine::structureHash(randomCsr(40, 40, 0.2, 3)), base);

    // The first row with two entries, and a row boundary inside the
    // matrix that has a non-zero on each side.
    int64_t row = 0;
    while (a.indptr[row + 1] - a.indptr[row] < 2) {
        ++row;
    }
    const int32_t k = a.indptr[row];
    ASSERT_NE(a.indices[k], a.indices[k + 1]);

    Csr changed = a;
    changed.indices[k + 1] = (changed.indices[k + 1] + 1) % 40;
    EXPECT_NE(engine::structureHash(changed), base) << "changed index";

    Csr swapped = a;
    std::swap(swapped.indices[k], swapped.indices[k + 1]);
    EXPECT_NE(engine::structureHash(swapped), base) << "swapped neighbours";

    Csr moved = a;
    moved.indptr[row + 1] -= 1;
    EXPECT_NE(engine::structureHash(moved), base) << "moved row boundary";

    // The same leading bytes at every length from 0 to 17 (words and
    // tails alike), and i32 arrays that differ only by a trailing zero.
    std::vector<unsigned char> zeros(17, 0);
    std::set<uint64_t> digests;
    for (size_t n = 0; n <= zeros.size(); ++n) {
        digests.insert(engine::Fingerprint().bytes(zeros.data(), n).digest());
    }
    EXPECT_EQ(digests.size(), zeros.size() + 1);
    EXPECT_NE(engine::Fingerprint().i32s({1, 2, 3}).digest(),
              engine::Fingerprint().i32s({1, 2, 3, 0}).digest());
    EXPECT_EQ(engine::Fingerprint().i32s({1, 2, 3}).digest(),
              engine::Fingerprint().i32s({1, 2, 3}).digest());
}

TEST(CompileCache, HitOnSameKeyMissOnDifferent)
{
    engine::CompileCache cache(4);
    engine::CacheKey key1;
    key1.digest = 1;
    engine::CacheKey key2;
    key2.digest = 2;

    int builds = 0;
    auto builder = [&] {
        ++builds;
        return std::make_shared<engine::Artifact>();
    };
    auto first = cache.getOrBuild(key1, builder);
    auto second = cache.getOrBuild(key1, builder);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(builds, 1);
    cache.getOrBuild(key2, builder);
    EXPECT_EQ(builds, 2);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(CompileCache, EvictsLeastRecentlyUsed)
{
    engine::CompileCache cache(2);
    int builds = 0;
    auto builder = [&] {
        ++builds;
        return std::make_shared<engine::Artifact>();
    };
    engine::CacheKey keys[3];
    for (int i = 0; i < 3; ++i) {
        keys[i].digest = static_cast<uint64_t>(i + 1);
    }
    cache.getOrBuild(keys[0], builder);
    cache.getOrBuild(keys[1], builder);
    cache.getOrBuild(keys[0], builder);  // refresh key 0
    cache.getOrBuild(keys[2], builder);  // evicts key 1
    EXPECT_EQ(builds, 3);
    EXPECT_EQ(cache.stats().evictions, 1u);

    // Keys 0 and 2 are still cached; key 1 was evicted and rebuilds.
    cache.getOrBuild(keys[0], builder);
    cache.getOrBuild(keys[2], builder);
    EXPECT_EQ(builds, 3);
    cache.getOrBuild(keys[1], builder);
    EXPECT_EQ(builds, 4);
    EXPECT_EQ(cache.stats().evictions, 2u);
}

// Every input an op's builder compiles from is part of its key: after
// a baseline request per op, changing one compile input at a time
// costs exactly one miss, and repeating a baseline hits.
TEST(Engine, EachCompileInputChangeMissesOnce)
{
    Engine eng(EngineOptions{});
    Csr a = randomCsr(32, 32, 0.2, 21);
    const int64_t feat = 8;
    NDArray b = NDArray::fromFloat(randomVector(a.cols * feat, 22));

    auto spmm_csr = [&](int thread_x) {
        core::SpmmSchedule schedule;
        schedule.threadX = thread_x;
        NDArray c({a.rows * feat}, ir::DataType::float32());
        return eng.spmmCsr(a, feat, &b, &c, schedule);
    };
    NDArray x = NDArray::fromFloat(randomVector(a.rows * feat, 23));
    NDArray y = NDArray::fromFloat(randomVector(feat * a.cols, 24));
    auto sddmm = [&](int workloads, int group) {
        core::SddmmSchedule schedule;
        schedule.workloadsPerBlock = workloads;
        schedule.groupSize = group;
        NDArray out({a.nnz()}, ir::DataType::float32());
        return eng.sddmm(a, feat, &x, &y, &out, schedule);
    };
    auto spmm_hyb = [&](int partitions, int cap_log2) {
        engine::HybConfig config;
        config.partitions = partitions;
        config.bucketCapLog2 = cap_log2;
        NDArray c({a.rows * feat}, ir::DataType::float32());
        return eng.spmmHyb(a, feat, &b, &c, config);
    };
    format::RelationalCsr relational;
    relational.rows = relational.cols = a.rows;
    relational.relations = {a, randomCsr(32, 32, 0.1, 25)};
    NDArray w = NDArray::fromFloat(randomVector(8 * 4, 26));
    auto rgcn = [&](int64_t feat_in, int64_t feat_out) {
        NDArray xr = NDArray::fromFloat(
            randomVector(relational.cols * feat_in, 27));
        NDArray yr({relational.rows * feat_out}, ir::DataType::float32());
        return eng.rgcn(relational, feat_in, feat_out, &xr, &w, &yr);
    };
    auto spmm_bsr = [&](int32_t block_size) {
        format::Bsr bsr = format::bsrFromCsr(a, block_size);
        NDArray bb = NDArray::fromFloat(
            randomVector(bsr.blockCols * bsr.blockSize * feat, 28));
        NDArray c({bsr.blockRows * bsr.blockSize * feat},
                  ir::DataType::float32());
        return eng.spmmBsr(bsr, feat, &bb, &c);
    };
    auto spmm_srbcrs = [&](int32_t t, int32_t g) {
        format::SrBcrs sr = format::srbcrsFromCsr(a, t, g);
        NDArray c({sr.stripes * sr.tileHeight * feat},
                  ir::DataType::float32());
        return eng.spmmSrbcrs(sr, feat, &b, &c);
    };
    dfg::OpGraph op_graph;
    int h = op_graph.aggregate(dfg::SparsityPattern::fromCsr(a),
                               op_graph.denseInput("x", a.cols, feat),
                               /*mean=*/true);
    op_graph.markOutput(h, "out");
    auto dispatch_graph = [&](bool fuse) {
        NDArray out({a.rows * feat}, ir::DataType::float32());
        engine::GraphDispatchOptions options;
        options.fuse = fuse;
        return eng.dispatchGraph(op_graph, {{"x", &b}, {"out", &out}},
                                 options);
    };

    using Dispatch = std::function<engine::DispatchInfo()>;
    // One baseline request per op.
    std::vector<Dispatch> baselines = {
        [&] { return spmm_csr(32); },
        [&] { return sddmm(8, 32); },
        [&] { return spmm_hyb(1, 2); },
        [&] { return rgcn(8, 4); },
        [&] { return spmm_bsr(8); },
        [&] { return spmm_srbcrs(4, 8); },
        [&] { return dispatch_graph(true); },
    };
    for (const auto &baseline : baselines) {
        EXPECT_FALSE(baseline().cacheHit);
    }
    EXPECT_EQ(eng.cacheStats().misses, baselines.size());

    std::vector<std::pair<const char *, Dispatch>> changes = {
        {"csr threadX", [&] { return spmm_csr(16); }},
        {"sddmm workloadsPerBlock", [&] { return sddmm(4, 32); }},
        {"sddmm groupSize", [&] { return sddmm(8, 16); }},
        {"hyb partitions", [&] { return spmm_hyb(2, 2); }},
        {"hyb bucketCapLog2", [&] { return spmm_hyb(1, 3); }},
        {"rgcn (featIn, featOut) swapped", [&] { return rgcn(4, 8); }},
        {"bsr block size", [&] { return spmm_bsr(4); }},
        {"srbcrs (t, g) swapped", [&] { return spmm_srbcrs(8, 4); }},
        {"graph fuse", [&] { return dispatch_graph(false); }},
    };
    for (const auto &[what, change] : changes) {
        uint64_t before = eng.cacheStats().misses;
        EXPECT_FALSE(change().cacheHit) << what;
        EXPECT_EQ(eng.cacheStats().misses, before + 1) << what;
    }

    uint64_t misses = eng.cacheStats().misses;
    for (const auto &baseline : baselines) {
        EXPECT_TRUE(baseline().cacheHit);
    }
    EXPECT_EQ(eng.cacheStats().misses, misses);
}

TEST(Engine, CacheHitOnIdenticalStructure)
{
    Engine eng(EngineOptions{});
    Csr a = randomCsr(30, 25, 0.15, 3);
    int64_t feat = 16;
    auto b_host = randomVector(a.cols * feat, 4);
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.rows * feat}, ir::DataType::float32());

    auto first = eng.spmmCsr(a, feat, &b, &c);
    EXPECT_FALSE(first.cacheHit);

    // Same structure, different values: must hit.
    Csr a2 = a;
    for (auto &v : a2.values) {
        v *= 3.0f;
    }
    c.zero();
    auto second = eng.spmmCsr(a2, feat, &b, &c);
    EXPECT_TRUE(second.cacheHit);

    // Check the hit produced a2's (scaled) result, not stale values.
    auto expected = core::referenceSpmm(a2, b_host, feat);
    for (int64_t i = 0; i < c.numel(); ++i) {
        ASSERT_NEAR(expected[i], c.floatAt(i), 1e-4) << "at " << i;
    }

    // Structurally different matrix: must miss.
    Csr a3 = randomCsr(30, 25, 0.15, 99);
    c.zero();
    auto third = eng.spmmCsr(a3, feat, &b, &c);
    EXPECT_FALSE(third.cacheHit);

    // Different feature size on the original structure: must miss.
    NDArray b2 = NDArray::fromFloat(randomVector(a.cols * 8, 5));
    NDArray c2({a.rows * 8}, ir::DataType::float32());
    auto fourth = eng.spmmCsr(a, 8, &b2, &c2);
    EXPECT_FALSE(fourth.cacheHit);

    auto stats = eng.stats();
    EXPECT_EQ(stats.requests, 4u);
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_EQ(stats.cacheMisses, 3u);
}

TEST(Engine, HybCacheHitSkipsRebucketing)
{
    Engine eng(EngineOptions{});
    Csr a = graph::powerLawGraph(200, 2500, 1.8, 7);
    int64_t feat = 8;
    auto b_host = randomVector(a.cols * feat, 8);
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.rows * feat}, ir::DataType::float32());

    engine::HybConfig config;
    config.partitions = 2;
    auto first = eng.spmmHyb(a, feat, &b, &c, config);
    EXPECT_FALSE(first.cacheHit);
    EXPECT_GE(first.numKernels, 2);

    // Re-dispatch with rescaled values through the provenance maps.
    Csr a2 = a;
    for (auto &v : a2.values) {
        v *= -0.5f;
    }
    c.zero();
    auto second = eng.spmmHyb(a2, feat, &b, &c, config);
    EXPECT_TRUE(second.cacheHit);
    auto expected = core::referenceSpmm(a2, b_host, feat);
    for (int64_t i = 0; i < c.numel(); ++i) {
        ASSERT_NEAR(expected[i], c.floatAt(i), 1e-3) << "at " << i;
    }
}

// ---------------------------------------------------------------------
// Write-set analysis
// ---------------------------------------------------------------------

TEST(Executor, AccumulatedParamsClassification)
{
    // CSR SpMM overwrites C (no read-modify-write on a param).
    auto csr_func = core::compileSpmmCsrFunc(16, core::SpmmSchedule());
    EXPECT_TRUE(
        engine::ParallelExecutor::accumulatedParams(csr_func).empty());

    // SDDMM's rfactor write-back reads and re-stores B_data, but the
    // enclosing block's init zeroes B_data first: an initialized
    // reduction has overwrite semantics and must NOT be classified
    // as accumulation (folding would re-add stale output contents).
    auto sddmm_func = core::compileSddmmFunc(16, core::SddmmSchedule());
    EXPECT_TRUE(
        engine::ParallelExecutor::accumulatedParams(sddmm_func)
            .empty());

    // Hyb bucket kernels accumulate into C_data.
    format::Hyb hyb =
        format::hybFromCsr(randomCsr(40, 40, 0.2, 11), 1, -1);
    auto plans = core::compileSpmmHybFuncs(hyb, 16);
    ASSERT_FALSE(plans.empty());
    for (const auto &plan : plans) {
        auto accum =
            engine::ParallelExecutor::accumulatedParams(plan.func);
        ASSERT_EQ(accum.size(), 1u);
        EXPECT_EQ(accum[0], "C_data");
    }
}

// ---------------------------------------------------------------------
// Parallel execution = serial execution, bitwise
// ---------------------------------------------------------------------

/** Serial ground truth for hyb SpMM via the core pipeline. */
NDArray
serialHybSpmm(const Csr &a, int64_t feat,
              const std::vector<float> &b_host, int partitions)
{
    auto shared = std::make_shared<BindingSet>();
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    shared->external("B_data", &b);
    shared->external("C_data", &c);
    core::HybSpmm compiled =
        core::compileSpmmHyb(a, feat, partitions, -1, shared);
    for (auto &kernel : compiled.kernels) {
        kernel->execute();
    }
    return c;
}

/**
 * The bucket kernels of `hyb` in executable form, each carrying the
 * block hulls of its C rows (as the engine's builder attaches them).
 */
std::vector<engine::CompiledKernel>
compileHybKernels(const format::Hyb &hyb, int64_t feat)
{
    std::vector<engine::CompiledKernel> kernels;
    for (const auto &plan : core::compileSpmmHybFuncs(hyb, feat)) {
        const format::Ell &ell =
            hyb.buckets[plan.partition][plan.bucket];
        engine::CompiledKernel kernel = engine::compileKernel(plan.func);
        for (engine::AccumOutput &out : kernel.accums) {
            out.hulls = engine::blockHulls(ell.rowIndices,
                                           plan.rowsPerBlock, feat);
        }
        kernels.push_back(std::move(kernel));
    }
    return kernels;
}

std::vector<const engine::CompiledKernel *>
pointersTo(const std::vector<engine::CompiledKernel> &kernels)
{
    std::vector<const engine::CompiledKernel *> out;
    for (const engine::CompiledKernel &kernel : kernels) {
        out.push_back(&kernel);
    }
    return out;
}

TEST(Engine, ParallelSpmmBitwiseMatchesSerial)
{
    Csr a = graph::powerLawGraph(300, 4000, 1.8, 13);
    int64_t feat = 16;
    auto b_host = randomVector(a.cols * feat, 14);
    NDArray serial = serialHybSpmm(a, feat, b_host, 2);

    for (int threads : {1, 2, 8}) {
        EngineOptions options;
        options.numThreads = threads;
        Engine eng(options);
        NDArray b = NDArray::fromFloat(b_host);
        NDArray c({a.rows * feat}, ir::DataType::float32());
        engine::HybConfig config;
        config.partitions = 2;
        eng.spmmHyb(a, feat, &b, &c, config);
        EXPECT_TRUE(bitwiseEqual(serial, c))
            << "hyb SpMM diverged from serial with " << threads
            << " worker(s)";
    }
}

TEST(Engine, ParallelCsrSpmmBitwiseMatchesSerial)
{
    Csr a = randomCsr(120, 90, 0.1, 15);
    int64_t feat = 24;
    auto b_host = randomVector(a.cols * feat, 16);

    // Serial ground truth through the core pipeline.
    auto shared = std::make_shared<BindingSet>();
    NDArray b_serial = NDArray::fromFloat(b_host);
    NDArray c_serial({a.rows * feat}, ir::DataType::float32());
    shared->external("B_data", &b_serial);
    shared->external("C_data", &c_serial);
    core::compileSpmmCsr(a, feat, shared)->execute();

    for (int threads : {1, 2, 8}) {
        EngineOptions options;
        options.numThreads = threads;
        options.minBlocksPerChunk = 4;
        Engine eng(options);
        NDArray b = NDArray::fromFloat(b_host);
        NDArray c({a.rows * feat}, ir::DataType::float32());
        eng.spmmCsr(a, feat, &b, &c);
        EXPECT_TRUE(bitwiseEqual(c_serial, c))
            << "CSR SpMM diverged from serial with " << threads
            << " worker(s)";
    }
}

TEST(Engine, ParallelSddmmBitwiseMatchesSerial)
{
    Csr a = randomCsr(90, 70, 0.12, 17);
    int64_t feat = 32;
    auto x_host = randomVector(a.rows * feat, 18);
    auto y_host = randomVector(feat * a.cols, 19);

    auto shared = std::make_shared<BindingSet>();
    NDArray x_serial = NDArray::fromFloat(x_host);
    NDArray y_serial = NDArray::fromFloat(y_host);
    NDArray out_serial({a.nnz()}, ir::DataType::float32());
    shared->external("X_data", &x_serial);
    shared->external("Y_data", &y_serial);
    shared->external("B_data", &out_serial);
    core::compileSddmm(a, feat, shared)->execute();

    for (int threads : {1, 2, 8}) {
        EngineOptions options;
        options.numThreads = threads;
        options.minBlocksPerChunk = 2;
        Engine eng(options);
        NDArray x = NDArray::fromFloat(x_host);
        NDArray y = NDArray::fromFloat(y_host);
        NDArray out({a.nnz()}, ir::DataType::float32());
        eng.sddmm(a, feat, &x, &y, &out);
        EXPECT_TRUE(bitwiseEqual(out_serial, out))
            << "SDDMM diverged from serial with " << threads
            << " worker(s)";
    }
}

TEST(Engine, SddmmOverwritesDirtyOutputInParallel)
{
    // Regression: the initialized-reduction write-back must overwrite
    // a reused output buffer, not accumulate into it, regardless of
    // worker count.
    Csr a = randomCsr(90, 70, 0.12, 23);
    int64_t feat = 32;
    auto x_host = randomVector(a.rows * feat, 24);
    auto y_host = randomVector(feat * a.cols, 25);

    EngineOptions options;
    options.numThreads = 4;
    options.minBlocksPerChunk = 2;
    Engine eng(options);
    NDArray x = NDArray::fromFloat(x_host);
    NDArray y = NDArray::fromFloat(y_host);
    NDArray out({a.nnz()}, ir::DataType::float32());
    eng.sddmm(a, feat, &x, &y, &out);
    NDArray first = out;  // copy
    // Dispatch again into the now-dirty buffer.
    eng.sddmm(a, feat, &x, &y, &out);
    EXPECT_TRUE(bitwiseEqual(first, out))
        << "second dispatch into a dirty buffer diverged";
}

// ---------------------------------------------------------------------
// Session behavior
// ---------------------------------------------------------------------

TEST(Engine, SingleRequestRejectsOutputAliasingInput)
{
    // Single-request calls are batches of one, so they get the batch
    // path's input checks: an output aliasing the feature matrix
    // would race under grid splitting and is refused up front.
    Csr a = randomCsr(24, 24, 0.2, 61);
    int64_t feat = 4;
    NDArray bc = NDArray::fromFloat(randomVector(a.rows * feat, 62));
    NDArray before = bc;  // copy
    Engine eng(EngineOptions{});
    EXPECT_THROW(eng.spmmCsr(a, feat, &bc, &bc), UserError);
    EXPECT_TRUE(bitwiseEqual(before, bc))
        << "a rejected dispatch touched the caller's array";
    EXPECT_THROW(eng.spmmCsr(a, feat, nullptr, &bc), UserError);
}

TEST(Engine, SingleRequestMatchesBatchOfOneInOutputAndAccounting)
{
    Csr a = graph::powerLawGraph(120, 1400, 1.7, 63);
    int64_t feat = 8;
    NDArray b = NDArray::fromFloat(randomVector(a.cols * feat, 64));

    // Identical sessions: one serves spmmCsr, the other the same
    // request as a batch of one. A cold then a warm dispatch each.
    EngineOptions options;
    options.numThreads = 4;
    options.minBlocksPerChunk = 2;
    Engine single(options);
    Engine batch(options);
    auto counts = [](const Engine &eng) {
        observe::MetricsSnapshot snap = eng.metricsSnapshot();
        return std::vector<uint64_t>{
            snap.counters["engine.requests"],
            snap.counters["engine.cache_hits"],
            snap.counters["engine.cache_misses"],
            snap.histograms["engine.warm_dispatch_ms.spmm_csr"].count,
            snap.histograms["engine.cold_dispatch_ms.spmm_csr"].count,
        };
    };
    for (int round = 0; round < 2; ++round) {
        std::vector<uint64_t> single_before = counts(single);
        std::vector<uint64_t> batch_before = counts(batch);
        NDArray c1({a.rows * feat}, ir::DataType::float32());
        NDArray c2({a.rows * feat}, ir::DataType::float32());
        engine::DispatchInfo one = single.spmmCsr(a, feat, &b, &c1);
        engine::DispatchInfo many = batch.spmmCsrBatch(
            a, feat, {engine::SpmmRequest{&b, &c2}});
        EXPECT_TRUE(bitwiseEqual(c1, c2)) << "round " << round;
        EXPECT_EQ(one.cacheHit, many.cacheHit);
        EXPECT_EQ(one.numRequests, 1);
        EXPECT_EQ(many.numRequests, 1);
        EXPECT_EQ(one.numKernels, many.numKernels);
        std::vector<uint64_t> single_after = counts(single);
        std::vector<uint64_t> batch_after = counts(batch);
        for (size_t i = 0; i < single_after.size(); ++i) {
            EXPECT_EQ(single_after[i] - single_before[i],
                      batch_after[i] - batch_before[i])
                << "round " << round << ", instrument " << i;
        }
    }
}

TEST(Engine, ConcurrentDispatchFromManyThreads)
{
    Engine eng(EngineOptions{});
    Csr a = graph::powerLawGraph(150, 1800, 1.7, 21);
    int64_t feat = 8;
    auto b_host = randomVector(a.cols * feat, 22);
    auto expected = core::referenceSpmm(a, b_host, feat);

    constexpr int kCallers = 4;
    constexpr int kRounds = 3;
    std::vector<double> worst(kCallers, 0.0);
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
        callers.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                NDArray b = NDArray::fromFloat(b_host);
                NDArray c({a.rows * feat}, ir::DataType::float32());
                engine::HybConfig config;
                config.partitions = 1 + t % 2;
                eng.spmmHyb(a, feat, &b, &c, config);
                for (int64_t i = 0; i < c.numel(); ++i) {
                    worst[t] = std::max(
                        worst[t],
                        std::abs(expected[i] - c.floatAt(i)));
                }
            }
        });
    }
    for (auto &caller : callers) {
        caller.join();
    }
    for (int t = 0; t < kCallers; ++t) {
        EXPECT_LT(worst[t], 1e-3) << "caller " << t;
    }
    auto stats = eng.stats();
    EXPECT_EQ(stats.requests,
              static_cast<uint64_t>(kCallers * kRounds));
    // Two distinct configs; later rounds must all hit.
    EXPECT_GE(stats.cacheHits,
              static_cast<uint64_t>(kCallers * kRounds - 2 * kCallers));
}

TEST(Engine, RgcnMatchesPerRelationReference)
{
    // Three relations over a small node set.
    format::RelationalCsr graph;
    graph.rows = 40;
    graph.cols = 40;
    for (int r = 0; r < 3; ++r) {
        graph.relations.push_back(
            randomCsr(40, 40, 0.08, 31 + r));
    }
    int64_t feat = 8;
    auto x_host = randomVector(graph.cols * feat, 41);
    auto w_host = randomVector(feat * feat, 42);

    Engine eng(EngineOptions{});
    NDArray x = NDArray::fromFloat(x_host);
    NDArray w = NDArray::fromFloat(w_host);
    NDArray y({graph.rows * feat}, ir::DataType::float32());
    auto info = eng.rgcn(graph, feat, &x, &w, &y);
    EXPECT_GE(info.numKernels, 3);

    // Reference: Y = sum_r A_r @ (X @ W).
    std::vector<float> xw(graph.cols * feat, 0.0f);
    for (int64_t j = 0; j < graph.cols; ++j) {
        for (int64_t l = 0; l < feat; ++l) {
            float acc = 0.0f;
            for (int64_t k = 0; k < feat; ++k) {
                acc += x_host[j * feat + k] * w_host[k * feat + l];
            }
            xw[j * feat + l] = acc;
        }
    }
    std::vector<float> expected(graph.rows * feat, 0.0f);
    for (const Csr &rel : graph.relations) {
        auto part = core::referenceSpmm(rel, xw, feat);
        for (size_t i = 0; i < expected.size(); ++i) {
            expected[i] += part[i];
        }
    }
    for (int64_t i = 0; i < y.numel(); ++i) {
        ASSERT_NEAR(expected[i], y.floatAt(i), 1e-2) << "at " << i;
    }

    // Second dispatch with different values: cache hit, same result
    // shape of work.
    NDArray y2({graph.rows * feat}, ir::DataType::float32());
    auto info2 = eng.rgcn(graph, feat, &x, &w, &y2);
    EXPECT_TRUE(info2.cacheHit);
    EXPECT_TRUE(bitwiseEqual(y, y2));
}

TEST(BindingSet, OwnRejectsDuplicateParameter)
{
    BindingSet bindings;
    bindings.own("A_data", NDArray::fromFloat({1.0f, 2.0f}));
    EXPECT_THROW(bindings.own("A_data", NDArray::fromFloat({3.0f})),
                 UserError);
    // External bindings registered first are protected too.
    NDArray ext({4}, ir::DataType::float32());
    bindings.external("B_data", &ext);
    EXPECT_THROW(bindings.own("B_data", NDArray::fromFloat({5.0f})),
                 UserError);
}

TEST(ThreadPool, ParallelForRunsEveryIndexAndPropagatesErrors)
{
    engine::ThreadPool pool(4);
    std::vector<int> hits(100, 0);
    pool.parallelFor(100, [&](int64_t i) { hits[i] = 1; });
    for (int h : hits) {
        EXPECT_EQ(h, 1);
    }
    EXPECT_THROW(pool.parallelFor(8,
                                  [](int64_t i) {
                                      if (i == 3) {
                                          throw UserError("boom");
                                      }
                                  }),
                 UserError);
}

TEST(ThreadPool, NestedParallelForRunsInlineInsteadOfDeadlocking)
{
    // A worker that calls parallelFor blocks on futures while
    // occupying the very slot its sub-tasks need; once every worker
    // does so (nested dispatch on a saturated pool) nothing runs
    // anything. parallelFor must detect worker-thread callers and
    // degrade to caller-runs. Without the fix this test hangs.
    engine::ThreadPool pool(2);
    EXPECT_FALSE(pool.onWorkerThread());
    std::atomic<int> leaves{0};
    pool.parallelFor(2, [&](int64_t) {
        EXPECT_TRUE(pool.onWorkerThread());
        pool.parallelFor(2, [&](int64_t) { ++leaves; });
    });
    EXPECT_EQ(leaves.load(), 4);

    // Nested dispatch from a task submitted onto a size-1 pool: the
    // lone worker must run the inner range itself.
    engine::ThreadPool one(1);
    std::atomic<int> inner{0};
    auto future = one.submit(
        [&] { one.parallelFor(4, [&](int64_t) { ++inner; }); });
    future.get();
    EXPECT_EQ(inner.load(), 4);

    // A different pool's worker is NOT this pool's worker: nesting
    // across pools still fans out (and must not false-positive).
    std::atomic<int> cross{0};
    one.submit([&] {
           EXPECT_FALSE(pool.onWorkerThread());
           pool.parallelFor(8, [&](int64_t) { ++cross; });
       }).get();
    EXPECT_EQ(cross.load(), 8);

    // Exceptions still propagate through the caller-runs path.
    EXPECT_THROW(pool.parallelFor(2,
                                  [&](int64_t) {
                                      pool.parallelFor(
                                          2, [](int64_t i) {
                                              if (i == 1) {
                                                  throw UserError(
                                                      "nested boom");
                                              }
                                          });
                                  }),
                 UserError);
}

/** The CPUs the calling thread may run on, ascending. */
std::vector<int>
threadCpus()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    EXPECT_EQ(::pthread_getaffinity_np(::pthread_self(), sizeof mask, &mask),
              0);
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &mask)) {
            cpus.push_back(cpu);
        }
    }
    return cpus;
}

// Worker i of a pool runs on the (i mod n)-th of the n CPUs the
// constructing thread may use. Each task holds its worker until every
// worker holds one, so each worker reports its mask exactly once.
TEST(ThreadPool, PinsWorkersOnePerCpuRoundRobin)
{
    const std::vector<int> allowed = threadCpus();
    ASSERT_FALSE(allowed.empty());
    const int n = static_cast<int>(allowed.size());
    for (int workers : {1, n, n + 1, 2 * n + 1}) {
        SCOPED_TRACE("workers = " + std::to_string(workers));
        engine::ThreadPool pool(workers);
        EXPECT_EQ(pool.unpinnedWorkers(), 0);
        std::mutex mu;
        std::condition_variable cv;
        int started = 0;
        std::vector<std::vector<int>> masks(workers);
        std::vector<std::future<void>> done;
        for (int t = 0; t < workers; ++t) {
            done.push_back(pool.submit([&, t] {
                std::unique_lock<std::mutex> lock(mu);
                masks[t] = threadCpus();
                ++started;
                cv.notify_all();
                cv.wait(lock, [&] { return started == workers; });
            }));
        }
        for (std::future<void> &task : done) {
            task.get();
        }
        std::map<int, int> per_cpu;
        for (const std::vector<int> &mask : masks) {
            ASSERT_EQ(mask.size(), 1u);
            ++per_cpu[mask[0]];
        }
        std::map<int, int> expected;
        for (int i = 0; i < workers; ++i) {
            ++expected[allowed[i % n]];
        }
        EXPECT_EQ(per_cpu, expected);
    }
}

// ---------------------------------------------------------------------
// Task-graph error handling
// ---------------------------------------------------------------------

/**
 * f(n, out): for i in [0, n): out[0] = out[0] + 1 — a unit whose
 * completion shows as out[0] == n, and which faults on an empty out.
 */
ir::PrimFunc
countFunc()
{
    auto func = ir::primFunc("count");
    ir::Var n = ir::var("n");
    ir::Var i = ir::var("i");
    ir::Buffer out =
        ir::denseBuffer("out", {ir::intImm(1)}, ir::DataType::float32());
    func->params = {n, out->data};
    func->bufferMap.emplace_back(out->data, out);
    func->body = ir::forLoop(
        i, ir::intImm(0), n,
        ir::bufferStore(out, {ir::intImm(0)},
                        ir::add(ir::bufferLoad(out, {ir::intImm(0)}),
                                ir::floatImm(1.0))));
    func->stage = ir::IrStage::kStage3;
    return func;
}

TEST(Executor, ThrowingUnitFinishesInFlightAndStartsNothingLater)
{
    // Unit 0 is long, unit 1 faults at once, unit 2 waits on unit 0.
    // Unit 0 always starts first (the ready set hands out the earliest
    // unit), so it is in flight when unit 1 throws: it must finish,
    // unit 2 must never start, and unit 1's error must reach the
    // caller.
    engine::CompiledKernel kernel = engine::compileKernel(countFunc());
    NDArray slow({1}, ir::DataType::float32());
    NDArray bad({0}, ir::DataType::float32());
    NDArray later({1}, ir::DataType::float32());
    constexpr int64_t kSlowIterations = 4000000;
    runtime::Bindings slow_bind{{{"out_data", &slow}},
                                {{"n", kSlowIterations}}};
    runtime::Bindings bad_bind{{{"out_data", &bad}}, {{"n", 1}}};
    runtime::Bindings later_bind{{{"out_data", &later}}, {{"n", 1}}};
    std::vector<const runtime::Bindings *> requests{
        &slow_bind, &bad_bind, &later_bind};

    engine::TaskGraph graph;
    graph.kernels = {&kernel};
    graph.numRequests = 3;
    for (int r = 0; r < 3; ++r) {
        engine::TaskGraph::Unit unit;
        unit.request = r;
        graph.units.push_back(unit);
    }
    graph.units[2].after = {0};

    engine::ParallelExecutor executor(
        std::make_shared<engine::ThreadPool>(2));
    EXPECT_THROW(executor.runTaskGraph(graph, requests), InternalError);
    EXPECT_EQ(slow.floatAt(0), static_cast<double>(kSlowIterations))
        << "the in-flight unit did not finish";
    EXPECT_EQ(later.floatAt(0), 0.0) << "a later unit started";
}

} // namespace
} // namespace sparsetir
