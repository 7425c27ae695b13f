/**
 * @file
 * Task-graph dispatch: bitwise equality of the parallel schedule
 * against the serial oracle on hyb SpMM (single and batched, cold
 * and warm) and RGCN; the shape of
 * built TaskGraphs (one unit per request for a full batch,
 * hull-ordered chunks for a single request, split-row kernels split
 * on every backend); no scratch on any hyb dispatch; and determinism
 * under contention — many threads hammering one shared session must
 * produce bit-identical results from exactly one compile, without
 * ever probing the launch grid through the interpreter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "engine/engine.h"
#include "graph/generator.h"
#include "observe/trace.h"
#include "runtime/native/native_compiler.h"
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

// Every native engine and module here (SPARSETIR_NATIVE=1 included)
// keeps its .so files in a per-process directory removed at exit.
[[maybe_unused]] const bool kNativeCacheIsolated =
    testutil::isolateNativeCacheDir("/tmp/sparsetir-fused-native-");

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
    // (duplicate scatter rows) in the widest one.
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

    // Warm batch into the outputs it just wrote: the dispatch zeroes
    // them first, so nothing accumulates twice.
    auto info = fused_eng.spmmHybBatch(a, feat, fused_requests, config);
    EXPECT_TRUE(info.cacheHit);
    for (int i = 0; i < kRequests; ++i) {
        EXPECT_TRUE(bitwiseEqual(expected[i], fused_c[i]))
            << "fused warm batch request " << i << " diverged";
    }
}

// ---------------------------------------------------------------------
// Split-row kernels
// ---------------------------------------------------------------------

TEST(EngineFused, AllRowsSplitKernelMatchesSerial)
{
    // Cap the bucket width at 1 on a matrix whose every row has
    // several entries: all rows split into multiple width-1 ELL rows,
    // so the decomposition is a SINGLE kernel whose scatter rows
    // repeat, and whose chunks overlap wherever a cut lands inside a
    // repeated row.
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

    Engine parallel = makeEngine(runtime::Backend::kBytecode, true, 4,
                                 /*min_chunk=*/1);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    parallel.spmmHyb(a, feat, &b, &c, config);
    EXPECT_TRUE(bitwiseEqual(expected, c));

    // Batched: the kernel still runs once per request, concurrently
    // ACROSS requests (disjoint outputs).
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
    parallel.spmmHybBatch(a, feat, requests, config);
    for (int i = 0; i < kRequests; ++i) {
        NDArray want({a.rows * feat}, ir::DataType::float32());
        serial.spmmHyb(a, feat, &bs[i], &want, config);
        EXPECT_TRUE(bitwiseEqual(want, cs[i]))
            << "split-row batch request " << i << " diverged";
    }
}

// ---------------------------------------------------------------------
// TaskGraph structure
// ---------------------------------------------------------------------

/**
 * The hyb bucket kernels of a matrix, with the block hulls of their C
 * rows attached as the engine attaches them, plus bindings for them.
 */
struct HybPlanFixture
{
    Csr a;
    int64_t feat;
    format::Hyb hyb;
    std::vector<engine::CompiledKernel> kernels;
    std::shared_ptr<core::BindingSet> bindings =
        std::make_shared<core::BindingSet>();
    NDArray b;

    HybPlanFixture(Csr matrix, int64_t feat_size, int cap_log2)
        : a(std::move(matrix)), feat(feat_size),
          hyb(format::hybFromCsr(a, 1, cap_log2)),
          b(NDArray::fromFloat(randomVector(a.cols * feat, 5)))
    {
        for (const auto &plan : core::compileSpmmHybFuncs(hyb, feat)) {
            const format::Ell &ell =
                hyb.buckets[plan.partition][plan.bucket];
            engine::CompiledKernel kernel =
                engine::compileKernel(plan.func);
            for (engine::AccumOutput &out : kernel.accums) {
                out.hulls = engine::blockHulls(ell.rowIndices,
                                               plan.rowsPerBlock, feat);
            }
            kernels.push_back(std::move(kernel));
        }
        bindings->external("B_data", &b);
        // Binds the bucket arrays and scalars into `bindings`.
        (void)core::compileSpmmHyb(a, feat, 1, cap_log2, bindings);
    }

    std::vector<const engine::CompiledKernel *>
    pointers() const
    {
        std::vector<const engine::CompiledKernel *> out;
        for (const engine::CompiledKernel &kernel : kernels) {
            out.push_back(&kernel);
        }
        return out;
    }

    /** Bindings of a request writing `c`. */
    runtime::Bindings
    request(NDArray *c) const
    {
        runtime::Bindings view = bindings->view();
        view.arrays["C_data"] = c;
        return view;
    }

    /** Element hull of a unit's blocks on C. */
    engine::Span
    hullOf(const engine::TaskGraph::Unit &unit) const
    {
        const std::vector<engine::Span> &hulls =
            kernels[unit.kernel].accums.at(0).hulls;
        int64_t end = unit.blockEnd < 0
                          ? static_cast<int64_t>(hulls.size())
                          : unit.blockEnd;
        return {hulls[unit.blockBegin].first, hulls[end - 1].second};
    }
};

/** Row i has (i % 8) + 1 entries: every bucket spans all rows. */
Csr
cyclicRowsCsr(int64_t rows, int64_t cols)
{
    Csr a;
    a.rows = rows;
    a.cols = cols;
    a.indptr.push_back(0);
    for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = 0; j <= i % 8; ++j) {
            a.indices.push_back(static_cast<int32_t>((i * 7 + j) % cols));
            a.values.push_back(0.25f * static_cast<float>(j + 1));
        }
        a.indptr.push_back(static_cast<int32_t>(a.indices.size()));
    }
    return a;
}

bool
overlap(const engine::Span &x, const engine::Span &y)
{
    return x.first < y.second && y.first < x.second;
}

TEST(EngineFused, FullBatchPlansOneUnitPerRequest)
{
    HybPlanFixture fx(cyclicRowsCsr(400, 64), 4, 3);
    ASSERT_GE(fx.kernels.size(), 3u);
    std::vector<NDArray> cs;
    for (int r = 0; r < 4; ++r) {
        cs.emplace_back(std::vector<int64_t>{fx.a.rows * fx.feat},
                        ir::DataType::float32());
    }
    std::vector<runtime::Bindings> views;
    for (NDArray &c : cs) {
        views.push_back(fx.request(&c));
    }
    std::vector<const runtime::Bindings *> requests;
    for (const runtime::Bindings &view : views) {
        requests.push_back(&view);
    }

    engine::ParallelExecutor executor(
        std::make_shared<engine::ThreadPool>(4));
    engine::ExecOptions options;
    options.minBlocksPerChunk = 1;
    engine::TaskGraph graph =
        executor.buildTaskGraph(fx.pointers(), requests, options);
    // Unit r is request r over the whole kernel list, unsplit: the
    // serial order of that request, waiting on no other request.
    ASSERT_EQ(graph.units.size(), requests.size());
    for (size_t r = 0; r < graph.units.size(); ++r) {
        const engine::TaskGraph::Unit &unit = graph.units[r];
        EXPECT_EQ(unit.request, static_cast<int>(r));
        EXPECT_EQ(unit.kernel, 0);
        EXPECT_EQ(unit.kernelEnd, static_cast<int>(fx.kernels.size()));
        EXPECT_EQ(unit.blockEnd, -1) << "a full batch split a kernel";
        EXPECT_TRUE(unit.after.empty()) << "unit " << r << " waits";
    }
}

TEST(EngineFused, UnevenFullBatchesMatchSerialOnEveryBackend)
{
    // More requests than workers, not a multiple of them: each worker
    // takes request units off the ready set until none is left.
    Csr a = graph::powerLawGraph(250, 3000, 1.8, 57);
    int64_t feat = 8;
    engine::HybConfig config;
    config.partitions = 2;
    Engine serial = makeEngine(runtime::Backend::kInterpreter,
                               /*parallel=*/false, 1);

    struct Shape
    {
        int requests;
        int workers;
    };
    for (Shape shape : {Shape{3, 2}, Shape{5, 4}}) {
        std::vector<NDArray> bs;
        std::vector<NDArray> expected;
        for (int i = 0; i < shape.requests; ++i) {
            bs.push_back(NDArray::fromFloat(
                randomVector(a.cols * feat, 120 + i)));
            expected.emplace_back(std::vector<int64_t>{a.rows * feat},
                                  ir::DataType::float32());
            serial.spmmHyb(a, feat, &bs[i], &expected[i], config);
        }
        for (runtime::Backend backend :
             {runtime::Backend::kInterpreter, runtime::Backend::kBytecode,
              runtime::Backend::kNative}) {
            EngineOptions options;
            options.backend = backend;
            options.numThreads = shape.workers;
            options.nativePromoteAfter = 0;  // native from the first resolve
            Engine eng(options);
            std::vector<NDArray> cs;
            for (int i = 0; i < shape.requests; ++i) {
                cs.emplace_back(std::vector<int64_t>{a.rows * feat},
                                ir::DataType::float32());
            }
            std::vector<SpmmRequest> requests;
            for (int i = 0; i < shape.requests; ++i) {
                requests.push_back(SpmmRequest{&bs[i], &cs[i]});
            }
            auto info = eng.spmmHybBatch(a, feat, requests, config);
            ASSERT_GE(info.numKernels, 3);
            for (int i = 0; i < shape.requests; ++i) {
                EXPECT_TRUE(bitwiseEqual(expected[i], cs[i]))
                    << shape.requests << " requests on " << shape.workers
                    << " workers, backend " << static_cast<int>(backend)
                    << ": request " << i << " diverged";
            }
            if (backend == runtime::Backend::kNative) {
                EXPECT_GT(eng.nativeStats().compiles +
                              eng.nativeStats().diskHits,
                          0u);
                EXPECT_EQ(eng.nativeStats().fallbacks, 0u);
                EXPECT_EQ(eng.nativeStats().guardMisses, 0u);
            }
        }
    }
}

TEST(EngineFused, FaultPartwayThroughARequestRaisesTheSerialDiagnostic)
{
    // Request 2 of a full batch misses the values of its third bucket
    // kernel: its first two kernels run, the third faults.
    HybPlanFixture fx(cyclicRowsCsr(400, 64), 4, 3);
    ASSERT_GE(fx.kernels.size(), 3u);
    std::string suffix =
        core::compileSpmmHybFuncs(fx.hyb, fx.feat)[2].suffix;
    std::string missing = core::hybValuesParam(suffix);
    ASSERT_EQ(fx.bindings->view().arrays.count(missing), 1u);

    for (engine::CompiledKernel &kernel : fx.kernels) {
        auto native =
            runtime::native::compileNative(kernel.func, "fault-chain");
        ASSERT_NE(native, nullptr);
        kernel.native->set(std::move(native));
    }

    constexpr int kRequests = 4;
    engine::ParallelExecutor executor(
        std::make_shared<engine::ThreadPool>(kRequests));
    for (runtime::Backend backend :
         {runtime::Backend::kInterpreter, runtime::Backend::kBytecode,
          runtime::Backend::kNative}) {
        std::vector<NDArray> cs;
        for (int r = 0; r < kRequests; ++r) {
            cs.emplace_back(std::vector<int64_t>{fx.a.rows * fx.feat},
                            ir::DataType::float32());
        }
        std::vector<runtime::Bindings> views;
        for (NDArray &c : cs) {
            views.push_back(fx.request(&c));
        }
        views[2].arrays.erase(missing);
        std::vector<const runtime::Bindings *> requests;
        for (const runtime::Bindings &view : views) {
            requests.push_back(&view);
        }
        engine::ExecOptions options;
        options.backend = backend;
        engine::ExecOptions serial = options;
        serial.parallel = false;

        // Each path raises one error; the parallel one is the serial
        // one, word for word.
        auto diagnostics = [&](const engine::ExecOptions &exec) {
            std::vector<std::string> raised;
            try {
                executor.run(fx.pointers(), requests, exec);
            } catch (const std::exception &e) {
                raised.push_back(e.what());
            }
            return raised;
        };
        std::vector<std::string> want = diagnostics(serial);
        ASSERT_EQ(want.size(), 1u) << "the serial path did not fault";
        EXPECT_NE(want[0].find("no storage bound for buffer 'A_ell_" +
                               suffix),
                  std::string::npos)
            << want[0];
        EXPECT_EQ(diagnostics(options), want)
            << "backend " << static_cast<int>(backend);

        // The executor serves a valid batch afterwards, bitwise.
        views[2] = fx.request(&cs[2]);
        std::vector<NDArray> expected;
        for (int r = 0; r < kRequests; ++r) {
            expected.emplace_back(
                std::vector<int64_t>{fx.a.rows * fx.feat},
                ir::DataType::float32());
            cs[r].zero();
        }
        std::vector<runtime::Bindings> serial_views;
        for (NDArray &want_c : expected) {
            serial_views.push_back(fx.request(&want_c));
        }
        std::vector<const runtime::Bindings *> serial_requests;
        for (const runtime::Bindings &view : serial_views) {
            serial_requests.push_back(&view);
        }
        executor.run(fx.pointers(), serial_requests, serial);
        executor.run(fx.pointers(), requests, options);
        for (int r = 0; r < kRequests; ++r) {
            EXPECT_TRUE(bitwiseEqual(expected[r], cs[r]))
                << "backend " << static_cast<int>(backend)
                << ": request " << r << " diverged after the fault";
        }
    }
}

TEST(EngineFused, SingleRequestSplitsKernelsWithEdgesOnlyAtOverlaps)
{
    HybPlanFixture fx(cyclicRowsCsr(400, 64), 4, 3);
    ASSERT_GE(fx.kernels.size(), 3u);
    NDArray c({fx.a.rows * fx.feat}, ir::DataType::float32());
    runtime::Bindings view = fx.request(&c);
    std::vector<const runtime::Bindings *> requests{&view};

    engine::ParallelExecutor executor(
        std::make_shared<engine::ThreadPool>(2));
    engine::ExecOptions options;
    options.minBlocksPerChunk = 1;
    engine::TaskGraph graph =
        executor.buildTaskGraph(fx.pointers(), requests, options);

    // Every accumulating kernel is cut into >= 2 chunks that tile its
    // grid in order.
    std::vector<int> chunks(fx.kernels.size(), 0);
    std::vector<int64_t> next_block(fx.kernels.size(), 0);
    for (const engine::TaskGraph::Unit &unit : graph.units) {
        ++chunks[unit.kernel];
        EXPECT_EQ(unit.blockBegin, next_block[unit.kernel]);
        ASSERT_GT(unit.blockEnd, unit.blockBegin);
        next_block[unit.kernel] = unit.blockEnd;
    }
    for (size_t k = 0; k < fx.kernels.size(); ++k) {
        EXPECT_GE(chunks[k], 2) << "kernel " << k << " was not split";
        EXPECT_EQ(next_block[k],
                  static_cast<int64_t>(
                      fx.kernels[k].accums.at(0).hulls.size()));
    }

    // Edges exactly where hulls overlap, always to earlier units.
    int independent_pairs = 0;
    for (size_t u = 0; u < graph.units.size(); ++u) {
        const std::vector<int> &after = graph.units[u].after;
        for (size_t v = 0; v < u; ++v) {
            bool edge =
                std::find(after.begin(), after.end(),
                          static_cast<int>(v)) != after.end();
            bool conflict = overlap(fx.hullOf(graph.units[u]),
                                    fx.hullOf(graph.units[v]));
            EXPECT_EQ(edge, conflict) << "units " << v << " -> " << u;
            independent_pairs += conflict ? 0 : 1;
        }
    }
    EXPECT_GT(independent_pairs, 0) << "the plan is one chain";

    // And it runs bitwise equal to the serial oracle.
    NDArray expected({fx.a.rows * fx.feat}, ir::DataType::float32());
    runtime::Bindings serial_view = fx.request(&expected);
    engine::ExecOptions serial = options;
    serial.parallel = false;
    executor.run(fx.pointers(), {&serial_view}, serial);
    executor.runTaskGraph(graph, requests, options);
    EXPECT_TRUE(bitwiseEqual(expected, c));
}

TEST(EngineFused, DuplicateRowBucketRunsSplitOnEveryBackend)
{
    // Width cap 2 on rows of up to 8 entries: the widest bucket
    // stores long rows as several consecutive ELL rows.
    HybPlanFixture fx(cyclicRowsCsr(400, 64), 4, 1);
    const engine::CompiledKernel *dup = nullptr;
    int dup_index = -1;
    for (size_t p = 0, k = 0; p < fx.hyb.buckets[0].size(); ++p) {
        const format::Ell &ell = fx.hyb.buckets[0][p];
        if (ell.numRows() == 0) {
            continue;
        }
        if (std::adjacent_find(ell.rowIndices.begin(),
                               ell.rowIndices.end()) !=
            ell.rowIndices.end()) {
            dup = &fx.kernels[k];
            dup_index = static_cast<int>(k);
        }
        ++k;
    }
    ASSERT_NE(dup, nullptr) << "fixture has no split rows";

    for (engine::CompiledKernel &kernel : fx.kernels) {
        auto native = runtime::native::compileNative(kernel.func,
                                                     "dup-rows");
        ASSERT_NE(native, nullptr);
        kernel.native->set(std::move(native));
    }

    NDArray expected({fx.a.rows * fx.feat}, ir::DataType::float32());
    runtime::Bindings serial_view = fx.request(&expected);
    engine::ParallelExecutor executor(
        std::make_shared<engine::ThreadPool>(4));
    engine::ExecOptions serial;
    serial.parallel = false;
    serial.backend = runtime::Backend::kInterpreter;
    executor.run(fx.pointers(), {&serial_view}, serial);

    for (runtime::Backend backend :
         {runtime::Backend::kInterpreter, runtime::Backend::kBytecode,
          runtime::Backend::kNative}) {
        NDArray c({fx.a.rows * fx.feat}, ir::DataType::float32());
        runtime::Bindings view = fx.request(&c);
        std::vector<const runtime::Bindings *> requests{&view};
        engine::ExecOptions options;
        options.minBlocksPerChunk = 1;
        options.backend = backend;
        engine::TaskGraph graph =
            executor.buildTaskGraph(fx.pointers(), requests, options);
        int dup_units = 0;
        for (const engine::TaskGraph::Unit &unit : graph.units) {
            dup_units += unit.kernel == dup_index ? 1 : 0;
        }
        EXPECT_GE(dup_units, 2) << "the split-row kernel ran whole";
        executor.runTaskGraph(graph, requests, options);
        EXPECT_TRUE(bitwiseEqual(expected, c))
            << "backend " << static_cast<int>(backend);
    }
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
    ASSERT_TRUE(kernel.accums.empty());
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
        EXPECT_EQ(graph.units.size(), static_cast<size_t>(shape.chunks))
            << shape.workers << " workers, minChunk " << shape.minChunk;
        int64_t cursor = 0;
        for (const engine::TaskGraph::Unit &unit : graph.units) {
            EXPECT_TRUE(unit.after.empty()) << "overwrite chunks wait";
            if (shape.chunks > 1) {
                EXPECT_EQ(unit.blockBegin, cursor);
                cursor = unit.blockEnd;
            }
        }
        if (shape.chunks == 1) {
            EXPECT_EQ(graph.units[0].blockEnd, -1) << "unsplit unit";
        } else {
            EXPECT_EQ(cursor, 64);
        }
    }
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
        EXPECT_EQ(eng.scratchStats().leases, leases_before)
            << name << ": a full batch leased scratch";
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

TEST(EngineFused, SingleRequestHybLeasesNoScratch)
{
    Csr a = graph::powerLawGraph(300, 4000, 1.8, 103);
    int64_t feat = 8;
    engine::HybConfig config;
    config.partitions = 2;
    NDArray b = NDArray::fromFloat(randomVector(a.cols * feat, 104));

    Engine serial = makeEngine(runtime::Backend::kBytecode,
                               /*parallel=*/false, 1);
    NDArray expected({a.rows * feat}, ir::DataType::float32());
    serial.spmmHyb(a, feat, &b, &expected, config);

    Engine eng = makeEngine(runtime::Backend::kBytecode,
                            /*parallel=*/true, 2, /*min_chunk=*/1);
    NDArray c({a.rows * feat}, ir::DataType::float32());
    eng.spmmHyb(a, feat, &b, &c, config);  // cold: proves the hulls
    EXPECT_TRUE(bitwiseEqual(expected, c));

    // Warm: the proven hulls let the task graph cut the kernels, so
    // more units than kernels run.
    engine::DispatchInfo info;
    size_t units = testutil::countSpans(
        "fused.unit", [&] { info = eng.spmmHyb(a, feat, &b, &c, config); });
    EXPECT_GT(units, static_cast<size_t>(info.numKernels))
        << "hyb kernels ran whole: no proven hulls";
    EXPECT_TRUE(bitwiseEqual(expected, c));
    EXPECT_EQ(eng.scratchStats().leases, 0u);
    EXPECT_EQ(eng.metricsSnapshot().counters.at("scratch.leases"), 0u);
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
    // Hyb dispatch leases no scratch at all.
    EXPECT_EQ(eng.scratchStats().leases, 0u);
}

} // namespace
} // namespace sparsetir
