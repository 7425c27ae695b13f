/**
 * @file
 * Randomized differential fuzzer over the execution engine.
 *
 * Every case generates a random sparse structure (CSR-derived hyb
 * decompositions with random partition/bucket-cap sets — empty rows,
 * singleton shapes, dense rows forcing widest-bucket splits — plus
 * periodic BSR re-blockings and multi-request batches), random feat
 * sizes and worker counts, then asserts bitwise equality against the
 * serial tree-walking interpreter across the full execution matrix:
 *
 *   backend axis:   interpreter vs bytecode VM vs native (.so) tier
 *   schedule axis:  serial vs fused task graph
 *
 * Native engines promote synchronously (nativePromoteAfter = 0), so
 * every native-variant dispatch really runs the dlopen'd kernels; the
 * end-of-run assertions require promotions > 0 and fallbacks == 0 —
 * a native-ineligible kernel shows up as a counted fallback, never a
 * silent skip of the native axis.
 *
 * Periodic cases additionally build a random 2-4-op dataflow graph
 * over the same structure (sddmm-rooted edge chains, aggregate ->
 * update, 2-layer interior-gather stacks that must bail to the
 * chain) and assert fused == per-kernel chain == both backends.
 *
 * Knobs (environment):
 *   FUZZ_CASES  number of cases (default 200 — the tier-1 budget;
 *               CI's fuzz-long job runs 2000)
 *   FUZZ_SEED   base seed (default fixed, so a stock ctest run is
 *               deterministic; accepts 0x-prefixed hex)
 *   FUZZ_CASE   run a single case index (replay of a failure)
 *
 * A failing case prints its seed, index and structure summary plus
 * the exact environment to replay it, e.g.
 *   FUZZ_SEED=0x5eedc0ffee FUZZ_CASE=137 ctest -R test_fuzz
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/pipeline.h"
#include "dfg/lower.h"
#include "dfg/op_graph.h"
#include "engine/engine.h"
#include "format/bsr.h"
#include "format/srbcrs.h"
#include "graph/generator.h"
#include "ir/functor.h"
#include "ir/structural_equal.h"
#include "model/attention.h"
#include "model/graphsage.h"
#include "runtime/interpreter.h"
#include "support/rng.h"
#include "test_util.h"
#include "transform/hoist_invariants.h"

namespace sparsetir {
namespace {

using engine::Engine;
using engine::EngineOptions;
using engine::SpmmRequest;
using format::Csr;
using runtime::NDArray;
using testutil::bitwiseEqual;

constexpr uint64_t kDefaultSeed = 0x5eedc0ffeeULL;
constexpr uint64_t kAllCases = ~0ULL;

uint64_t
envU64(const char *name, uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0') {
        return fallback;
    }
    return std::strtoull(v, nullptr, 0);
}

/** Whether any block under `s` still carries an init. */
bool
hasBlockInit(const ir::Stmt &s)
{
    struct Inits : ir::StmtVisitor
    {
        bool found = false;

        void
        visitBlock(const ir::BlockNode *op) override
        {
            found = found || op->init != nullptr;
            ir::StmtVisitor::visitBlock(op);
        }
    } inits;
    inits.visitStmt(s);
    return inits.found;
}

/** SplitMix64 — decorrelates per-case streams from (seed, index). */
uint64_t
mix(uint64_t seed, uint64_t index)
{
    uint64_t z = seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<float>
randomValues(Rng *rng, int64_t size)
{
    std::vector<float> out(static_cast<size_t>(size));
    for (auto &v : out) {
        v = static_cast<float>(rng->uniformReal() * 2.0 - 1.0);
    }
    return out;
}

/**
 * One execution configuration of the differential matrix. Engines
 * are pooled per configuration across cases (each owns a thread pool
 * and a compile cache; recreating them per case would dominate the
 * fuzz budget and hide cross-structure cache behavior).
 */
struct Config
{
    const char *name;
    runtime::Backend backend;
    bool parallel;
};

class EnginePool
{
  public:
    Engine &
    get(const Config &config, int workers, int64_t min_chunk)
    {
        // Serial engines ignore the parallel-schedule knobs;
        // normalize them out of the key so every serial config maps
        // to ONE engine instead of one per (workers, minChunk)
        // combination, each recompiling the same artifacts.
        if (!config.parallel) {
            workers = 1;
            min_chunk = 0;
        }
        Key key{config.backend, config.parallel, workers, min_chunk};
        auto it = engines_.find(key);
        if (it == engines_.end()) {
            EngineOptions options;
            options.backend = config.backend;
            options.parallel = config.parallel;
            options.numThreads = config.parallel ? workers : 1;
            options.minBlocksPerChunk = min_chunk;
            if (config.backend == runtime::Backend::kNative) {
                // Promote inside the first resolve, so every native
                // dispatch of the matrix actually runs the .so tier
                // (no warm-up hysteresis to fuzz through). Engines
                // share one artifact dir, so each kernel is compiled
                // once and disk-hit by the other native configs.
                testutil::isolateNativeCacheDir(
                    "/tmp/sparsetir-fuzz-native-");
                options.nativePromoteAfter = 0;
            }
            it = engines_
                     .emplace(key,
                              std::make_unique<Engine>(options))
                     .first;
        }
        return *it->second;
    }

    /** Every live native-backend engine (for end-of-run stats). */
    std::vector<Engine *>
    nativeEngines()
    {
        std::vector<Engine *> out;
        for (auto &[key, engine] : engines_) {
            if (std::get<0>(key) == runtime::Backend::kNative) {
                out.push_back(engine.get());
            }
        }
        return out;
    }

  private:
    using Key = std::tuple<runtime::Backend, bool, int, int64_t>;
    std::map<Key, std::unique_ptr<Engine>> engines_;
};

/** The serial interpreter — ground truth for every case. */
constexpr Config kReference = {"serial interpreter",
                               runtime::Backend::kInterpreter, false};

/** The differential matrix: all three backends x the two schedule
 * shapes (serial / fused task graph), the reference excepted. */
constexpr Config kVariants[] = {
    {"serial bytecode", runtime::Backend::kBytecode, false},
    {"fused interpreter", runtime::Backend::kInterpreter, true},
    {"fused bytecode", runtime::Backend::kBytecode, true},
    {"serial native", runtime::Backend::kNative, false},
    {"fused native", runtime::Backend::kNative, true},
};

/** Random structure with deliberate corner-shape injection. */
Csr
randomStructure(Rng *rng, std::string *desc)
{
    std::ostringstream out;
    Csr a;
    switch (rng->uniformInt(4)) {
      case 0: {
        // Uniform random density, empty rows arise naturally.
        int64_t rows = rng->uniformRange(1, 40);
        int64_t cols = rng->uniformRange(1, 40);
        double density = 0.02 + rng->uniformReal() * 0.3;
        std::vector<float> dense(rows * cols, 0.0f);
        for (auto &v : dense) {
            if (rng->uniformReal() < density) {
                v = static_cast<float>(rng->uniformReal() * 2.0 -
                                       1.0);
                if (v == 0.0f) {
                    v = 0.25f;
                }
            }
        }
        a = format::csrFromDense(rows, cols, dense);
        out << "uniform rows=" << rows << " cols=" << cols;
        break;
      }
      case 1: {
        // Heavy-tailed degrees: diverse bucket sets, split rows.
        int64_t nodes = rng->uniformRange(4, 60);
        int64_t edges =
            nodes * rng->uniformRange(1, 8) + rng->uniformRange(0, 8);
        a = graph::powerLawGraph(nodes, edges, 1.5 +
                                                   rng->uniformReal(),
                                 rng->next());
        out << "powerlaw nodes=" << nodes;
        break;
      }
      case 2: {
        // Singleton-ish shapes: one row, one column, or 1x1.
        if (rng->uniformInt(2) == 0) {
            int64_t cols = rng->uniformRange(1, 24);
            std::vector<float> dense(cols, 0.0f);
            for (auto &v : dense) {
                if (rng->uniformReal() < 0.5) {
                    v = 1.0f + static_cast<float>(rng->uniformReal());
                }
            }
            a = format::csrFromDense(1, cols, dense);
            out << "single-row cols=" << cols;
        } else {
            int64_t rows = rng->uniformRange(1, 24);
            std::vector<float> dense(rows, 0.0f);
            for (auto &v : dense) {
                if (rng->uniformReal() < 0.5) {
                    v = 1.0f + static_cast<float>(rng->uniformReal());
                }
            }
            a = format::csrFromDense(rows, 1, dense);
            out << "single-col rows=" << rows;
        }
        break;
      }
      default: {
        // One dense row over an otherwise empty matrix: the dense
        // row splits across the widest bucket (exclusive kernel)
        // while every other row is a zero row.
        int64_t rows = rng->uniformRange(2, 24);
        int64_t cols = rng->uniformRange(2, 32);
        std::vector<float> dense(rows * cols, 0.0f);
        int64_t dense_row = rng->uniformRange(0, rows - 1);
        for (int64_t j = 0; j < cols; ++j) {
            dense[dense_row * cols + j] =
                static_cast<float>(rng->uniformReal() * 2.0 - 1.0);
            if (dense[dense_row * cols + j] == 0.0f) {
                dense[dense_row * cols + j] = -0.75f;
            }
        }
        a = format::csrFromDense(rows, cols, dense);
        out << "dense-row rows=" << rows << " cols=" << cols;
        break;
      }
    }
    // The hyb pipeline (correctly) rejects all-zero matrices; pin one
    // entry so every generated case dispatches.
    if (a.nnz() == 0) {
        std::vector<float> dense(a.rows * a.cols, 0.0f);
        dense[rng->uniformInt(static_cast<uint64_t>(a.rows *
                                                    a.cols))] = 1.0f;
        a = format::csrFromDense(a.rows, a.cols, dense);
        out << " +pinned-nnz";
    }
    int64_t empty_rows = 0;
    for (int64_t r = 0; r < a.rows; ++r) {
        if (a.rowLength(r) == 0) {
            ++empty_rows;
        }
    }
    out << " nnz=" << a.nnz() << " empty_rows=" << empty_rows;
    *desc = out.str();
    return a;
}

struct CaseParams
{
    int64_t feat = 0;
    engine::HybConfig config;
    int workers = 0;
    int64_t minChunk = 0;
};

CaseParams
randomParams(Rng *rng)
{
    constexpr int64_t kFeats[] = {1, 2, 3, 4, 5, 8, 16};
    constexpr int kWorkers[] = {2, 4, 8};
    constexpr int64_t kMinChunks[] = {1, 4};
    CaseParams params;
    params.feat = kFeats[rng->uniformInt(7)];
    params.config.partitions =
        static_cast<int>(rng->uniformRange(1, 3));
    params.config.bucketCapLog2 =
        static_cast<int>(rng->uniformRange(-1, 2));
    params.workers = kWorkers[rng->uniformInt(3)];
    params.minChunk = kMinChunks[rng->uniformInt(2)];
    return params;
}

std::string
describe(uint64_t seed, uint64_t index, const std::string &structure,
         const CaseParams &params)
{
    std::ostringstream out;
    out << "case " << index << " [" << structure
        << " feat=" << params.feat
        << " partitions=" << params.config.partitions
        << " cap=" << params.config.bucketCapLog2
        << " workers=" << params.workers
        << " minChunk=" << params.minChunk << "]  replay: FUZZ_SEED=0x"
        << std::hex << seed << std::dec << " FUZZ_CASE=" << index
        << " ctest -R test_fuzz_differential";
    return out.str();
}

/** Hyb SpMM: the full 3-backend x 2-schedule differential. */
void
runHybCase(EnginePool *pool, const Csr &a, const CaseParams &params,
           Rng *rng, const std::string &what)
{
    NDArray b = NDArray::fromFloat(
        randomValues(rng, a.cols * params.feat));
    NDArray expected({a.rows * params.feat}, ir::DataType::float32());
    pool->get(kReference, params.workers, params.minChunk)
        .spmmHyb(a, params.feat, &b, &expected, params.config);

    for (const Config &variant : kVariants) {
        Engine &eng =
            pool->get(variant, params.workers, params.minChunk);
        NDArray c({a.rows * params.feat}, ir::DataType::float32());
        eng.spmmHyb(a, params.feat, &b, &c, params.config);
        ASSERT_TRUE(bitwiseEqual(expected, c))
            << variant.name << " diverged on hyb " << what;
    }
}

/** Batched hyb: per-request equality across the whole matrix. */
void
runBatchCase(EnginePool *pool, const Csr &a, const CaseParams &params,
             Rng *rng, const std::string &what)
{
    int requests = static_cast<int>(rng->uniformRange(2, 4));
    std::vector<NDArray> b;
    std::vector<NDArray> expected;
    for (int i = 0; i < requests; ++i) {
        b.push_back(NDArray::fromFloat(
            randomValues(rng, a.cols * params.feat)));
        expected.emplace_back(
            std::vector<int64_t>{a.rows * params.feat},
            ir::DataType::float32());
        pool->get(kReference, params.workers, params.minChunk)
            .spmmHyb(a, params.feat, &b[i], &expected[i],
                     params.config);
    }
    for (const Config &variant : kVariants) {
        Engine &eng =
            pool->get(variant, params.workers, params.minChunk);
        std::vector<NDArray> c;
        std::vector<SpmmRequest> views;
        for (int i = 0; i < requests; ++i) {
            c.emplace_back(std::vector<int64_t>{a.rows * params.feat},
                           ir::DataType::float32());
        }
        for (int i = 0; i < requests; ++i) {
            views.push_back(SpmmRequest{&b[i], &c[i]});
        }
        eng.spmmHybBatch(a, params.feat, views, params.config);
        for (int i = 0; i < requests; ++i) {
            ASSERT_TRUE(bitwiseEqual(expected[i], c[i]))
                << variant.name << " diverged on batched hyb request "
                << i << "/" << requests << " " << what;
        }
    }
}

/** BSR re-blocking: backend x schedule differential on one kernel. */
void
runBsrCase(EnginePool *pool, const Csr &a, const CaseParams &params,
           Rng *rng, const std::string &what)
{
    constexpr int32_t kBlocks[] = {2, 4, 8};
    format::Bsr bsr =
        format::bsrFromCsr(a, kBlocks[rng->uniformInt(3)]);
    if (bsr.nnzBlocks() == 0) {
        return;
    }
    int64_t b_size = bsr.blockCols * bsr.blockSize * params.feat;
    int64_t c_size = bsr.blockRows * bsr.blockSize * params.feat;
    NDArray b = NDArray::fromFloat(randomValues(rng, b_size));
    NDArray expected({c_size}, ir::DataType::float32());
    pool->get(kReference, params.workers, params.minChunk)
        .spmmBsr(bsr, params.feat, &b, &expected);

    for (const Config &variant : kVariants) {
        Engine &eng =
            pool->get(variant, params.workers, params.minChunk);
        NDArray c({c_size}, ir::DataType::float32());
        eng.spmmBsr(bsr, params.feat, &b, &c);
        ASSERT_TRUE(bitwiseEqual(expected, c))
            << variant.name << " diverged on bsr(blockSize="
            << bsr.blockSize << ") " << what;
    }
}

/**
 * Random 2-4-op dataflow-graph chain: fused vs per-kernel chain vs
 * both backends, all bitwise against the serial-interpreter chain.
 * Chains either start at sddmm and walk edge-space ops (scale, relu,
 * masked softmax) with an optional closing spmm, run
 * aggregate -> update, or (on square patterns) stack TWO aggregate ->
 * update layers so a gather op consumes an interior value — the shape
 * fusion must refuse, exercising the silent bail-to-chain path under
 * fuse=true. Every engine in the pool verifies artifacts, so the
 * random structures also soak the graph-program prover.
 */
void
runGraphCase(EnginePool *pool, const Csr &a, const CaseParams &params,
             Rng *rng, const std::string &what)
{
    dfg::PatternRef pattern = dfg::SparsityPattern::fromCsr(a);
    int64_t feat = params.feat;
    std::map<std::string, NDArray> inputs;
    dfg::OpGraph graph;
    std::ostringstream shape;
    int64_t out_numel = 0;
    int expect_chain_kernels = 0;

    uint64_t kind = rng->uniformInt(a.rows == a.cols ? 3 : 2);
    if (kind == 2) {
        // Layer 2's aggregate gathers layer 1's interior result
        // across rows; dfg::fusible must bail and both fuse modes
        // must dispatch the identical 4-kernel chain.
        int64_t fmid = rng->uniformRange(1, 6);
        int64_t fout = rng->uniformRange(1, 6);
        inputs.emplace("x", NDArray::fromFloat(
                                randomValues(rng, a.cols * feat)));
        inputs.emplace("w1", NDArray::fromFloat(
                                 randomValues(rng, feat * fmid)));
        inputs.emplace("w2", NDArray::fromFloat(
                                 randomValues(rng, fmid * fout)));
        int x = graph.denseInput("x", a.cols, feat);
        int w1 = graph.denseInput("w1", feat, fmid);
        int w2 = graph.denseInput("w2", fmid, fout);
        bool mean = rng->uniformInt(2) == 0;
        int y1 = graph.update(graph.aggregate(pattern, x, mean), w1);
        int y2 = graph.update(graph.aggregate(pattern, y1, mean), w2);
        graph.markOutput(y2, "out");
        out_numel = a.rows * fout;
        expect_chain_kernels = 4;
        shape << "2-layer-" << (mean ? "mean-" : "")
              << "sage(interior-gather)";
    } else if (kind == 0) {
        inputs.emplace("q", NDArray::fromFloat(
                                randomValues(rng, a.rows * feat)));
        inputs.emplace("kt", NDArray::fromFloat(
                                 randomValues(rng, feat * a.cols)));
        int q = graph.denseInput("q", a.rows, feat);
        int kt = graph.denseInput("kt", feat, a.cols);
        int e = graph.sddmm(pattern, q, kt);
        shape << "sddmm";
        int extra = static_cast<int>(rng->uniformRange(0, 2));
        for (int j = 0; j < extra; ++j) {
            switch (rng->uniformInt(3)) {
              case 0:
                e = graph.elementwise(e, dfg::EwiseFn::kScale,
                                      0.5 + rng->uniformReal());
                shape << "+scale";
                break;
              case 1:
                e = graph.elementwise(e, dfg::EwiseFn::kRelu);
                shape << "+relu";
                break;
              default:
                e = graph.maskedSoftmax(e);
                shape << "+softmax";
                break;
            }
        }
        if (rng->uniformInt(2) == 0) {
            inputs.emplace("v", NDArray::fromFloat(
                                    randomValues(rng,
                                                 a.cols * feat)));
            int v = graph.denseInput("v", a.cols, feat);
            e = graph.spmm(e, v);
            out_numel = a.rows * feat;
            shape << "+spmm";
        } else {
            out_numel = a.nnz();
        }
        graph.markOutput(e, "out");
    } else {
        int64_t fout = rng->uniformRange(1, 8);
        inputs.emplace("x", NDArray::fromFloat(
                                randomValues(rng, a.cols * feat)));
        inputs.emplace("w", NDArray::fromFloat(
                                randomValues(rng, feat * fout)));
        int x = graph.denseInput("x", a.cols, feat);
        int w = graph.denseInput("w", feat, fout);
        bool mean = rng->uniformInt(2) == 0;
        int h = graph.aggregate(pattern, x, mean);
        graph.markOutput(graph.update(h, w), "out");
        out_numel = a.rows * fout;
        shape << (mean ? "mean-aggregate" : "aggregate") << "+update";
    }

    if (envU64("FUZZ_VERBOSE", 0) != 0) {
        std::fprintf(stderr, "[fuzz]   dfg %s\n",
                     shape.str().c_str());
    }

    std::map<std::string, NDArray *> io;
    for (auto &[name, array] : inputs) {
        io[name] = &array;
    }
    NDArray expected({out_numel}, ir::DataType::float32());
    io["out"] = &expected;
    engine::GraphDispatchOptions chain_opts;
    chain_opts.fuse = false;
    pool->get(kReference, params.workers, params.minChunk)
        .dispatchGraph(graph, io, chain_opts);

    for (const Config &variant : kVariants) {
        Engine &eng =
            pool->get(variant, params.workers, params.minChunk);
        for (bool fuse : {false, true}) {
            NDArray c({out_numel}, ir::DataType::float32());
            io["out"] = &c;
            engine::GraphDispatchOptions options;
            options.fuse = fuse;
            auto info = eng.dispatchGraph(graph, io, options);
            if (fuse && expect_chain_kernels > 0) {
                ASSERT_EQ(info.numKernels, expect_chain_kernels)
                    << variant.name
                    << " fused an interior-gather dfg "
                    << shape.str() << " " << what;
            }
            ASSERT_TRUE(bitwiseEqual(expected, c))
                << variant.name << (fuse ? " fused" : " chain")
                << " diverged on dfg " << shape.str() << " " << what;
        }
    }
}

TEST(FuzzDifferential, ThreeWayBitwiseEquality)
{
    uint64_t seed = envU64("FUZZ_SEED", kDefaultSeed);
    uint64_t cases = envU64("FUZZ_CASES", 200);
    uint64_t only = envU64("FUZZ_CASE", kAllCases);
    // A replay index from a long run (FUZZ_CASES > default) must
    // still be reachable without restating FUZZ_CASES.
    uint64_t limit =
        only != kAllCases ? std::max(cases, only + 1) : cases;
    EnginePool pool;

    for (uint64_t i = 0; i < limit; ++i) {
        if (only != kAllCases && i != only) {
            continue;
        }
        Rng rng(mix(seed, i));
        std::string structure;
        Csr a = randomStructure(&rng, &structure);
        CaseParams params = randomParams(&rng);
        std::string what = describe(seed, i, structure, params);
        SCOPED_TRACE(what);
        if (envU64("FUZZ_VERBOSE", 0) != 0) {
            std::fprintf(stderr, "[fuzz] %s\n", what.c_str());
        }

        // An escaping exception (a backend bounds fault, say) is as
        // much a finding as a bitwise divergence — report it with
        // the replay line instead of letting it abort the run
        // caseless.
        try {
            runHybCase(&pool, a, params, &rng, what);
            if (!::testing::Test::HasFatalFailure() && i % 4 == 3) {
                runBatchCase(&pool, a, params, &rng, what);
            }
            if (!::testing::Test::HasFatalFailure() && i % 5 == 4) {
                runBsrCase(&pool, a, params, &rng, what);
            }
            if (!::testing::Test::HasFatalFailure() && i % 3 == 1) {
                runGraphCase(&pool, a, params, &rng, what);
            }
        } catch (const std::exception &e) {
            FAIL() << "exception escaped " << what << "\n  "
                   << e.what();
        }
        if (::testing::Test::HasFatalFailure()) {
            return;
        }
    }

    // The native axis must have actually run on the .so tier: every
    // native engine promoted its artifacts, nothing fell back to
    // bytecode (an ineligible kernel is a counted fallback — the
    // matrix would pass bitwise on the bytecode fallback path, so a
    // silent skip of the native backend has to be unrepresentable).
    for (Engine *eng : pool.nativeEngines()) {
        engine::NativeStats stats = eng->nativeStats();
        EXPECT_GT(stats.promotions, 0u)
            << "a native-variant engine never promoted";
        EXPECT_EQ(stats.fallbacks, 0u)
            << "a fuzz-generated kernel was native-ineligible";
        EXPECT_GT(stats.compiles + stats.diskHits, 0u)
            << "a native-variant engine served zero native kernels";
        // Every kernel is proven, so every native execution passed
        // its entry guard and ran unchecked.
        EXPECT_EQ(stats.guardMisses, 0u)
            << "a proven native kernel refused its own bindings";
    }
}

TEST(FuzzDifferential, HostScheduleMatchesGpuScheduleBitwise)
{
    // The schedule change itself, not a tier: the interpreter runs the
    // GPU-scheduled and the host-scheduled IR of the same buckets,
    // which must add every output element's terms in the same order.
    // The host IR peels its accumulator init out of the reduction
    // (decomposeReduction) and runs on the interpreter and bytecode.
    constexpr int kPartitions[] = {1, 2, 4};
    constexpr int64_t kFeats[] = {1, 8, 32, 37, 48};
    uint64_t seed = envU64("FUZZ_SEED", kDefaultSeed);
    std::vector<std::pair<Csr, std::string>> structures;
    for (uint64_t i = 0; i < 16; ++i) {
        Rng rng(mix(seed, 0x5C4ED + i));
        std::string desc;
        Csr a = randomStructure(&rng, &desc);
        structures.emplace_back(std::move(a), desc);
    }
    // One dense row over a cap-1 bucket set: the row splits into
    // several bucket rows (duplicate row ids in one bucket).
    std::vector<float> dense(6 * 12, 0.0f);
    for (int j = 0; j < 12; ++j) {
        dense[2 * 12 + j] = 0.5f + 0.125f * static_cast<float>(j);
    }
    dense[5 * 12 + 3] = -1.5f;
    structures.emplace_back(format::csrFromDense(6, 12, dense),
                            "dense-row split");

    bool saw_split = false;
    for (const auto &[a, desc] : structures) {
        for (int c : kPartitions) {
            for (int cap : {-1, 1}) {
                for (int64_t feat : kFeats) {
                    Rng rng(mix(seed, static_cast<uint64_t>(feat)));
                    NDArray b = NDArray::fromFloat(
                        randomValues(&rng, a.cols * feat));
                    NDArray out({a.rows * feat}, ir::DataType::float32());
                    auto bindings = std::make_shared<core::BindingSet>();
                    bindings->external("B_data", &b);
                    bindings->external("C_data", &out);
                    core::HybSpmm gpu =
                        core::compileSpmmHyb(a, feat, c, cap, bindings);
                    for (const auto &kernel : gpu.kernels) {
                        kernel->execute();
                    }
                    NDArray expected = out;
                    // Both host schedules; the row-scalar one binds
                    // each bucket's row count, as the engine does.
                    for (core::ScheduleTarget target :
                         {core::ScheduleTarget::kHost,
                          core::ScheduleTarget::kHostRowScalar}) {
                        std::vector<core::HybKernelPlan> host =
                            core::compileSpmmHybFuncs(gpu.hyb, feat, target);
                        for (const auto &plan : host) {
                            bindings->scalar(core::ellRowsParam(plan.suffix),
                                             plan.numRows);
                        }
                        for (runtime::Backend backend :
                             {runtime::Backend::kInterpreter,
                              runtime::Backend::kBytecode}) {
                            out.zero();
                            runtime::RunOptions options;
                            options.backend = backend;
                            for (const auto &plan : host) {
                                ASSERT_FALSE(hasBlockInit(plan.func->body));
                                runtime::run(plan.func, bindings->view(),
                                             options);
                            }
                            ASSERT_TRUE(bitwiseEqual(expected, out))
                                << desc << " c=" << c << " cap=" << cap
                                << " feat=" << feat << " target "
                                << static_cast<int>(target) << " backend "
                                << static_cast<int>(backend);
                        }
                    }
                    for (const auto &bucket_set : gpu.hyb.buckets) {
                        for (const format::Ell &ell : bucket_set) {
                            saw_split |=
                                std::adjacent_find(ell.rowIndices.begin(),
                                                   ell.rowIndices.end()) !=
                                ell.rowIndices.end();
                        }
                    }
                }
            }
        }
    }
    EXPECT_TRUE(saw_split) << "no structure produced a split row";
}

TEST(FuzzDifferential, AllZeroMatrixRejectedOnEveryPath)
{
    // The hyb pipeline refuses a matrix with no non-zeros; serial and
    // fused sessions must agree.
    Csr empty;
    empty.rows = 6;
    empty.cols = 5;
    empty.indptr.assign(7, 0);
    int64_t feat = 4;
    NDArray b = NDArray::fromFloat(
        testutil::randomVector(empty.cols * feat, 3));
    for (bool parallel : {true, false}) {
        EngineOptions options;
        options.parallel = parallel;
        options.numThreads = 2;
        Engine eng(options);
        NDArray c({empty.rows * feat}, ir::DataType::float32());
        EXPECT_THROW(eng.spmmHyb(empty, feat, &b, &c), UserError);
    }
}

TEST(FuzzDifferential, ArtifactsVerifyClean)
{
    // A fuzz-style case's artifacts (hyb buckets + bsr) all carry
    // clean verdicts. Every engine of the main matrix verifies too;
    // this pins the counters so a silently-skipped verifier cannot
    // turn the soak test into a no-op.
    Rng rng(mix(kDefaultSeed, 0x5EED));
    std::string structure;
    Csr a = randomStructure(&rng, &structure);
    CaseParams params = randomParams(&rng);
    EnginePool pool;
    runHybCase(&pool, a, params, &rng, structure);
    runBsrCase(&pool, a, params, &rng, structure);

    Engine &reference =
        pool.get(kReference, params.workers, params.minChunk);
    auto stats = reference.cacheStats();
    EXPECT_GT(stats.verifiedKernels, 0u) << structure;
    EXPECT_EQ(stats.verifyFailures, 0u) << structure;
}

// ---------------------------------------------------------------------
// Hoisting differential: the IR before and after
// transform::hoistInvariants, on the interpreter.
// ---------------------------------------------------------------------

/**
 * Substitutes every LetStmt's value for its variable. dfg::lowerGraph
 * hoists its output, and the dfg producers bind no variables of their
 * own, so this recovers the IR the pass started from.
 */
class LetInliner : public ir::StmtMutator
{
  protected:
    ir::Expr
    mutateVar(const ir::VarNode *op, const ir::Expr &e) override
    {
        auto it = values_.find(op);
        return it != values_.end() ? it->second : e;
    }

    ir::Stmt
    mutateLetStmt(const ir::LetStmtNode *op, const ir::Stmt &s) override
    {
        values_[op->letVar.get()] = mutateExpr(op->value);
        return mutateStmt(op->body);
    }

  private:
    std::map<const ir::VarNode *, ir::Expr> values_;
};

ir::PrimFunc
inlineLets(const ir::PrimFunc &func)
{
    ir::PrimFunc result = ir::copyFunc(func);
    result->body = LetInliner().mutateStmt(func->body);
    return result;
}

/**
 * Runs `funcs` in order on the interpreter, once as given and once
 * hoisted, from the same initial contents of every array, and expects
 * every array bitwise equal afterwards. Arrays `bindings` lacks are
 * sized from their buffer shapes and filled with random values. The
 * pass must also leave each grid extent as it is: warm dispatch
 * evaluates it over the request's scalars.
 */
void
expectHoistingPreservesResults(const std::vector<ir::PrimFunc> &funcs,
                               runtime::Bindings bindings, Rng *rng,
                               const std::string &what)
{
    std::deque<NDArray> owned;
    for (const ir::PrimFunc &func : funcs) {
        for (const ir::Var &param : func->params) {
            if (!param->dtype.isHandle() ||
                bindings.arrays.count(param->name) != 0) {
                continue;
            }
            int64_t numel = 1;
            for (const ir::Expr &dim : func->bufferOf(param)->shape) {
                int64_t extent = 0;
                ASSERT_TRUE(
                    runtime::evalScalarExtent(dim, bindings, &extent))
                    << what << ": shape of " << param->name;
                numel *= extent;
            }
            owned.push_back(NDArray::fromFloat(randomValues(rng, numel)));
            bindings.arrays[param->name] = &owned.back();
        }
    }
    std::map<std::string, NDArray> initial;
    for (const auto &[name, array] : bindings.arrays) {
        initial.emplace(name, *array);
    }
    std::map<std::string, NDArray> unhoisted;
    for (bool hoist : {false, true}) {
        for (const auto &[name, array] : bindings.arrays) {
            *array = initial.at(name);
        }
        for (const ir::PrimFunc &func : funcs) {
            ir::PrimFunc run = func;
            if (hoist) {
                run = transform::hoistInvariants(func);
                const ir::ForNode *grid =
                    runtime::findBlockIdxLoop(func->body);
                const ir::ForNode *hoisted_grid =
                    runtime::findBlockIdxLoop(run->body);
                ASSERT_EQ(grid == nullptr, hoisted_grid == nullptr);
                if (grid != nullptr) {
                    EXPECT_TRUE(ir::structuralEqual(grid->extent,
                                                    hoisted_grid->extent))
                        << what << ": grid extent of " << func->name;
                }
            }
            runtime::runInterpreted(run, bindings);
        }
        for (const auto &[name, array] : bindings.arrays) {
            if (!hoist) {
                unhoisted.emplace(name, *array);
            } else {
                EXPECT_TRUE(bitwiseEqual(unhoisted.at(name), *array))
                    << what << ": array " << name;
            }
        }
    }
}

/** Producer-hoisted IR must already be a fixed point of the pass. */
void
expectFixedPoint(const ir::PrimFunc &func, const std::string &what)
{
    EXPECT_TRUE(ir::structuralEqual(
        func->body, transform::hoistInvariants(func)->body))
        << what << ": " << func->name;
}

/** A dfg lowering, un-hoisted, against itself hoisted. */
void
expectGraphHoistingPreservesResults(const dfg::OpGraph &graph, bool fuse,
                                    Rng *rng, const std::string &what)
{
    dfg::GraphLowering lowering = dfg::lowerGraph(graph, fuse);
    ASSERT_EQ(lowering.fused, fuse) << what;
    std::deque<NDArray> structures;
    runtime::Bindings bindings;
    for (const dfg::StructureBinding &s : lowering.structures) {
        structures.push_back(NDArray::fromInt32(s.pattern->indptr));
        bindings.arrays[s.indptrName] = &structures.back();
        structures.push_back(NDArray::fromInt32(s.pattern->indices));
        bindings.arrays[s.indicesName] = &structures.back();
    }
    std::vector<ir::PrimFunc> unhoisted;
    for (const ir::PrimFunc &func : lowering.funcs) {
        expectFixedPoint(func, what);
        unhoisted.push_back(inlineLets(func));
        // The inlined IR really is what the pass started from.
        EXPECT_TRUE(ir::structuralEqual(
            func->body, transform::hoistInvariants(unhoisted.back())->body))
            << what << ": " << func->name;
    }
    expectHoistingPreservesResults(unhoisted, bindings, rng, what);
}

TEST(FuzzDifferential, HoistedIrMatchesUnhoistedBitwise)
{
    // Every kernel family the engine serves, on fuzz structures: the
    // interpreter must produce the same bits before and after the
    // pass that every backend's input goes through.
    constexpr int64_t kFeats[] = {1, 5, 8, 37};
    uint64_t seed = envU64("FUZZ_SEED", kDefaultSeed);
    for (uint64_t i = 0; i < 12; ++i) {
        Rng rng(mix(seed, 0x4015 + i));
        std::string desc;
        Csr a = randomStructure(&rng, &desc);
        int64_t feat = kFeats[i % 4];
        std::string what = desc + " feat=" + std::to_string(feat);
        SCOPED_TRACE(what);

        // Each producer binds its structure into the set it is given.
        auto set = std::make_shared<core::BindingSet>();
        auto kernel = core::compileSpmmCsr(a, feat, set);
        expectHoistingPreservesResults({kernel->func()}, set->view(),
                                       &rng, "csr");

        set = std::make_shared<core::BindingSet>();
        kernel = core::compileSddmm(a, feat, set);
        expectHoistingPreservesResults({kernel->func()}, set->view(),
                                       &rng, "sddmm");

        set = std::make_shared<core::BindingSet>();
        kernel = core::compileBsrSpmm(
            format::bsrFromCsr(a, i % 2 == 0 ? 2 : 4), feat, set, false);
        expectHoistingPreservesResults({kernel->func()}, set->view(),
                                       &rng, "bsr");

        set = std::make_shared<core::BindingSet>();
        kernel = core::compileSrbcrsSpmm(format::srbcrsFromCsr(a, 4, 2),
                                         feat, set);
        expectHoistingPreservesResults({kernel->func()}, set->view(),
                                       &rng, "srbcrs");

        // One relation's RGCN buckets, with the engine's bucketing.
        format::Hyb rel = format::hybFromCsr(a, 1, 1);
        auto rgcn = std::make_shared<core::BindingSet>();
        rgcn->scalar("m", a.rows);
        rgcn->scalar("n", a.cols);
        std::vector<ir::PrimFunc> rgcn_funcs;
        for (size_t b = 0; b < rel.buckets[0].size(); ++b) {
            const format::Ell &bucket = rel.buckets[0][b];
            if (bucket.numRows() > 0) {
                rgcn_funcs.push_back(
                    core::compileEllRgms(bucket, feat, 3, rgcn,
                                         "r0b" + std::to_string(b),
                                         false)
                        ->func());
            }
        }
        expectHoistingPreservesResults(rgcn_funcs, rgcn->view(), &rng,
                                       "rgcn");

        // Hyb on the GPU schedule; the host schedule is hoisted by its
        // producer and must come out of the pass unchanged.
        auto hyb_set = std::make_shared<core::BindingSet>();
        core::HybSpmm hyb =
            core::compileSpmmHyb(a, feat, 1 + i % 3, 1, hyb_set);
        std::vector<ir::PrimFunc> hyb_funcs;
        for (const auto &kernel : hyb.kernels) {
            hyb_funcs.push_back(kernel->func());
        }
        expectHoistingPreservesResults(hyb_funcs, hyb_set->view(), &rng,
                                       "hyb gpu");
        for (const auto &plan : core::compileSpmmHybFuncs(hyb.hyb, feat)) {
            expectFixedPoint(plan.func, "hyb host");
        }

        dfg::PatternRef pattern = dfg::SparsityPattern::fromCsr(a);
        for (bool fuse : {true, false}) {
            std::string mode = fuse ? " fused" : " chain";
            expectGraphHoistingPreservesResults(
                model::buildAttentionGraph(pattern, feat), fuse, &rng,
                "attention" + mode);
            expectGraphHoistingPreservesResults(
                model::buildGraphSageLayerGraph(pattern, feat, 3), fuse,
                &rng, "graphsage" + mode);
        }
        if (::testing::Test::HasFatalFailure()) {
            return;
        }
    }
}

} // namespace
} // namespace sparsetir
