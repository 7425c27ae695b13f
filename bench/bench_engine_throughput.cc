/**
 * @file
 * Serving-path benchmark for the execution engine: what the compile
 * cache removes from the dispatch path, and what the thread-pool
 * executor buys on multi-kernel requests.
 *
 * Experiments over a >= 10k-row synthetic power-law graph ([2] and
 * [6] use small dedicated structures):
 *
 *  1. Compile cache — cold dispatch (Stage I -> III compile +
 *     bucketing + bind + run) vs cached re-dispatch (value gather +
 *     bind + run). Reports total latency and the dispatch-path
 *     overhead (compile + bind) the cache eliminates; the overhead
 *     ratio is the serving claim (kernel execution itself is
 *     identical work in both cases and hardware-bound).
 *
 *  2. Single-request hyb SpMM — median of 50 warm dispatches of one
 *     request over a 1000-row power-law graph (feat 32, hyb(c=4)),
 *     at 1 worker and at pool size, on bytecode and on native; every
 *     output checked bitwise against the 1-worker (serial) run. A
 *     second row times a 4-request spmmHybBatch over the same graph
 *     the same way: what the second worker buys on a batch that
 *     fills the pool (one executor unit per request).
 *
 *  3. Sustained throughput — warm re-dispatch rate over a stream of
 *     value-varying requests on one cached structure.
 *
 *  4. Execution backend — warm dispatch latency of the bytecode VM
 *     vs the tree-walking interpreter on the same cached structure,
 *     bitwise-checked. This is the end-to-end serving win the
 *     compile cache alone cannot deliver; CI gates on the reported
 *     speedup (target >= 5x full-size, >= 3x FAST).
 *
 *  5. Batched multi-request dispatch — N in-flight requests (one
 *     cached artifact, private feature/output arrays) dispatched
 *     through spmmHybBatch vs the same N requests re-dispatched
 *     sequentially, bitwise-checked per request. Reports requests/s
 *     both ways; the batched numbers ride in BENCH_JSON for
 *     trajectory tracking (informational — the CI gate stays on the
 *     backend speedup). No batched-over-sequential ratio: a few
 *     rounds per side cannot resolve it, so only the bitwise flag
 *     is gated.
 *
 *  6. Single-request RGCN layer — the same timing as [2] for one
 *     RGCN dispatch over 3 relations of a 300-node graph (feat 8),
 *     whose (relation, bucket) scatter kernels all accumulate into
 *     one output.
 *
 *  (No 7: it compared the fused task graph with a barriered
 *  schedule that no longer exists.)
 *
 *  8. Engine metrics snapshot — the observability registry's view of
 *     the session used by [1]/[3]: every named counter and gauge.
 *
 *  9. Warm-dispatch latency percentiles — per-op-kind p50/p95/p99
 *     from the engine's own engine.warm_dispatch_ms.<op> histograms
 *     over a stream of warm dispatches (spmm_csr, spmm_hyb,
 *     spmm_bsr). Emitted into BENCH_JSON as "warm_latency" for
 *     trajectory tracking (informational — no gate).
 *
 * 10. Graph compilation — whole-model dataflow graphs (sparse
 *     attention SDDMM -> scale -> masked-softmax -> SpMM, GraphSAGE
 *     aggregate -> update) dispatched warm as ONE fused kernel vs
 *     the per-node chain, bitwise-checked, with the scratch
 *     high-water mark both ways (the fused program materializes no
 *     intermediate). Req/s both ways ride in BENCH_JSON for
 *     trajectory tracking (informational — no gate).
 *
 * 11. Tiered execution — warm dispatch requests/s per op family
 *     (spmm_csr, spmm_hyb, spmm_bsr) across all three tiers:
 *     tree-walking interpreter, bytecode VM, and the native C tier
 *     (cc-compiled .so, promoted synchronously before measurement).
 *     All three tiers bitwise-checked against each other; the native
 *     tier's compile count / disk hits / total compile ms ride along
 *     in BENCH_JSON as "tiers" for trajectory tracking
 *     (informational — the hard gate stays on [4]).
 *
 * FAST=1 shrinks the graph for smoke runs. BENCH_JSON=<path> writes
 * the backend-comparison numbers as JSON for the CI perf gate and
 * trajectory tracking. TRACE_JSON=<path> (or SPARSETIR_TRACE=1)
 * enables the span recorder for the whole run and writes a Chrome
 * trace-event file loadable in Perfetto / chrome://tracing, plus a
 * self-time summary on stdout.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>

#include "bench_util.h"
#include "core/pipeline.h"
#include "dfg/op_graph.h"
#include "engine/engine.h"
#include "format/bsr.h"
#include "graph/generator.h"
#include "model/attention.h"
#include "model/graphsage.h"
#include "observe/metrics.h"
#include "observe/trace.h"
#include "support/rng.h"

using namespace sparsetir;
using runtime::NDArray;

namespace {

std::vector<float>
randomVector(int64_t size, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> out(size);
    for (auto &v : out) {
        v = static_cast<float>(rng.uniformReal() * 2.0 - 1.0);
    }
    return out;
}

bool
bitwiseEqual(const NDArray &a, const NDArray &b)
{
    return a.numel() == b.numel() &&
           std::memcmp(a.rawData(), b.rawData(),
                       static_cast<size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

/** Median wall milliseconds of `rounds` calls of `fn`. */
double
medianMs(int rounds, const std::function<void()> &fn)
{
    std::vector<double> ms;
    for (int round = 0; round < rounds; ++round) {
        ms.push_back(benchutil::timedRoundsMs(1, fn));
    }
    std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
    return ms[ms.size() / 2];
}

/** Medians of one warm dispatch per backend x pool. */
struct WarmTiming
{
    /** [backend: bytecode, native][workers: 1, pool size]. */
    double ms[2][2] = {};
    /** Every output bitwise equal to the bytecode 1-worker run. */
    bool bitwiseIdentical = true;
};

/**
 * Time `dispatch` (into `num_outs` outputs of `out_numel` elements,
 * which it may accumulate into) on fresh engines at 1 worker and at
 * `pool_workers`, on bytecode and on native. After the timed rounds
 * each engine zeroes the outputs, dispatches once more and compares
 * them with the serial run.
 */
WarmTiming
timeWarmDispatch(int rounds, int pool_workers, int num_outs,
                 int64_t out_numel,
                 const std::function<void(engine::Engine &,
                                          std::vector<NDArray> &)>
                     &dispatch)
{
    WarmTiming timing;
    std::vector<NDArray> reference;
    const runtime::Backend backends[2] = {runtime::Backend::kBytecode,
                                          runtime::Backend::kNative};
    for (int t = 0; t < 2; ++t) {
        for (int w = 0; w < 2; ++w) {
            engine::EngineOptions options;
            options.backend = backends[t];
            options.numThreads = w == 0 ? 1 : pool_workers;
            options.nativePromoteAfter = 0;  // native from the prime
            engine::Engine eng(options);
            std::vector<NDArray> outs;
            for (int i = 0; i < num_outs; ++i) {
                outs.emplace_back(std::vector<int64_t>{out_numel},
                                  ir::DataType::float32());
            }
            dispatch(eng, outs);  // prime: compile (and promote)
            timing.ms[t][w] = medianMs(rounds, [&] { dispatch(eng, outs); });
            for (NDArray &out : outs) {
                out.zero();
            }
            dispatch(eng, outs);
            if (t == 0 && w == 0) {
                reference = outs;
            } else {
                for (int i = 0; i < num_outs; ++i) {
                    timing.bitwiseIdentical =
                        timing.bitwiseIdentical &&
                        bitwiseEqual(reference[i], outs[i]);
                }
            }
        }
    }
    return timing;
}

void
printWarmTiming(const WarmTiming &timing, int pool_workers)
{
    const char *names[2] = {"bytecode", "native"};
    for (int t = 0; t < 2; ++t) {
        std::printf("  %-8s  1 worker %8.3f ms   %d workers %8.3f ms  "
                    "(%.2fx)\n",
                    names[t], timing.ms[t][0], pool_workers,
                    timing.ms[t][1],
                    timing.ms[t][1] > 0.0
                        ? timing.ms[t][0] / timing.ms[t][1]
                        : 0.0);
    }
    std::printf("  bitwise-equal to the serial run: %s\n",
                timing.bitwiseIdentical ? "yes" : "NO");
}

void
writeWarmTimingJson(std::FILE *json, const char *name,
                    const WarmTiming &timing, const char *trailer)
{
    std::fprintf(json,
                 "    \"%s\": {\"bytecode_1w_ms\": %.4f, "
                 "\"bytecode_pool_ms\": %.4f, \"native_1w_ms\": %.4f, "
                 "\"native_pool_ms\": %.4f, "
                 "\"bitwise_identical\": %s}%s\n",
                 name, timing.ms[0][0], timing.ms[0][1], timing.ms[1][0],
                 timing.ms[1][1],
                 timing.bitwiseIdentical ? "true" : "false", trailer);
}

double
wallMs(const std::function<void()> &fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
main()
{
    benchutil::printHeader(
        "Engine throughput: compile cache + parallel executor");

    // Tracing covers the whole run when asked for: TRACE_JSON names
    // the Chrome-trace output; SPARSETIR_TRACE=1 alone traces too
    // (written to bench_trace.json).
    const char *trace_path_env = std::getenv("TRACE_JSON");
    if (trace_path_env != nullptr || observe::traceRequestedByEnv()) {
        observe::TraceRecorder::global().setEnabled(true);
    }

    int64_t nodes = benchutil::fastMode() ? 2000 : 10000;
    int64_t edges = benchutil::fastMode() ? 12000 : 120000;
    int64_t feat = 16;
    format::Csr g = graph::powerLawGraph(nodes, edges, 1.8, 5);
    std::printf("graph: %lld rows, %lld nnz (power-law), feat %lld\n",
                static_cast<long long>(g.rows),
                static_cast<long long>(g.nnz()),
                static_cast<long long>(feat));

    auto b_host = randomVector(g.cols * feat, 7);
    engine::HybConfig config;
    config.partitions = 4;

    // ------------------------------------------------------------------
    // 1. Compile cache: cold vs cached re-dispatch
    // ------------------------------------------------------------------
    std::printf("\n[1] compile cache (hyb(c=%d) SpMM)\n",
                config.partitions);
    engine::Engine eng(engine::EngineOptions{});
    NDArray b = NDArray::fromFloat(b_host);
    NDArray c({g.rows * feat}, ir::DataType::float32());

    engine::DispatchInfo cold;
    double cold_total =
        wallMs([&] { cold = eng.spmmHyb(g, feat, &b, &c, config); });

    constexpr int kWarmRounds = 5;
    engine::DispatchInfo warm;
    double warm_total = 0.0;
    for (int round = 0; round < kWarmRounds; ++round) {
        // Perturb values: the cache must serve any matrix with this
        // sparsity structure through the provenance gather.
        format::Csr g2 = g;
        float scale = 1.0f + 0.25f * static_cast<float>(round);
        for (auto &v : g2.values) {
            v *= scale;
        }
        c.zero();
        warm_total +=
            wallMs([&] { warm = eng.spmmHyb(g2, feat, &b, &c, config); });
    }
    warm_total /= kWarmRounds;

    std::printf("  cold:  total %8.2f ms  (compile %7.2f, bind %5.2f, "
                "kernels %8.2f ms, %d kernels)\n",
                cold_total, cold.compileMs, cold.bindMs, cold.kernelMs,
                cold.numKernels);
    std::printf("  warm:  total %8.2f ms  (compile %7.4f, bind %5.2f, "
                "kernels %8.2f ms, hit=%s)\n",
                warm_total, warm.compileMs, warm.bindMs, warm.kernelMs,
                warm.cacheHit ? "yes" : "no");
    double overhead_ratio =
        warm.dispatchOverheadMs() > 0.0
            ? cold.dispatchOverheadMs() / warm.dispatchOverheadMs()
            : 0.0;
    std::printf("  dispatch-path overhead (compile+bind): cold %.2f ms "
                "-> warm %.2f ms = %.1fx faster (target >= 10x)\n",
                cold.dispatchOverheadMs(), warm.dispatchOverheadMs(),
                overhead_ratio);
    std::printf("  end-to-end latency ratio (interpreter-bound): "
                "%.2fx\n",
                warm_total > 0.0 ? cold_total / warm_total : 0.0);

    // ------------------------------------------------------------------
    // 2. Single-request hyb SpMM: 1 worker vs pool size, per backend
    // ------------------------------------------------------------------
    // Pool size is the hardware concurrency, but at least 2 so the
    // parallel schedule runs even on a one-core box.
    int pool_workers = std::max(
        2, static_cast<int>(std::thread::hardware_concurrency()));
    constexpr int kSingleRounds = 50;
    format::Csr single_g = graph::powerLawGraph(1000, 6000, 1.8, 11);
    int64_t single_feat = 32;
    std::printf("\n[2] single-request hyb(c=%d) SpMM: %lld rows, %lld "
                "nnz, feat %lld (median of %d warm dispatches)\n",
                config.partitions,
                static_cast<long long>(single_g.rows),
                static_cast<long long>(single_g.nnz()),
                static_cast<long long>(single_feat), kSingleRounds);
    NDArray single_b = NDArray::fromFloat(
        randomVector(single_g.cols * single_feat, 12));
    WarmTiming single_hyb = timeWarmDispatch(
        kSingleRounds, pool_workers, 1, single_g.rows * single_feat,
        [&](engine::Engine &e, std::vector<NDArray> &outs) {
            e.spmmHyb(single_g, single_feat, &single_b, &outs[0], config);
        });
    printWarmTiming(single_hyb, pool_workers);

    constexpr int kBatchRequests = 4;
    std::printf("  %d-request spmmHybBatch over the same graph (median "
                "of %d warm dispatches):\n",
                kBatchRequests, kSingleRounds);
    std::vector<NDArray> batch4_b;
    for (int i = 0; i < kBatchRequests; ++i) {
        batch4_b.push_back(NDArray::fromFloat(
            randomVector(single_g.cols * single_feat, 13 + i)));
    }
    WarmTiming batch_hyb = timeWarmDispatch(
        kSingleRounds, pool_workers, kBatchRequests,
        single_g.rows * single_feat,
        [&](engine::Engine &e, std::vector<NDArray> &outs) {
            std::vector<engine::SpmmRequest> requests;
            for (int i = 0; i < kBatchRequests; ++i) {
                requests.push_back(
                    engine::SpmmRequest{&batch4_b[i], &outs[i]});
            }
            e.spmmHybBatch(single_g, single_feat, requests, config);
        });
    printWarmTiming(batch_hyb, pool_workers);

    // ------------------------------------------------------------------
    // 3. Sustained warm throughput
    // ------------------------------------------------------------------
    int rounds = benchutil::fastMode() ? 3 : 10;
    std::printf("\n[3] sustained warm re-dispatch (%d requests)\n",
                rounds);
    double stream_ms = wallMs([&] {
        for (int round = 0; round < rounds; ++round) {
            c.zero();
            eng.spmmHyb(g, feat, &b, &c, config);
        }
    });
    auto stats = eng.stats();
    std::printf("  %.2f req/s (%.2f ms/request)\n",
                1000.0 * rounds / stream_ms, stream_ms / rounds);
    std::printf("  session: %llu requests, %llu hits / %llu misses, "
                "compile %.1f ms total, exec %.1f ms total\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.cacheHits),
                static_cast<unsigned long long>(stats.cacheMisses),
                stats.totalCompileMs, stats.totalExecMs);

    // ------------------------------------------------------------------
    // 4. Execution backend: bytecode VM vs interpreter, warm
    // ------------------------------------------------------------------
    int backend_rounds = benchutil::fastMode() ? 3 : 5;
    std::printf("\n[4] warm dispatch by execution backend "
                "(%d rounds each)\n",
                backend_rounds);
    double backend_ms[2] = {0.0, 0.0};
    observe::LatencyHistogram backend_lat[2];
    NDArray backend_c[2] = {
        NDArray({g.rows * feat}, ir::DataType::float32()),
        NDArray({g.rows * feat}, ir::DataType::float32())};
    for (int which = 0; which < 2; ++which) {
        bool bytecode = which == 1;
        engine::EngineOptions options;
        options.backend = bytecode
                              ? runtime::Backend::kBytecode
                              : runtime::Backend::kInterpreter;
        engine::Engine backend_eng(options);
        NDArray bb = NDArray::fromFloat(b_host);
        // Prime the cache; the measured rounds are pure warm path
        // (the dispatch itself zeroes C — overwrite semantics).
        backend_eng.spmmHyb(g, feat, &bb, &backend_c[which], config);
        backend_ms[which] = benchutil::timedRoundsMs(
            backend_rounds,
            [&] {
                backend_eng.spmmHyb(g, feat, &bb, &backend_c[which],
                                    config);
            },
            &backend_lat[which]);
        observe::HistogramSnapshot lat =
            backend_lat[which].snapshot();
        std::printf("  %-12s %8.2f ms/request  (p50 %.2f / p99 %.2f "
                    "ms)\n",
                    bytecode ? "bytecode:" : "interpreter:",
                    backend_ms[which], lat.p50Ms, lat.p99Ms);
    }
    bool backend_equal = bitwiseEqual(backend_c[0], backend_c[1]);
    double backend_speedup =
        backend_ms[1] > 0.0 ? backend_ms[0] / backend_ms[1] : 0.0;
    std::printf("  speedup bytecode vs interpreter: %.2fx (target >= "
                "%dx), bitwise-identical outputs: %s\n",
                backend_speedup, benchutil::fastMode() ? 3 : 5,
                backend_equal ? "yes" : "NO");

    // ------------------------------------------------------------------
    // 5. Batched multi-request dispatch vs sequential re-dispatch
    // ------------------------------------------------------------------
    int batch_requests = benchutil::fastMode() ? 4 : 8;
    int batch_rounds = benchutil::fastMode() ? 3 : 5;
    std::printf("\n[5] batched dispatch: %d in-flight requests "
                "(%d rounds each way)\n",
                batch_requests, batch_rounds);
    std::vector<NDArray> batch_b;
    std::vector<NDArray> batch_c;
    std::vector<NDArray> seq_out;
    for (int i = 0; i < batch_requests; ++i) {
        batch_b.push_back(NDArray::fromFloat(
            randomVector(g.cols * feat, 100 + i)));
        batch_c.emplace_back(std::vector<int64_t>{g.rows * feat},
                             ir::DataType::float32());
        seq_out.emplace_back(std::vector<int64_t>{g.rows * feat},
                             ir::DataType::float32());
    }
    std::vector<engine::SpmmRequest> requests;
    for (int i = 0; i < batch_requests; ++i) {
        requests.push_back(engine::SpmmRequest{&batch_b[i],
                                               &batch_c[i]});
    }
    engine::Engine batch_eng(engine::EngineOptions{});
    batch_eng.spmmHybBatch(g, feat, requests, config);  // prime cache

    // Fair baseline: the same batch entry point, one request at a
    // time — both sides pay a cache lookup and a value gather per
    // dispatch, so the comparison isolates batching (one lookup and
    // gather for N requests, cross-request striping).
    double sequential_ms = benchutil::timedRoundsMs(batch_rounds, [&] {
        for (int i = 0; i < batch_requests; ++i) {
            std::vector<engine::SpmmRequest> one = {
                engine::SpmmRequest{&batch_b[i], &seq_out[i]}};
            batch_eng.spmmHybBatch(g, feat, one, config);
        }
    });

    double batched_ms = benchutil::timedRoundsMs(
        batch_rounds,
        [&] { batch_eng.spmmHybBatch(g, feat, requests, config); });

    bool batch_equal = true;
    for (int i = 0; i < batch_requests; ++i) {
        batch_equal =
            batch_equal && bitwiseEqual(seq_out[i], batch_c[i]);
    }
    double sequential_rps =
        sequential_ms > 0.0 ? 1000.0 * batch_requests / sequential_ms
                            : 0.0;
    double batched_rps =
        batched_ms > 0.0 ? 1000.0 * batch_requests / batched_ms : 0.0;
    std::printf("  sequential: %8.2f ms/batch  (%.1f req/s)\n",
                sequential_ms, sequential_rps);
    std::printf("  batched:    %8.2f ms/batch  (%.1f req/s)\n",
                batched_ms, batched_rps);
    std::printf("  per-request bitwise identical: %s\n",
                batch_equal ? "yes" : "NO");

    // ------------------------------------------------------------------
    // 6. Single-request RGCN layer: 1 worker vs pool size, per backend
    // ------------------------------------------------------------------
    int64_t rg_nodes = 300;
    int64_t rg_feat = 8;
    int rg_relations = 3;
    format::RelationalCsr rgraph;
    rgraph.rows = rg_nodes;
    rgraph.cols = rg_nodes;
    for (int r = 0; r < rg_relations; ++r) {
        rgraph.relations.push_back(graph::powerLawGraph(
            rg_nodes, rg_nodes * 6, 1.8, 200 + r));
        rgraph.relations.back().cols = rg_nodes;
    }
    std::printf("\n[6] single-request rgcn: %lld nodes, %d relations, "
                "feat %lld (median of %d warm dispatches)\n",
                static_cast<long long>(rg_nodes), rg_relations,
                static_cast<long long>(rg_feat), kSingleRounds);
    NDArray rg_x =
        NDArray::fromFloat(randomVector(rg_nodes * rg_feat, 210));
    NDArray rg_w =
        NDArray::fromFloat(randomVector(rg_feat * rg_feat, 211));
    WarmTiming single_rgcn = timeWarmDispatch(
        kSingleRounds, pool_workers, 1, rg_nodes * rg_feat,
        [&](engine::Engine &e, std::vector<NDArray> &outs) {
            e.rgcn(rgraph, rg_feat, &rg_x, &rg_w, &outs[0]);
        });
    printWarmTiming(single_rgcn, pool_workers);

    // ------------------------------------------------------------------
    // 8. Engine metrics snapshot (registry counters + gauges)
    // ------------------------------------------------------------------
    std::printf("\n[8] metrics snapshot of the [1]/[3] engine "
                "session\n");
    observe::MetricsSnapshot session_snap = eng.metricsSnapshot();
    for (const auto &kv : session_snap.counters) {
        std::printf("  counter %-28s %llu\n", kv.first.c_str(),
                    static_cast<unsigned long long>(kv.second));
    }
    for (const auto &kv : session_snap.gauges) {
        std::printf("  gauge   %-28s %lld\n", kv.first.c_str(),
                    static_cast<long long>(kv.second));
    }

    // ------------------------------------------------------------------
    // 9. Warm-dispatch latency percentiles per op kind
    // ------------------------------------------------------------------
    int lat_rounds = benchutil::fastMode() ? 8 : 20;
    std::printf("\n[9] warm-dispatch latency percentiles (%d warm "
                "rounds per op)\n",
                lat_rounds);
    engine::Engine lat_eng(engine::EngineOptions{});

    // spmm_csr + spmm_hyb share the power-law graph and B; spmm_bsr
    // gets a blocked version of it. One cold prime each, then warm
    // rounds — the engine's own per-op histograms record the warm
    // latencies (the cold dispatch lands in the cold histogram).
    NDArray lat_csr_c({g.rows * feat}, ir::DataType::float32());
    lat_eng.spmmCsr(g, feat, &b, &lat_csr_c);
    for (int round = 0; round < lat_rounds; ++round) {
        lat_eng.spmmCsr(g, feat, &b, &lat_csr_c);
    }

    NDArray lat_hyb_c({g.rows * feat}, ir::DataType::float32());
    lat_eng.spmmHyb(g, feat, &b, &lat_hyb_c, config);
    for (int round = 0; round < lat_rounds; ++round) {
        lat_eng.spmmHyb(g, feat, &b, &lat_hyb_c, config);
    }

    // Dedicated smaller graph for BSR: blocking the full power-law
    // graph pads far too many dense blocks for a latency sweep.
    format::Csr lat_bsr_src = graph::powerLawGraph(
        benchutil::fastMode() ? 500 : 1000,
        benchutil::fastMode() ? 3000 : 8000, 1.8, 23);
    format::Bsr lat_bsr = format::bsrFromCsr(lat_bsr_src, 8);
    NDArray lat_bsr_b = NDArray::fromFloat(randomVector(
        lat_bsr.blockCols * lat_bsr.blockSize * feat, 42));
    NDArray lat_bsr_c(
        {lat_bsr.blockRows * lat_bsr.blockSize * feat},
        ir::DataType::float32());
    lat_eng.spmmBsr(lat_bsr, feat, &lat_bsr_b, &lat_bsr_c);
    for (int round = 0; round < lat_rounds; ++round) {
        lat_eng.spmmBsr(lat_bsr, feat, &lat_bsr_b, &lat_bsr_c);
    }

    struct WarmLatency
    {
        const char *op;
        observe::HistogramSnapshot hist;
    };
    std::vector<WarmLatency> warm_latency;
    observe::MetricsSnapshot lat_snap = lat_eng.metricsSnapshot();
    for (const char *op : {"spmm_csr", "spmm_hyb", "spmm_bsr"}) {
        auto it = lat_snap.histograms.find(
            std::string("engine.warm_dispatch_ms.") + op);
        if (it == lat_snap.histograms.end() ||
            it->second.count == 0) {
            continue;
        }
        warm_latency.push_back(WarmLatency{op, it->second});
        std::printf("  %-10s %4llu samples  p50 %8.3f ms  p95 %8.3f "
                    "ms  p99 %8.3f ms\n",
                    op,
                    static_cast<unsigned long long>(it->second.count),
                    it->second.p50Ms, it->second.p95Ms,
                    it->second.p99Ms);
    }

    // ------------------------------------------------------------------
    // 10. Graph compilation: fused whole-model pipelines vs chains
    // ------------------------------------------------------------------
    int64_t dfg_nodes = benchutil::fastMode() ? 500 : 2000;
    int dfg_rounds = benchutil::fastMode() ? 5 : 20;
    std::printf("\n[10] graph compilation: fused pipeline vs per-node "
                "chain (%lld-row mask, %d warm rounds each way)\n",
                static_cast<long long>(dfg_nodes), dfg_rounds);
    format::Csr mask =
        graph::powerLawGraph(dfg_nodes, dfg_nodes * 8, 1.8, 300);
    mask.cols = dfg_nodes;
    dfg::PatternRef dfg_pattern = dfg::SparsityPattern::fromCsr(mask);
    engine::Engine dfg_eng(engine::EngineOptions{});

    // Sparse attention: SDDMM -> scale -> masked-softmax -> SpMM.
    NDArray att_q =
        NDArray::fromFloat(randomVector(mask.rows * feat, 310));
    NDArray att_kt =
        NDArray::fromFloat(randomVector(feat * mask.cols, 311));
    NDArray att_v =
        NDArray::fromFloat(randomVector(mask.cols * feat, 312));
    NDArray att_fused({mask.rows * feat}, ir::DataType::float32());
    NDArray att_chain({mask.rows * feat}, ir::DataType::float32());
    double att_ms[2] = {0.0, 0.0};  // [0]=chain, [1]=fused
    long long att_scratch[2] = {0, 0};
    for (int which = 0; which < 2; ++which) {
        bool fuse = which == 1;
        NDArray *out = fuse ? &att_fused : &att_chain;
        model::attentionPipeline(dfg_eng, dfg_pattern, feat, &att_q,
                                 &att_kt, &att_v, out, fuse);  // warm
        dfg_eng.resetScratchPeak();
        att_ms[which] = benchutil::timedRoundsMs(dfg_rounds, [&] {
            model::attentionPipeline(dfg_eng, dfg_pattern, feat,
                                     &att_q, &att_kt, &att_v, out,
                                     fuse);
        });
        att_scratch[which] = static_cast<long long>(
            dfg_eng.scratchStats().peakLeasedBytes);
        std::printf("  attention %-6s %8.2f ms/request  (%.1f req/s, "
                    "scratch peak %.2f MB)\n",
                    fuse ? "fused:" : "chain:", att_ms[which],
                    att_ms[which] > 0.0 ? 1000.0 / att_ms[which] : 0.0,
                    att_scratch[which] / 1e6);
    }
    bool att_equal = bitwiseEqual(att_chain, att_fused);
    double att_chain_rps =
        att_ms[0] > 0.0 ? 1000.0 / att_ms[0] : 0.0;
    double att_fused_rps =
        att_ms[1] > 0.0 ? 1000.0 / att_ms[1] : 0.0;
    double att_speedup = att_ms[1] > 0.0 ? att_ms[0] / att_ms[1] : 0.0;
    std::printf("  attention fused vs chain: %.2fx, bitwise identical:"
                " %s (chain materialized %.2f MB of intermediates, "
                "fused %.2f MB)\n",
                att_speedup, att_equal ? "yes" : "NO",
                att_scratch[0] / 1e6, att_scratch[1] / 1e6);

    // GraphSAGE layer: mean-aggregate -> dense update.
    NDArray sage_x =
        NDArray::fromFloat(randomVector(mask.cols * feat, 320));
    NDArray sage_w =
        NDArray::fromFloat(randomVector(feat * feat, 321));
    NDArray sage_fused({mask.rows * feat}, ir::DataType::float32());
    NDArray sage_chain({mask.rows * feat}, ir::DataType::float32());
    double sage_ms[2] = {0.0, 0.0};
    for (int which = 0; which < 2; ++which) {
        bool fuse = which == 1;
        NDArray *out = fuse ? &sage_fused : &sage_chain;
        model::graphSageLayer(dfg_eng, dfg_pattern, feat, feat,
                              &sage_x, &sage_w, out, fuse);  // warm
        sage_ms[which] = benchutil::timedRoundsMs(dfg_rounds, [&] {
            model::graphSageLayer(dfg_eng, dfg_pattern, feat, feat,
                                  &sage_x, &sage_w, out, fuse);
        });
        std::printf("  graphsage %-6s %8.2f ms/request  (%.1f "
                    "req/s)\n",
                    fuse ? "fused:" : "chain:", sage_ms[which],
                    sage_ms[which] > 0.0 ? 1000.0 / sage_ms[which]
                                         : 0.0);
    }
    bool sage_equal = bitwiseEqual(sage_chain, sage_fused);
    double sage_chain_rps =
        sage_ms[0] > 0.0 ? 1000.0 / sage_ms[0] : 0.0;
    double sage_fused_rps =
        sage_ms[1] > 0.0 ? 1000.0 / sage_ms[1] : 0.0;
    double sage_speedup =
        sage_ms[1] > 0.0 ? sage_ms[0] / sage_ms[1] : 0.0;
    std::printf("  graphsage fused vs chain: %.2fx, bitwise identical:"
                " %s\n",
                sage_speedup, sage_equal ? "yes" : "NO");

    // ------------------------------------------------------------------
    // 11. Tiered execution: interpreter vs bytecode vs native, warm
    // ------------------------------------------------------------------
    int tier_rounds = benchutil::fastMode() ? 3 : 5;
    std::printf("\n[11] warm dispatch by execution tier (%d rounds "
                "per op family; native promotes synchronously)\n",
                tier_rounds);
    struct TierFamily
    {
        const char *op;
        int64_t outNumel;
        std::function<void(engine::Engine &, NDArray *)> dispatch;
    };
    const TierFamily tier_families[3] = {
        {"spmm_csr", g.rows * feat,
         [&](engine::Engine &e, NDArray *out) {
             e.spmmCsr(g, feat, &b, out);
         }},
        {"spmm_hyb", g.rows * feat,
         [&](engine::Engine &e, NDArray *out) {
             e.spmmHyb(g, feat, &b, out, config);
         }},
        {"spmm_bsr", lat_bsr.blockRows * lat_bsr.blockSize * feat,
         [&](engine::Engine &e, NDArray *out) {
             e.spmmBsr(lat_bsr, feat, &lat_bsr_b, out);
         }}};
    const char *tier_names[3] = {"interpreter", "bytecode", "native"};
    const runtime::Backend tier_backends[3] = {
        runtime::Backend::kInterpreter, runtime::Backend::kBytecode,
        runtime::Backend::kNative};
    double tier_rps[3][3] = {};
    std::vector<NDArray> tier_out[3];
    uint64_t native_compiles = 0;
    uint64_t native_disk_hits = 0;
    uint64_t native_fallbacks = 0;
    double native_compile_ms = 0.0;
    for (int t = 0; t < 3; ++t) {
        engine::EngineOptions options;
        options.backend = tier_backends[t];
        // Promote inside the priming dispatch, so the measured warm
        // rounds run the dlopen'd kernels from round one.
        options.nativePromoteAfter = 0;
        engine::Engine tier_eng(options);
        tier_out[t].reserve(3);
        for (int f = 0; f < 3; ++f) {
            tier_out[t].emplace_back(
                std::vector<int64_t>{tier_families[f].outNumel},
                ir::DataType::float32());
            NDArray *out = &tier_out[t].back();
            tier_families[f].dispatch(tier_eng, out);  // prime
            double ms = benchutil::timedRoundsMs(
                tier_rounds,
                [&] { tier_families[f].dispatch(tier_eng, out); });
            tier_rps[t][f] = ms > 0.0 ? 1000.0 / ms : 0.0;
        }
        if (tier_backends[t] == runtime::Backend::kNative) {
            engine::NativeStats nstats = tier_eng.nativeStats();
            native_compiles = nstats.compiles;
            native_disk_hits = nstats.diskHits;
            native_fallbacks = nstats.fallbacks;
            observe::MetricsSnapshot nsnap =
                tier_eng.metricsSnapshot();
            auto hist = nsnap.histograms.find("native.compile_ms");
            if (hist != nsnap.histograms.end()) {
                native_compile_ms = hist->second.sumMs;
            }
        }
    }
    bool tier_equal = true;
    for (int f = 0; f < 3; ++f) {
        bool equal = bitwiseEqual(tier_out[0][f], tier_out[1][f]) &&
                     bitwiseEqual(tier_out[0][f], tier_out[2][f]);
        tier_equal = tier_equal && equal;
        std::printf("  %-10s %8.1f req/s interpreter  %8.1f req/s "
                    "bytecode  %8.1f req/s native  (native vs "
                    "interpreter %.2fx), 3-tier bitwise identical: "
                    "%s\n",
                    tier_families[f].op, tier_rps[0][f],
                    tier_rps[1][f], tier_rps[2][f],
                    tier_rps[0][f] > 0.0
                        ? tier_rps[2][f] / tier_rps[0][f]
                        : 0.0,
                    equal ? "yes" : "NO");
    }
    std::printf("  native tier: %llu kernel compile(s) in %.1f ms, "
                "%llu disk hit(s), %llu fallback(s)\n",
                static_cast<unsigned long long>(native_compiles),
                native_compile_ms,
                static_cast<unsigned long long>(native_disk_hits),
                static_cast<unsigned long long>(native_fallbacks));

    if (const char *json_path = std::getenv("BENCH_JSON")) {
        std::FILE *json = std::fopen(json_path, "w");
        if (json == nullptr) {
            std::fprintf(stderr, "cannot write BENCH_JSON=%s\n",
                         json_path);
            return 1;
        }
        std::fprintf(
            json,
            "{\n"
            "  \"benchmark\": \"bench_engine_throughput\",\n"
            "  \"fast_mode\": %s,\n"
            "  \"graph_rows\": %lld,\n"
            "  \"graph_nnz\": %lld,\n"
            "  \"feat\": %lld,\n"
            "  \"cold_dispatch_ms\": %.4f,\n"
            "  \"warm_dispatch_ms\": %.4f,\n"
            "  \"dispatch_overhead_ratio\": %.4f,\n"
            "  \"interpreter_warm_ms\": %.4f,\n"
            "  \"bytecode_warm_ms\": %.4f,\n"
            "  \"backend_speedup\": %.4f,\n"
            "  \"bitwise_identical\": %s,\n"
            "  \"batch_requests\": %d,\n"
            "  \"sequential_req_per_s\": %.2f,\n"
            "  \"batched_req_per_s\": %.2f,\n"
            "  \"batch_bitwise_identical\": %s,\n"
            "  \"graph_attention_chain_req_per_s\": %.2f,\n"
            "  \"graph_attention_fused_req_per_s\": %.2f,\n"
            "  \"graph_attention_speedup\": %.4f,\n"
            "  \"graph_attention_bitwise_identical\": %s,\n"
            "  \"graph_attention_chain_scratch_bytes\": %lld,\n"
            "  \"graph_attention_fused_scratch_bytes\": %lld,\n"
            "  \"graph_graphsage_chain_req_per_s\": %.2f,\n"
            "  \"graph_graphsage_fused_req_per_s\": %.2f,\n"
            "  \"graph_graphsage_speedup\": %.4f,\n"
            "  \"graph_graphsage_bitwise_identical\": %s,\n",
            benchutil::fastMode() ? "true" : "false",
            static_cast<long long>(g.rows),
            static_cast<long long>(g.nnz()),
            static_cast<long long>(feat), cold_total, warm_total,
            overhead_ratio, backend_ms[0], backend_ms[1],
            backend_speedup, backend_equal ? "true" : "false",
            batch_requests, sequential_rps, batched_rps,
            batch_equal ? "true" : "false",
            att_chain_rps, att_fused_rps, att_speedup,
            att_equal ? "true" : "false", att_scratch[0],
            att_scratch[1], sage_chain_rps, sage_fused_rps,
            sage_speedup, sage_equal ? "true" : "false");
        // Single-request timings of [2] and [6].
        std::fprintf(json,
                     "  \"single_request_pool_workers\": %d,\n"
                     "  \"single_request\": {\n",
                     pool_workers);
        writeWarmTimingJson(json, "spmm_hyb", single_hyb, ",");
        writeWarmTimingJson(json, "rgcn", single_rgcn, "");
        std::fprintf(json, "  },\n");
        // The 4-request batch of [2].
        std::fprintf(json, "  \"batch_request\": {\n"
                           "    \"requests\": %d,\n",
                     kBatchRequests);
        writeWarmTimingJson(json, "spmm_hyb", batch_hyb, "");
        std::fprintf(json, "  },\n");
        // Build-time verify cost of the warm-latency engine's
        // artifacts (csr + hyb buckets + bsr). Zero kernels means
        // verification was off for this build/env; the perf gate
        // prints it informationally either way.
        engine::CacheStats verify_stats = lat_eng.cacheStats();
        std::fprintf(
            json,
            "  \"verify\": {\"verified_kernels\": %llu, "
            "\"verify_failures\": %llu, \"verify_ms\": %.4f},\n",
            static_cast<unsigned long long>(
                verify_stats.verifiedKernels),
            static_cast<unsigned long long>(
                verify_stats.verifyFailures),
            verify_stats.verifyMs);
        // Tiered-execution trajectory: warm req/s per op family for
        // each execution tier, plus the native tier's compile cost.
        std::fprintf(
            json,
            "  \"native_compiles\": %llu,\n"
            "  \"native_disk_hits\": %llu,\n"
            "  \"native_compile_ms\": %.4f,\n"
            "  \"tiers\": {\n",
            static_cast<unsigned long long>(native_compiles),
            static_cast<unsigned long long>(native_disk_hits),
            native_compile_ms);
        for (int f = 0; f < 3; ++f) {
            bool equal =
                bitwiseEqual(tier_out[0][f], tier_out[1][f]) &&
                bitwiseEqual(tier_out[0][f], tier_out[2][f]);
            std::fprintf(
                json,
                "    \"%s\": {\"interpreter_req_per_s\": %.2f, "
                "\"bytecode_req_per_s\": %.2f, "
                "\"native_req_per_s\": %.2f, "
                "\"bitwise_identical\": %s}%s\n",
                tier_families[f].op, tier_rps[0][f], tier_rps[1][f],
                tier_rps[2][f], equal ? "true" : "false",
                f + 1 < 3 ? "," : "");
        }
        std::fprintf(json, "  },\n");
        std::fprintf(json, "  \"warm_latency\": {\n");
        for (size_t i = 0; i < warm_latency.size(); ++i) {
            const WarmLatency &w = warm_latency[i];
            std::fprintf(
                json,
                "    \"%s\": {\"count\": %llu, \"p50_ms\": %.4f, "
                "\"p95_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
                w.op,
                static_cast<unsigned long long>(w.hist.count),
                w.hist.p50Ms, w.hist.p95Ms, w.hist.p99Ms,
                i + 1 < warm_latency.size() ? "," : "");
        }
        std::fprintf(json, "  }\n}\n");
        std::fclose(json);
        std::printf("  wrote %s\n", json_path);
    }

    // Trace export: everything above ran inside the recorder when
    // tracing was requested; dump the timeline and a self-time
    // summary.
    observe::TraceRecorder &recorder = observe::TraceRecorder::global();
    if (recorder.enabled()) {
        std::string trace_path = trace_path_env != nullptr
                                     ? trace_path_env
                                     : "bench_trace.json";
        if (recorder.writeChromeTrace(trace_path)) {
            std::printf(
                "\ntrace: %llu spans on %zu threads -> %s (load in "
                "Perfetto / chrome://tracing)\n",
                static_cast<unsigned long long>(
                    recorder.eventCount()),
                recorder.threadCount(), trace_path.c_str());
        } else {
            std::fprintf(stderr, "cannot write trace %s\n",
                         trace_path.c_str());
        }
        std::printf("%s", recorder.textSummary().c_str());
    }
    return backend_equal && batch_equal && att_equal &&
                   sage_equal && tier_equal &&
                   single_hyb.bitwiseIdentical &&
                   single_rgcn.bitwiseIdentical
               ? 0
               : 1;
}
