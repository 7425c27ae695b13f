/**
 * @file
 * GNN SpMM with composable formats: decompose a power-law graph into
 * the hyb(c, k) format (paper §4.2.1), tune the column-partition
 * count with the simulator as cost oracle, and compare against the
 * single-format kernel — the workflow of the paper's Figures 11-13.
 * Tuning simulates each candidate's GPU schedule; serving runs the
 * host schedule through an engine::Engine session, which compiles
 * the chosen configuration once so re-dispatch skips lowering.
 *
 * Build & run:  ./build/examples/gnn_spmm
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "autotune/search.h"
#include "core/pipeline.h"
#include "engine/engine.h"
#include "graph/datasets.h"
#include "graph/generator.h"

using namespace sparsetir;

int
main()
{
    graph::DatasetSpec spec = graph::datasetSpec("pubmed");
    format::Csr g = graph::generateDataset(spec);
    graph::DegreeStats stats = graph::degreeStats(g);
    std::printf("graph: %s (%lld nodes, %lld edges, max degree %lld, "
                "gini %.2f)\n",
                spec.name.c_str(), static_cast<long long>(g.rows),
                static_cast<long long>(g.nnz()),
                static_cast<long long>(stats.maxDegree), stats.gini);

    int64_t feat = 64;
    gpusim::Device device(gpusim::GpuSpec::v100());

    // Single-format baseline: CSR with a GE-SpMM-style schedule.
    auto shared = std::make_shared<core::BindingSet>();
    runtime::NDArray b({g.cols * feat}, ir::DataType::float32());
    runtime::NDArray c({g.rows * feat}, ir::DataType::float32());
    shared->external("B_data", &b);
    shared->external("C_data", &c);
    auto csr_kernel = core::compileSpmmCsr(g, feat, shared);
    double csr_ms = device.launch(csr_kernel->simKernel()).timeMs;
    std::printf("SparseTIR(no-hyb): %.4f ms\n", csr_ms);

    // Composable format: search c over {1, 2, 4, 8, 16} on the
    // simulator, which models the GPU schedule of each candidate.
    autotune::HybTuneResult tuned =
        autotune::tuneSpmmHyb(g, feat, device);
    std::printf("hyb search:\n");
    for (const auto &cand : tuned.tried) {
        std::printf("  hyb(c=%2d, k=%d): %.4f ms%s\n", cand.c, cand.k,
                    cand.timeMs,
                    cand.c == tuned.best.c ? "  <- best" : "");
    }
    std::printf("SparseTIR(hyb):    %.4f ms  (%.2fx vs no-hyb)\n",
                tuned.best.timeMs, csr_ms / tuned.best.timeMs);

    // The padding the composable format pays for its load balance.
    format::Hyb hyb = format::hybFromCsr(g, tuned.best.c, -1);
    std::printf("padding: %.1f%% of stored entries are zeros "
                "(Table 1 column)\n",
                hyb.paddingRatio() * 100.0);

    // Serve the tuned configuration on the host through an engine
    // session: the first dispatch compiles the host-scheduled
    // kernels, later dispatches skip straight to value binding.
    engine::Engine session(engine::EngineOptions{});
    engine::HybConfig best_config;
    best_config.partitions = tuned.best.c;
    c.zero();
    engine::DispatchInfo served =
        session.spmmHyb(g, feat, &b, &c, best_config);
    std::printf("\nserved hyb(c=%d) through the engine: %d kernels, "
                "cache %s, compile %.3f ms, exec %.1f ms\n",
                best_config.partitions, served.numKernels,
                served.cacheHit ? "hit" : "miss", served.compileMs,
                served.execMs);
    // Multi-tenant serving shape: several users' feature matrices in
    // flight against the one cached artifact. The batch resolves the
    // artifact once and stripes (request x kernel) units across the
    // session's thread pool; each user's output is bitwise identical
    // to a solo dispatch.
    constexpr int kInFlight = 4;
    std::vector<runtime::NDArray> user_b;
    std::vector<runtime::NDArray> user_c;
    for (int i = 0; i < kInFlight; ++i) {
        user_b.emplace_back(std::vector<int64_t>{g.cols * feat},
                            ir::DataType::float32());
        user_c.emplace_back(std::vector<int64_t>{g.rows * feat},
                            ir::DataType::float32());
    }
    std::vector<engine::SpmmRequest> requests;
    for (int i = 0; i < kInFlight; ++i) {
        requests.push_back(
            engine::SpmmRequest{&user_b[i], &user_c[i]});
    }
    engine::BatchDispatchInfo batch =
        session.spmmHybBatch(g, feat, requests, best_config);
    std::printf("batched: %d requests through one artifact "
                "(cache %s, compile %.3f ms, exec %.1f ms)\n",
                batch.numRequests, batch.cacheHit ? "hit" : "miss",
                batch.compileMs, batch.execMs);

    engine::EngineStats session_stats = session.stats();
    std::printf("session: %llu compile requests, %llu served from "
                "cache\n",
                static_cast<unsigned long long>(session_stats.requests),
                static_cast<unsigned long long>(
                    session_stats.cacheHits));
    return 0;
}
