#include "autotune/search.h"

#include <chrono>

#include "baselines/vendor_constants.h"

namespace sparsetir {
namespace autotune {

using core::BindingSet;

HybTuneResult
tuneSpmmHyb(const format::Csr &a, int64_t feat, gpusim::Device &device,
            const std::vector<int> &partitions)
{
    HybTuneResult result;
    gpusim::SimOptions opts;
    opts.efficiency = baselines::kSparseTirEfficiency;
    runtime::NDArray b({a.cols * feat}, ir::DataType::float32());
    runtime::NDArray c({a.rows * feat}, ir::DataType::float32());
    bool first = true;
    for (int partition : partitions) {
        auto bindings = std::make_shared<BindingSet>();
        bindings->external("B_data", &b);
        bindings->external("C_data", &c);
        core::HybSpmm compiled =
            core::compileSpmmHyb(a, feat, partition, -1, bindings);
        std::vector<const gpusim::Kernel *> kernels;
        for (auto &kernel : compiled.kernels) {
            kernels.push_back(&kernel->simKernel());
        }
        HybCandidate candidate;
        candidate.c = partition;
        candidate.k = compiled.hyb.maxWidthLog2;
        candidate.timeMs = device.launchFused(kernels, opts).timeMs;
        result.tried.push_back(candidate);
        if (first || candidate.timeMs < result.best.timeMs) {
            result.best = candidate;
            first = false;
        }
    }
    return result;
}

HybTuneResult
tuneSpmmHybMeasured(const format::Csr &a, int64_t feat,
                    engine::Engine &session,
                    const std::vector<int> &partitions, int rounds,
                    int in_flight)
{
    USER_CHECK(rounds > 0) << "tuneSpmmHybMeasured needs rounds >= 1";
    USER_CHECK(in_flight > 0)
        << "tuneSpmmHybMeasured needs in_flight >= 1";
    HybTuneResult result;
    // Single-request mode reuses one b/c pair; batched mode gives
    // every in-flight request private feature and output arrays,
    // like distinct tenants of one weight matrix. Only the arrays
    // the chosen mode dispatches are allocated.
    runtime::NDArray b;
    runtime::NDArray c;
    std::vector<runtime::NDArray> batch_b;
    std::vector<runtime::NDArray> batch_c;
    std::vector<engine::SpmmRequest> requests;
    if (in_flight == 1) {
        b = runtime::NDArray({a.cols * feat},
                             ir::DataType::float32());
        c = runtime::NDArray({a.rows * feat},
                             ir::DataType::float32());
    } else {
        for (int i = 0; i < in_flight; ++i) {
            batch_b.emplace_back(std::vector<int64_t>{a.cols * feat},
                                 ir::DataType::float32());
            batch_c.emplace_back(std::vector<int64_t>{a.rows * feat},
                                 ir::DataType::float32());
        }
        for (int i = 0; i < in_flight; ++i) {
            requests.push_back(
                engine::SpmmRequest{&batch_b[i], &batch_c[i]});
        }
    }
    bool first = true;
    for (int partition : partitions) {
        engine::HybConfig config;
        config.partitions = partition;
        // Prepare once: fills the compile cache (so the timed rounds
        // measure the warm serving path — value gather + bind + VM
        // execution) and reports the resolved bucket cap.
        engine::PreparedSpmmHyb prepared =
            session.prepareSpmmHyb(a, feat, config);
        auto start = std::chrono::steady_clock::now();
        for (int round = 0; round < rounds; ++round) {
            if (in_flight == 1) {
                c.zero();
                session.spmmHyb(a, feat, &b, &c, config);
            } else {
                session.spmmHybBatch(prepared, requests);
            }
        }
        double elapsed_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        HybCandidate candidate;
        candidate.c = partition;
        candidate.k = prepared.bucketCapLog2;
        candidate.timeMs = elapsed_ms / (rounds * in_flight);
        result.tried.push_back(candidate);
        if (first || candidate.timeMs < result.best.timeMs) {
            result.best = candidate;
            first = false;
        }
    }
    return result;
}

SddmmCandidate
tuneSddmm(const format::Csr &a, int64_t feat, gpusim::Device &device)
{
    gpusim::SimOptions opts;
    opts.efficiency = baselines::kSparseTirEfficiency;
    runtime::NDArray x({a.rows * feat}, ir::DataType::float32());
    runtime::NDArray y({feat * a.cols}, ir::DataType::float32());
    runtime::NDArray out({a.nnz()}, ir::DataType::float32());
    SddmmCandidate best;
    bool first = true;
    for (int workloads : {4, 8, 16, 32}) {
        for (int group : {16, 32}) {
            core::SddmmSchedule schedule;
            schedule.workloadsPerBlock = workloads;
            schedule.groupSize = group;
            auto shared = std::make_shared<BindingSet>();
            shared->external("X_data", &x);
            shared->external("Y_data", &y);
            shared->external("B_data", &out);
            auto kernel = core::compileSddmm(a, feat, shared, schedule);
            double time_ms =
                device.launch(kernel->simKernel(), opts).timeMs;
            if (first || time_ms < best.timeMs) {
                best.schedule = schedule;
                best.timeMs = time_ms;
                first = false;
            }
        }
    }
    return best;
}

} // namespace autotune
} // namespace sparsetir
