#include "autotune/search.h"

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
