/**
 * @file
 * Performance tuning over the joint space of composable formats and
 * composable transformations (paper §2): grid search with the GPU
 * simulator as the cost oracle.
 */

#ifndef SPARSETIR_AUTOTUNE_SEARCH_H_
#define SPARSETIR_AUTOTUNE_SEARCH_H_

#include <cstdint>
#include <vector>

#include "core/pipeline.h"
#include "format/csr.h"
#include "gpusim/simulator.h"

namespace sparsetir {
namespace autotune {

/** One evaluated hyb configuration. */
struct HybCandidate
{
    int c = 1;
    int k = 0;
    double timeMs = 0.0;
};

/** Search result. */
struct HybTuneResult
{
    HybCandidate best;
    std::vector<HybCandidate> tried;
};

/**
 * Search column-partition counts (paper: c in {1,2,4,8,16}, k fixed to
 * ceil(log2(nnz/rows))) for the hyb SpMM of one matrix. Candidates
 * are compiled with the GPU schedule (core::compileSpmmHyb), the one
 * the simulator models. The engine serves the host schedule, which no
 * tuner here measures: its compile cache holds no simulable kernels.
 */
HybTuneResult tuneSpmmHyb(const format::Csr &a, int64_t feat,
                          gpusim::Device &device,
                          const std::vector<int> &partitions = {1, 2, 4,
                                                                8, 16});

/** One evaluated SDDMM schedule. */
struct SddmmCandidate
{
    core::SddmmSchedule schedule;
    double timeMs = 0.0;
};

/** Search SDDMM schedule parameters (workloads per block, group). */
SddmmCandidate tuneSddmm(const format::Csr &a, int64_t feat,
                         gpusim::Device &device);

} // namespace autotune
} // namespace sparsetir

#endif // SPARSETIR_AUTOTUNE_SEARCH_H_
