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
#include "engine/engine.h"
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
 * the simulator models; the engine serves the host schedule, so its
 * compile cache holds no simulable kernels.
 */
HybTuneResult tuneSpmmHyb(const format::Csr &a, int64_t feat,
                          gpusim::Device &device,
                          const std::vector<int> &partitions = {1, 2, 4,
                                                                8, 16});

/**
 * Host-measured search: evaluate each hyb(c) candidate by actually
 * executing warm dispatches through `session` (bytecode VM backend
 * by default) and timing the wall clock, instead of consulting the
 * analytical simulator. One priming dispatch per candidate fills the
 * compile cache so the measurement isolates the serving path the
 * engine would really run; timeMs is the mean of `rounds` warm
 * dispatches. Use when the serving hardware itself is the target
 * (host latency tuning), and the simulator overload when predicting
 * GPU behavior.
 *
 * `in_flight` > 1 measures the batched serving shape instead: each
 * round dispatches that many concurrent requests (private feature/
 * output pairs) through one prepared artifact, and timeMs is the
 * mean wall time per REQUEST — so the tuner optimizes throughput
 * under load, which can prefer a different partition count than
 * single-request latency does.
 */
HybTuneResult tuneSpmmHybMeasured(const format::Csr &a, int64_t feat,
                                  engine::Engine &session,
                                  const std::vector<int> &partitions =
                                      {1, 2, 4, 8, 16},
                                  int rounds = 3, int in_flight = 1);

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
