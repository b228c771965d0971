// Simulation-based NECESSARY schedulability condition.
//
// The analyses of Section 4 are sufficient-only. Running the simulator on
// the synchronous-periodic instantiation gives the complementary necessary
// condition: if some job misses its deadline (or the pool deadlocks) in
// this concrete legal scenario, the task set is definitely not schedulable.
// (For global FP scheduling of DAG tasks the synchronous arrival sequence
// is NOT a proven critical instant, so passing the simulation does not
// prove schedulability — the gap between the two conditions brackets the
// analysis pessimism, measured by `sweep --figure gap_analysis`.)
#pragma once

#include "analysis/partition.h"
#include "model/task_set.h"

namespace rtpool::exp {

enum class SimPolicy { kGlobal, kPartitioned };

struct NecessityOptions {
  /// Simulated windows: horizon = windows * max period.
  double windows = 4.0;
  /// Extra sporadic-jitter scenarios simulated on top of the synchronous
  /// one (each with a different seed); any miss anywhere fails the test.
  int jitter_scenarios = 0;
  double jitter_frac = 0.3;
};

/// True iff no deadline miss and no deadlock was observed — a NECESSARY
/// condition for schedulability. For kPartitioned, `partition` must be set.
bool passes_simulation(const model::TaskSet& ts, SimPolicy policy,
                       const std::optional<analysis::TaskSetPartition>& partition,
                       const NecessityOptions& options = {});

}  // namespace rtpool::exp
