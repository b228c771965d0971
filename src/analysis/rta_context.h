// Cross-layer cache for repeated response-time analyses.
//
// One schedulability probe is never alone: an experiment point runs a
// baseline and a proposed analysis on the same task set per trial, the
// figure sweeps run up to four, and the sensitivity binary
// search (sensitivity.h) runs the same analysis at dozens of WCET scales.
// Before this class every call re-derived identical state — priority
// orders, per-core workloads W_{j,p}, FIFO blocking vectors B_v, Lemma-3
// verdicts, longest-path DP tables. An RtaContext owns all of it, computed
// lazily once per task set. The structural state is WCET-scale-invariant;
// analyses scale it on the fly through `options.wcet_scale` (multiplying
// by 1.0 is exact, so scale 1 stays bit-identical to the pre-context code
// paths).
//
// Every analysis is cold: each fixed point starts from its base value on
// every call, and the context holds no state that depends on an earlier
// analysis's results. A context reused across WCET scales, options,
// partitions or (through reset()) task sets therefore answers exactly as a
// fresh one (asserted in tests/test_rta_context.cpp).
//
// Ownership rules:
//  * The context borrows the TaskSet: the set must outlive the context and
//    analyses must be invoked with the same set object the context was
//    built for (checked; ModelError otherwise).
//  * NOT thread-safe: use one context per thread. The experiment engine
//    keeps one per worker thread (reset per trial), which keeps results
//    thread-count-invariant.
//  * bind_partition() copies the assignment; re-binding a partition with
//    identical content is a no-op that preserves the caches, while binding
//    a different partition recomputes them (generation counter).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "analysis/federated.h"
#include "analysis/global_rta.h"
#include "analysis/partition.h"
#include "analysis/partitioned_rta.h"
#include "model/task_set.h"
#include "util/bitset.h"
#include "util/time.h"

namespace rtpool::analysis {

class RtaContext {
 public:
  explicit RtaContext(const model::TaskSet& ts);

  const model::TaskSet& task_set() const { return *ts_; }

  /// Rebind this context to `ts`, dropping every cache and the partition
  /// binding — semantically a fresh context — while keeping the capacity
  /// of every internal allocation (vectors, bitset scratch). The engine's
  /// per-worker context reuse rides on this.
  void reset(const model::TaskSet& ts);

  // ---- structural caches (lazy, WCET-scale-invariant) ----

  /// Task indices from highest to lowest priority (== ts.priority_order()).
  const std::vector<std::size_t>& priority_order();

  /// Higher-priority task indices of task i (== ts.higher_priority_of(i)).
  const std::vector<std::size_t>& higher_priority(std::size_t i);

  // ---- partition binding ----

  /// Bind `partition`: computes (once) every task's per-core workload
  /// W_{i,p} and FIFO blocking vector B_v at unit scale into flat
  /// task-major arrays, B_v by one word-parallel sweep over each node's
  /// reachability rows. Re-binding an identical partition (by content) is
  /// a no-op. Throws ModelError on size mismatches or out-of-range thread
  /// ids.
  void bind_partition(const TaskSetPartition& partition);

  bool has_partition() const { return binding_ != 0; }

  /// Monotone generation counter of the current binding (0 = none); bumped
  /// whenever bind_partition() installs different content.
  std::uint64_t binding_generation() const { return binding_; }

  /// W_{i,p} at unit scale (m entries); valid after bind_partition().
  std::span<const util::Time> core_workload(std::size_t i) const {
    return {core_workload_flat_.data() + i * bound_cores_, bound_cores_};
  }

  /// B_v at unit scale (node_count(i) entries); valid after bind_partition().
  std::span<const util::Time> fifo_blocking(std::size_t i) const {
    return {fifo_blocking_flat_.data() + node_offset_[i],
            node_offset_[i + 1] - node_offset_[i]};
  }

  /// Lemma-3 verdict (check_deadlock_free_partitioned) of task i under the
  /// bound partition; computed on first query, cached per binding — the
  /// verdict is structural, hence WCET-scale-invariant.
  bool deadlock_free(std::size_t i);

  // ---- reusable scratch (contents undefined between uses) ----
  std::vector<util::Time>& weights_scratch() { return weights_scratch_; }
  std::vector<util::Time>& dp_scratch() { return dp_scratch_; }
  std::vector<util::Time>& time_scratch() { return time_scratch_; }
  std::vector<std::size_t>& index_scratch() { return index_scratch_; }

  /// One loop-invariant interference term of a partitioned fixed point:
  /// demand += ceil_div(r + jitter, period) * wjp. The analyses hoist
  /// these out of the iteration (they depend only on already-final
  /// higher-priority responses), preserving the exact accumulation order.
  struct InterferenceTerm {
    util::Time wjp;     ///< scale * W_{j,p}.
    util::Time jitter;  ///< max(R_j - wjp, 0).
    util::Time period;  ///< T_j.
  };
  std::vector<InterferenceTerm>& interference_scratch() {
    return interference_scratch_;
  }
  std::vector<std::size_t>& interference_offset_scratch() {
    return interference_offset_scratch_;
  }

  // ---- retired incremental interface (no-ops) ----

  /// No-op: the context records no analysis results. Kept for the serve
  /// stage replica in perfbench/, its last caller.
  void set_snapshots(bool /*enabled*/) {}

  /// No-op that returns 0, the number of verdicts copied from `prior`:
  /// every analysis runs cold. Kept for the serve stage replica in
  /// perfbench/, its last caller.
  std::size_t begin_incremental(
      const RtaContext& /*prior*/,
      const std::vector<std::optional<std::size_t>>& /*task_map*/,
      const std::vector<char>& /*dirty*/ = {}) {
    return 0;
  }

 private:
  void compute_fifo_blocking_row(std::size_t i,
                                 const std::vector<ThreadId>& thread_of);

  const model::TaskSet* ts_;

  std::vector<std::size_t> priority_order_;
  bool priority_order_built_ = false;
  std::vector<std::vector<std::size_t>> higher_priority_;
  std::vector<char> higher_priority_built_;

  TaskSetPartition bound_;
  std::uint64_t binding_ = 0;
  std::size_t bound_cores_ = 0;
  /// Start of task i's nodes in the flat per-node rows (n + 1 entries).
  std::vector<std::size_t> node_offset_;
  /// W_{i,p}, task-major: task i owns [i*m, (i+1)*m).
  std::vector<util::Time> core_workload_flat_;
  /// B_v, task-major: task i owns [node_offset_[i], node_offset_[i+1]).
  std::vector<util::Time> fifo_blocking_flat_;
  std::vector<signed char> deadlock_free_;  ///< -1 unknown, else 0/1.

  std::vector<util::Time> weights_scratch_;
  std::vector<util::Time> dp_scratch_;
  std::vector<util::Time> time_scratch_;
  std::vector<std::size_t> index_scratch_;
  std::vector<InterferenceTerm> interference_scratch_;
  std::vector<std::size_t> interference_offset_scratch_;
  std::vector<util::DynamicBitset> on_core_scratch_;
};

}  // namespace rtpool::analysis
