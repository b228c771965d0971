// Cross-layer cache for repeated response-time analyses.
//
// One schedulability probe is never alone: an experiment point runs a
// baseline and a proposed analysis on the same task set per trial, the
// figure sweeps run up to four, and the sensitivity binary
// search (sensitivity.h) runs the same analysis at dozens of WCET scales.
// Before this class every call re-derived identical state — priority
// orders, per-core workloads W_{j,p}, FIFO blocking vectors B_v, Lemma-3
// verdicts, topological orders, longest-path DP tables. An RtaContext owns
// all of it, computed lazily once per task set. The structural state is
// WCET-scale-invariant; analyses scale it on the fly through
// `options.wcet_scale` (multiplying by 1.0 is exact, so scale 1 stays
// bit-identical to the pre-context code paths).
//
// Flat layout: the context owns a model::TaskSetView — a structure-of-
// arrays mirror of the task set (per-node WCETs, periods, deadlines,
// volumes in contiguous arrays) backed by a per-context std::pmr monotonic
// arena — and stores the partition-bound state (W_{i,p}, B_v) as flat
// task-major arrays. The RTA fixed points and the blocking kernel stream
// these arrays instead of chasing DagTask/Node objects. `reset()` rebinds
// the context to a new task set while keeping every allocation's capacity,
// which lets the experiment engine reuse one context per worker thread
// across trials (the arena is reset, not freed, between trials).
//
// Every fixed point starts from its base value on every call: a context
// reused across WCET scales, options or partitions carries only the
// structural caches above, so its results equal a fresh context's
// (asserted over scale sweeps in tests/test_rta_context.cpp). The one way
// a context reuses an earlier run's RESULTS is the incremental copy below.
//
// Incremental re-analysis: with `set_snapshots(true)`, every completed
// analyze_global / analyze_partitioned run records a per-task result
// snapshot (and, when diagnostics were on, the per-task certificate
// payloads). A later context for a CHANGED task set calls
// `begin_incremental(prior, task_map, dirty)`; the analyses then copy the
// recorded verdicts for the longest priority-order prefix of tasks whose
// inputs are provably unchanged — see begin_incremental for the exact
// guard — instead of re-running their fixed points, and bind_partition
// copies unchanged tasks' W_{i,p} rows, B_v vectors and Lemma-3 verdicts.
// The RTA of a task is a deterministic function of (task structure, the
// ordered higher-priority interference terms, options, scale, partition
// row), so results are bit-identical to a cold full run by construction;
// property-tested in tests/test_incremental.cpp.
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
#include <memory_resource>
#include <optional>
#include <span>
#include <vector>

#include "analysis/cert.h"
#include "analysis/federated.h"
#include "analysis/global_rta.h"
#include "analysis/partition.h"
#include "analysis/partitioned_rta.h"
#include "model/task_set.h"
#include "model/task_set_view.h"
#include "util/bitset.h"
#include "util/time.h"

namespace rtpool::analysis {

/// True if the two option sets describe the same analysis up to the WCET
/// scale — the options guard of an incremental copy.
bool same_analysis(const GlobalRtaOptions& a, const GlobalRtaOptions& b);
bool same_analysis(const PartitionedRtaOptions& a, const PartitionedRtaOptions& b);

class RtaContext {
 public:
  explicit RtaContext(const model::TaskSet& ts);

  const model::TaskSet& task_set() const { return *ts_; }

  /// Rebind this context to `ts`, dropping every cache, the partition
  /// binding, snapshots and incremental state — semantically a
  /// fresh context — while keeping the capacity of every internal
  /// allocation (vectors, bitset scratch, the view arena). The engine's
  /// per-worker context reuse rides on this.
  void reset(const model::TaskSet& ts);

  // ---- flat SoA mirror ----

  /// Structure-of-arrays mirror of the task set, built on first use into
  /// the context's arena (reset() releases and lazily rebuilds it).
  const model::TaskSetView& view();

  // ---- structural caches (lazy, WCET-scale-invariant) ----

  /// Task indices from highest to lowest priority (== ts.priority_order()).
  const std::vector<std::size_t>& priority_order();

  /// Higher-priority task indices of task i (== ts.higher_priority_of(i)).
  const std::vector<std::size_t>& higher_priority(std::size_t i);

  /// Topological order of task i's DAG (served from the task's own cache).
  const std::vector<graph::NodeId>& topo_order(std::size_t i);

  // ---- partition binding ----

  /// Bind `partition`: computes (once) every task's per-core workload
  /// W_{i,p} and FIFO blocking vector B_v at unit scale into flat
  /// task-major arrays, using the word-parallel
  /// `Reachability::unordered_mask` kernel. Re-binding an identical
  /// partition (by content) is a no-op. When incremental state is active,
  /// rows of tasks that are clean and keep their node-to-thread assignment
  /// are copied from the prior context instead of recomputed (pure
  /// functions of unchanged inputs). Throws ModelError on size mismatches
  /// or out-of-range thread ids.
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
    return {fifo_blocking_flat_.data() + view_.node_offset(i),
            view_.node_count(i)};
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

  // ---- result snapshots + incremental re-analysis ----

  /// When enabled, analyze_global / analyze_partitioned record a per-task
  /// result snapshot after every completed run (plus the certificate
  /// payloads when diagnostics were on). Off by default: the experiment
  /// engine's throwaway per-trial contexts skip the copy.
  void set_snapshots(bool enabled) { snapshots_enabled_ = enabled; }
  bool snapshots_enabled() const { return snapshots_enabled_; }

  /// Snapshot of the last completed analyze_global run on this context.
  struct GlobalSnapshot {
    bool valid = false;
    double scale = 0.0;
    std::size_t cores = 0;
    GlobalRtaOptions options;
    std::vector<TaskRta> per_task;
    /// The response[] array as committed for hp interference (finite for
    /// converged-but-missing tasks, infinite for diverged ones).
    std::vector<util::Time> committed;
    /// Per-task certificate payloads (only when the run had diagnostics).
    std::optional<cert::GlobalCert> cert;
  };

  /// Snapshot of the last completed analyze_partitioned run.
  struct PartitionedSnapshot {
    bool valid = false;
    double scale = 0.0;
    std::size_t cores = 0;
    PartitionedRtaOptions options;
    std::vector<PartitionedTaskRta> per_task;
    std::vector<util::Time> committed;
    /// The analyzed node-to-thread partition, echoed per task — the reuse
    /// guard compares rows against the new partition.
    std::vector<std::vector<ThreadId>> thread_of;
    std::optional<cert::PartitionedCert> cert;
  };

  GlobalSnapshot& global_snapshot() { return global_snapshot_; }
  PartitionedSnapshot& partitioned_snapshot() { return partitioned_snapshot_; }

  /// Sentinel for "task has no prior incarnation".
  static constexpr std::size_t kNoPrior = static_cast<std::size_t>(-1);

  /// Arm incremental re-analysis against `prior` (a context whose last
  /// analyses were recorded via set_snapshots(true)). `task_map[i]` is the
  /// prior index of this set's task i (nullopt = new task); `dirty[i]`
  /// marks a mapped task whose content changed (empty = none dirty).
  ///
  /// Computes the longest prefix of this set's priority order whose
  /// verdicts can be COPIED from the prior run. Task idx (at priority
  /// position k, prior incarnation j) is in the prefix iff
  ///   * it is mapped and not dirty (caller guarantees: identical graph,
  ///     node WCETs/types, period, deadline), and
  ///   * every higher-priority task (positions 0..k-1) is in the prefix,
  ///     and their prior incarnations are EXACTLY the prior higher-priority
  ///     set of j (checked against the prior priority values) — so the
  ///     ordered interference inputs of j's fixed point are unchanged.
  /// Family-specific guards (same options fingerprint, equal wcet_scale,
  /// equal core count, equal partition rows, certificate availability) are
  /// applied per analyze call on top of this structural prefix.
  ///
  /// Copies everything needed out of `prior` (snapshots, partition-bound
  /// flat rows); `prior` may be destroyed afterwards. Returns the prefix
  /// length. Throws ModelError on task_map size/range mismatches.
  std::size_t begin_incremental(
      const RtaContext& prior,
      const std::vector<std::optional<std::size_t>>& task_map,
      const std::vector<char>& dirty = {});

  bool incremental_active() const { return incremental_.active; }
  std::size_t incremental_prefix() const { return incremental_.prefix; }
  /// Prior index per task (kNoPrior when unmapped); valid when active.
  const std::vector<std::size_t>& incremental_prior_index() const {
    return incremental_.prior_index;
  }
  const GlobalSnapshot& incremental_prior_global() const {
    return incremental_.prior_global;
  }
  const PartitionedSnapshot& incremental_prior_partitioned() const {
    return incremental_.prior_partitioned;
  }

  /// Number of per-task fixed points skipped by copying prior verdicts.
  std::size_t incremental_hits() const { return incremental_hits_; }
  void note_incremental_hit() { ++incremental_hits_; }

 private:
  void rebuild_view();
  void compute_fifo_blocking_row(std::size_t i,
                                 const std::vector<ThreadId>& thread_of);

  const model::TaskSet* ts_;

  // ---- flat SoA mirror + arena ----
  std::vector<std::byte> arena_buffer_;
  std::optional<std::pmr::monotonic_buffer_resource> view_arena_;
  model::TaskSetView view_;
  bool view_built_ = false;

  std::vector<std::size_t> priority_order_;
  bool priority_order_built_ = false;
  std::vector<std::vector<std::size_t>> higher_priority_;
  std::vector<char> higher_priority_built_;

  TaskSetPartition bound_;
  std::uint64_t binding_ = 0;
  std::size_t bound_cores_ = 0;
  /// W_{i,p}, task-major: task i owns [i*m, (i+1)*m).
  std::vector<util::Time> core_workload_flat_;
  /// B_v, task-major: task i owns [view.node_offset(i), +node_count(i)).
  std::vector<util::Time> fifo_blocking_flat_;
  std::vector<signed char> deadlock_free_;  ///< -1 unknown, else 0/1.

  std::vector<util::Time> weights_scratch_;
  std::vector<util::Time> dp_scratch_;
  std::vector<util::Time> time_scratch_;
  std::vector<std::size_t> index_scratch_;
  std::vector<InterferenceTerm> interference_scratch_;
  std::vector<std::size_t> interference_offset_scratch_;
  std::vector<util::DynamicBitset> on_core_scratch_;

  bool snapshots_enabled_ = false;
  GlobalSnapshot global_snapshot_;
  PartitionedSnapshot partitioned_snapshot_;

  struct Incremental {
    bool active = false;
    std::size_t prefix = 0;
    std::vector<std::size_t> prior_index;  ///< kNoPrior when unmapped.
    std::vector<char> clean;               ///< mapped && !dirty, per task.
    GlobalSnapshot prior_global;
    PartitionedSnapshot prior_partitioned;
    /// Prior partition-bound flat state for W/B/Lemma-3 row reuse.
    std::vector<util::Time> prior_core_workload_flat;
    std::vector<util::Time> prior_fifo_blocking_flat;
    std::vector<std::size_t> prior_node_offset;
    std::vector<std::vector<ThreadId>> prior_thread_of;
    std::vector<signed char> prior_deadlock_free;
    std::size_t prior_cores = 0;
  };
  Incremental incremental_;
  std::size_t incremental_hits_ = 0;
};

}  // namespace rtpool::analysis
