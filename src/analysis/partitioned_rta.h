// Partitioned fixed-priority response-time analysis (Section 4.2).
//
// The paper analyzes partitioned task sets with the method of Fonseca et
// al. [10] combined with the SPLIT treatment of self-suspensions. We
// implement a documented segment-based variant of that approach (see
// DESIGN.md, "Substitutions"):
//
//  * Every node v of τ_i is a *segment* executing on core p = T(v).
//  * The segment response time R_v is the least fixed point of
//
//      x = C_v + B_v + Σ_{j ∈ hp(i), W_{j,p} > 0} ceil((x + J_{j,p})/T_j)·W_{j,p}
//
//    where W_{j,p} is τ_j's total WCET on core p, J_{j,p} = R_j − W_{j,p}
//    is the standard suspension-as-jitter bound, and B_v is the FIFO
//    work-queue blocking: the WCETs of τ_i's own nodes on core p that are
//    not precedence-ordered with v (each can sit in the queue ahead of v
//    at most once per job). BJ segments take B_v = 0: a join does not pass
//    through the work-queue; it resumes the suspended function directly.
//  * The task response time is the longest path through the DAG with node
//    weights R_v — interference is charged once per segment, as in SPLIT.
//
// This analysis is agnostic to reduced-concurrency delays (a node queued
// behind a *suspended* thread), exactly like the state of the art the paper
// discusses: it is only safe for partitions where such delays cannot occur,
// e.g. those produced by Algorithm 1. `analyze_partitioned` therefore
// reports, alongside the response times, whether the partition satisfies
// Eq. (3) (no reduced-concurrency delay / deadlock, Lemma 3).
#pragma once

#include <vector>

#include "analysis/partition.h"
#include "model/task_set.h"
#include "util/time.h"

namespace rtpool::analysis {

namespace cert {
struct PartitionedCert;
}  // namespace cert

/// Composition rule for the per-core interference.
enum class PartitionedBound {
  /// SPLIT-style: interference charged once per *segment* (node); the task
  /// response time is the longest path over segment response times. The
  /// default, matching the description above.
  kSplitPerSegment,
  /// Holistic: interference of each hp task charged once per *core* over
  /// the whole response window; the base is the longest path over
  /// C_v + B_v. Less pessimistic when a task has many segments per core,
  /// more pessimistic when the per-core footprints are small (ablation
  /// bench `ablation_partition`).
  kHolisticPath,
};

struct PartitionedRtaOptions {
  int max_iterations = 100000;
  /// When true (default), a task set whose partition violates Eq. (3) or
  /// whose l̄(τ) <= 0 is marked unschedulable (the RTA result would be
  /// unsafe). Disable to reproduce the *baseline* behaviour of prior work
  /// that ignores reduced concurrency ([10] as used in Section 5).
  bool require_deadlock_free = true;
  PartitionedBound bound = PartitionedBound::kSplitPerSegment;
  /// Analyze as if every WCET were multiplied by this factor (> 0) without
  /// materializing a scaled task set: per-core workloads and blocking
  /// vectors are scaled on the fly from the cached unit-scale vectors.
  /// 1.0 is bit-identical to the unscaled analysis (sensitivity fast path).
  double wcet_scale = 1.0;
};

struct PartitionedTaskRta {
  util::Time response_time = util::kTimeInfinity;
  bool schedulable = false;
  bool deadlock_free = false;  ///< Lemma 3 verdict for this task's partition.
};

struct PartitionedRtaResult {
  bool schedulable = false;
  std::vector<PartitionedTaskRta> per_task;
};

class RtaContext;

/// Per-node FIFO work-queue blocking vector B_v for one task under a
/// node-to-thread assignment: B_v = Σ C_u over same-core nodes u that are
/// precedence-unordered with v (each can sit in the FIFO queue ahead of v
/// at most once per job); BJ nodes take B_v = 0 (a join resumes the
/// suspended function directly, it never passes through the queue).
///
/// Computed word-parallel from `Reachability::unordered_mask`: O(|V|²/64)
/// per (task, assignment) instead of the former O(|V|²) pointer-chasing
/// double loop per analyze call. The summation visits qualifying nodes in
/// ascending id order, so the result is bit-identical to the naive double
/// loop (property-tested in tests/test_rta_context.cpp).
std::vector<util::Time> fifo_blocking_vector(const model::DagTask& task,
                                             const NodeAssignment& assignment);

/// Per-core WCET footprint W_{i,p} of one task under an assignment
/// (length = `cores`). Thread ids must be < cores (throws ModelError).
std::vector<util::Time> per_core_workload_vector(const model::DagTask& task,
                                                 const NodeAssignment& assignment,
                                                 std::size_t cores);

/// Analyze `ts` under the node-to-thread `partition`. Priorities must be
/// distinct. Throws ModelError on malformed inputs (size mismatches,
/// out-of-range thread ids).
///
/// `ctx` (optional) must have been built for `ts`; it caches the blocking
/// vectors, per-core workloads and Lemma-3 verdicts per (task, partition)
/// binding (see rta_context.h). Results are identical with or without a
/// context.
///
/// `certificate` (optional): when non-null, filled with a machine-checkable
/// proof of the result (see cert.h) — the partition echo with core loads,
/// per-segment blocking/response operands, deadline-miss iterates, and the
/// Lemma-3 witnesses.
PartitionedRtaResult analyze_partitioned(const model::TaskSet& ts,
                                         const TaskSetPartition& partition,
                                         const PartitionedRtaOptions& options = {},
                                         RtaContext* ctx = nullptr,
                                         cert::PartitionedCert* certificate = nullptr);

}  // namespace rtpool::analysis
