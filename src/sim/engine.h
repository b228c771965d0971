// Discrete-event simulator of parallel tasks executed by thread pools
// (the system model of Section 2, executable).
//
// Simulated mechanics:
//  * m identical cores; each task τ_i owns a pool Φ_i of m threads at the
//    task's fixed priority π_i.
//  * Thread scheduling is global (the m highest-priority busy threads run,
//    threads migrate freely) or partitioned (thread φ_{i,j} is pinned to
//    core j) — fixed-priority preemptive in both cases; equal-priority
//    threads never preempt each other.
//  * Intra-pool dispatching is work-conserving FIFO: one logical queue per
//    pool under global scheduling, one queue per thread under partitioned
//    scheduling (nodes then need a node-to-thread assignment).
//  * Nodes run to completion on their serving thread (no intra-pool
//    preemption or migration of nodes), but the thread itself can be
//    preempted by higher-priority threads.
//  * A BF node spawns its children on completion and *suspends its thread*
//    until the whole blocking region completes; the matching BJ then runs
//    directly on the resumed thread (it never passes through a queue) —
//    the condition-variable semantics of Listing 1.
//
// The simulator measures response times, deadline misses, the available
// concurrency l(t, τ) (minimum observed), optionally a full execution
// trace, and detects *permanent* stalls (deadlocks) exactly, reporting the
// first deadlocked task with a witness description.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/partition.h"
#include "model/task_set.h"
#include "util/rng.h"
#include "util/time.h"

namespace rtpool::sim {

enum class SchedulingPolicy { kGlobal, kPartitioned };

struct SimConfig {
  SchedulingPolicy policy = SchedulingPolicy::kGlobal;
  /// Simulate releases in [0, horizon); running jobs are completed or cut
  /// off at `horizon` (earlier when the run halts on a miss or a deadlock).
  /// A cut-off job counts as a deadline miss only if its deadline lies
  /// before the cut-off time, or its task deadlocked.
  util::Time horizon = 0.0;
  /// Node-to-thread assignment; required when policy == kPartitioned.
  std::optional<analysis::TaskSetPartition> partition;
  /// Partitioned only: idle threads with an empty own queue steal from the
  /// back of a sibling queue (footnote 1 of the paper: practical
  /// implementations replicate global scheduling with work stealing).
  /// Stealing lets queued nodes escape a suspended thread, so partitions
  /// that deadlock under strict per-thread FIFO may complete.
  bool work_stealing = false;
  /// Record per-node execution intervals (costs memory; for demos/tests).
  bool collect_trace = false;
  /// Stop at the first deadline miss (the schedulability verdict is final).
  bool stop_on_miss = false;
  /// Sporadic release jitter: job k+1 is released T + U[0, jitter_frac*T]
  /// after job k (0 = strictly periodic, synchronous start at time 0).
  double release_jitter_frac = 0.0;
  /// Seed for sporadic jitter (unused when jitter is 0).
  std::uint64_t seed = 1;
};

/// One completed (or cut-off) job.
struct JobRecord {
  std::size_t task_index = 0;
  std::uint64_t job_number = 0;
  util::Time release = 0.0;
  util::Time completion = 0.0;  ///< Cut-off time when cut off (see SimConfig::horizon).
  util::Time response = 0.0;
  bool completed = false;
  bool deadline_miss = false;

  friend bool operator==(const JobRecord&, const JobRecord&) = default;
};

/// Aggregates per task.
struct TaskStats {
  std::size_t jobs_released = 0;
  std::size_t jobs_completed = 0;
  std::size_t deadline_misses = 0;
  util::Time max_response = 0.0;
  /// Minimum observed available concurrency l(t, τ) while a job was in
  /// progress (= pool size if the task never blocks).
  long min_available_concurrency = 0;

  friend bool operator==(const TaskStats&, const TaskStats&) = default;
};

/// A node execution interval on a core (trace entry).
struct ExecutionInterval {
  std::size_t core = 0;
  std::size_t task_index = 0;
  model::NodeId node = 0;
  util::Time start = 0.0;
  util::Time end = 0.0;

  friend bool operator==(const ExecutionInterval&, const ExecutionInterval&) =
      default;
};

/// Permanent stall report.
struct DeadlockInfo {
  std::size_t task_index = 0;
  util::Time time = 0.0;
  std::string description;

  friend bool operator==(const DeadlockInfo&, const DeadlockInfo&) = default;
};

struct SimResult {
  std::vector<JobRecord> jobs;
  std::vector<TaskStats> per_task;
  std::optional<DeadlockInfo> deadlock;
  std::vector<ExecutionInterval> trace;
  bool any_deadline_miss = false;

  /// Largest observed response time of a task (0 if it never completed a job).
  util::Time max_response(std::size_t task_index) const {
    return per_task.at(task_index).max_response;
  }

  friend bool operator==(const SimResult&, const SimResult&) = default;
};

/// Run the simulation. Throws std::invalid_argument on inconsistent
/// configuration (missing partition, non-positive horizon, ...).
SimResult simulate(const model::TaskSet& ts, const SimConfig& config);

// ---------------------------------------------------------------------------
// Oracle mode: the simulator as a necessary-condition check.
//
// Analysis is sufficient, simulation is necessary: an analysis that accepts
// a set which the simulator then runs into a deadline miss or a deadlock is
// UNSOUND (the safety direction). oracle_verdict condenses a run into the
// structured verdict the corpus runner, the CLI `--simulate` view, witness
// replay and the gap_analysis sweep all consume, with a handle on the full
// result (trace included when requested) for the first violation.
// ---------------------------------------------------------------------------

enum class SimOutcome : unsigned char {
  kOk,            ///< Every job in the horizon met its deadline.
  kDeadlineMiss,  ///< At least one job missed (first one reported).
  kDeadlock,      ///< A permanent stall (Lemma 1/2 territory) was detected.
};

/// Canonical names: "ok" / "deadline-miss" / "deadlock" (witness schema).
const char* to_string(SimOutcome outcome);

/// Inverse of to_string; throws std::invalid_argument on unknown names.
SimOutcome parse_sim_outcome(const std::string& name);

struct OracleOptions {
  SchedulingPolicy policy = SchedulingPolicy::kGlobal;
  /// Required when policy == kPartitioned.
  std::optional<analysis::TaskSetPartition> partition;
  /// Horizon = windows * max period (>= 1 job of every task; 4 windows
  /// catches backlog-induced misses).
  double windows = 4.0;
  bool work_stealing = false;
  /// Record the full execution trace in the attached result (memory!).
  bool collect_trace = false;
  double release_jitter_frac = 0.0;
  std::uint64_t seed = 1;
};

/// Structured oracle verdict: outcome + first-violation coordinates + a
/// shared handle on the full simulation result.
struct SimVerdict {
  SimOutcome outcome = SimOutcome::kOk;
  /// Valid when outcome != kOk: the violating task / detection time.
  std::size_t first_violation_task = 0;
  util::Time first_violation_time = 0.0;
  /// Human-readable one-liner ("task 2 job 3 missed: R=41.5 > D=30", or the
  /// deadlock witness description).
  std::string description;
  util::Time horizon = 0.0;
  /// The full run (per-task stats, job records, trace when requested).
  std::shared_ptr<const SimResult> result;

  bool safe() const { return outcome == SimOutcome::kOk; }
};

/// Simulate `ts` with stop-on-first-miss semantics and condense the run into
/// a SimVerdict. Throws like simulate() on inconsistent configuration.
SimVerdict oracle_verdict(const model::TaskSet& ts, const OracleOptions& options);

}  // namespace rtpool::sim
