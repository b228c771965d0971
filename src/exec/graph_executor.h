// Executes a DagTask's nodes as real closures on a ThreadPool, with the
// *blocking* precedence semantics of Listing 1 or the *non-blocking*
// semantics of Listing 2.
//
// Blocking semantics: each BF node runs as a single function that executes
// the fork body, submits its children, then waits on a condition variable
// until the region completes — suspending its worker and reducing the
// pool's available concurrency, exactly the hazard the paper analyzes.
// With enough concurrent BF nodes (e.g. two replicas of Figure 1(a) on two
// workers) the execution deadlocks; the runtime guard (exec/guard.h) then
// detects the quiescent pool, reconstructs the wait-for graph among the
// suspended forks, and recovers per the configured RecoveryPolicy instead
// of hanging (or blindly timing out) forever.
//
// Non-blocking semantics: every node (including BF/BJ) is its own closure
// dispatched when its predecessors complete — the sporadic DAG model of
// Listing 2, which cannot deadlock.
//
// Robustness guarantees:
//  * a node body that throws degrades to a failed run (failed_nodes /
//    first_error in the report), never std::terminate and never a hang:
//    the node still completes structurally so every barrier opens;
//  * an ExecOptions::faults plan injects seeded misbehavior (WCET overrun,
//    stall, throw, dropped notify) for testing the guard — see exec/fault.h;
//  * a run over a partitioned assignment suppresses work stealing for its
//    duration (stealing breaks the Eq. (3) placement Lemma 3 relies on).
#pragma once

#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/partition.h"
#include "exec/fault.h"
#include "exec/guard.h"
#include "exec/thread_pool.h"
#include "model/dag_task.h"

namespace rtpool::exec {

struct ExecOptions {
  /// Per-node busy work: each node spins for wcet * microseconds_per_unit
  /// microseconds before invoking `body` (0 = no synthetic work).
  double microseconds_per_unit = 0.0;
  /// Guard budget: if the run makes NO progress for this long it is
  /// declared stalled (budget verdict). Progress resets the clock, so a
  /// slow-but-advancing run is never cancelled by this.
  std::chrono::milliseconds watchdog{2000};
  /// Node-to-worker assignment; required when the pool is kPerWorker.
  std::optional<analysis::NodeAssignment> assignment;

  /// What the guard does on a confirmed stall (see exec/guard.h).
  RecoveryPolicy recovery = RecoveryPolicy::kReport;
  /// Guard sampling interval.
  std::chrono::milliseconds guard_poll{5};
  /// Injection cap under RecoveryPolicy::kEmergencyWorker.
  std::size_t max_emergency_workers = 2;
  /// Seeded fault plan (empty = clean run).
  FaultPlan faults;

  /// Liveness: stale-heartbeat budget before a busy worker counts as hung
  /// (see GuardOptions::liveness).
  std::chrono::milliseconds worker_liveness{400};
  /// Replacement workers spawned per run before degrading to a smaller
  /// pool (see GuardOptions::max_respawns).
  std::size_t max_worker_respawns = 4;
  /// Backoff before the second respawn; doubles per use.
  std::chrono::milliseconds respawn_backoff{20};
};

struct ExecReport {
  bool completed = false;            ///< False = cancelled by the guard.
  std::size_t nodes_executed = 0;
  std::size_t max_blocked_workers = 0;  ///< Peak suspended workers.
  std::chrono::microseconds elapsed{0};

  /// Nodes whose body threw (exception contained, run degraded).
  std::vector<model::NodeId> failed_nodes;
  /// what() of the first contained exception ("" if none).
  std::string first_error;
  /// Guard diagnosis; present when a stall was confirmed — even when
  /// emergency workers then rescued the run (completed stays true).
  std::optional<StallReport> stall;
  /// Emergency workers injected into the pool by this run.
  std::size_t emergency_workers = 0;
  /// Lost wakeups the guard healed by re-notifying.
  std::size_t lost_wakeups_recovered = 0;

  /// Dead/hung workers the guard detected and recovered during the run
  /// (each killed worker's work was requeued and executed exactly once).
  std::vector<WorkerRecovery> worker_recoveries;
  /// Replacement workers spawned by the guard.
  std::size_t workers_respawned = 0;
  /// Present when the respawn budget ran out and the pool degraded to a
  /// smaller size than the analysis admitted.
  std::optional<DegradedReport> degraded;

  /// Clean success: completed, no failed nodes, no stall diagnosis, no
  /// worker lost (a recovered run completed, but not cleanly).
  bool ok() const {
    return completed && failed_nodes.empty() && !stall.has_value() &&
           worker_recoveries.empty() && !degraded.has_value();
  }
};

/// One-shot executor (create per run).
class GraphExecutor {
 public:
  /// `body(v)` is invoked for every node (may be a no-op). The pool must
  /// outlive the executor. Throws std::invalid_argument if a kPerWorker
  /// pool is used without an assignment (or vice versa a bad assignment).
  GraphExecutor(ThreadPool& pool, const model::DagTask& task);

  /// Run with Listing-1 semantics (condition-variable barriers). Throws
  /// StallError when a stall is confirmed under RecoveryPolicy::kFailFast.
  ExecReport run_blocking(const ExecOptions& options,
                          const std::function<void(model::NodeId)>& body = {});

  /// Run with Listing-2 semantics (every node a dedicated closure).
  ExecReport run_non_blocking(const ExecOptions& options,
                              const std::function<void(model::NodeId)>& body = {});

 private:
  ThreadPool& pool_;
  const model::DagTask& task_;
};

}  // namespace rtpool::exec
