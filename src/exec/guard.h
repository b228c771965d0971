// Runtime guard: a wait-for-aware stall watchdog for pool-backed graph runs.
//
// The blind per-run timeout the executor used to rely on could only say "the
// run took too long". The watchdog here reproduces, at runtime, the objects
// the paper's deadlock analysis reasons about statically (Section 3):
//
//  * which workers are suspended on which BF barrier — the runtime image of
//    the suspended-thread set whose size the analysis bounds by b̄(τ);
//  * which submitted nodes are starved behind a suspended worker — the
//    reduced-concurrency hazard Lemma 3 / Eq. (3) excludes by placement;
//  * the wait-for relation among the blocked forks — when every in-flight
//    closure is suspended and no queued closure is reachable by an unblocked
//    worker, the blocked forks wait on threads held (cyclically) by each
//    other: the runtime counterpart of the Lemma 2 wait-for cycle on the WC
//    graph (analysis/deadlock.h), and tests cross-check the two witnesses.
//
// Detection is *progress-based*, not wall-clock based: a run that merely
// takes long keeps resetting the budget as long as state changes, so a run
// completing at/near the budget is never misreported as stalled. A stall is
// declared either when the quiescence criterion above holds on consecutive
// samples (a proof: nothing can change state except a wakeup, and satisfied
// barriers are re-notified separately), or when the hard no-progress budget
// expires (an overrun verdict: `budget_exhausted` is set and no wait-for
// cycle is claimed).
//
// Recovery is policy-driven, in the styles production pools use:
//   kReport          — cancel the run and hand back the diagnosis;
//   kEmergencyWorker — inject a temporary pool worker to break the cycle
//                      (TensorFlow-style), recording that the pool size m
//                      assumed by the analysis was exceeded;
//   kFailFast        — cancel and make the executor throw StallError.
//
// Independently of stall detection, the watchdog runs a LIVENESS check over
// the pool's per-worker heartbeat epochs: a worker that exited outside the
// drain protocol (crash) or whose epoch goes stale while busy-but-unblocked
// (hang) is condemned, its in-flight node re-dispatched, and a replacement
// spawned under a bounded respawn-with-backoff policy. A hung worker thus
// yields a liveness verdict (WorkerRecovery), never a spurious deadlock
// report — a parked worker keeps active() above blocked_workers() until it
// is condemned, so the quiescence proof cannot fire on it. When the respawn
// budget runs out the pool degrades to its surviving size and the run
// carries a DegradedReport.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "model/dag_task.h"
#include "util/thread_annotations.h"

namespace rtpool::exec {

/// What the watchdog does once a stall is confirmed.
enum class RecoveryPolicy { kReport, kEmergencyWorker, kFailFast };

const char* to_string(RecoveryPolicy policy);

/// One worker suspended at a BF barrier.
struct BlockedForkInfo {
  model::NodeId fork;                 ///< The BF node whose barrier it waits on.
  std::optional<std::size_t> worker;  ///< Pool worker index (nullopt: external).
  std::size_t remaining = 0;          ///< Unfinished nodes gating the barrier.
};

/// A node submitted to the pool that no unblocked worker can reach.
struct StarvedNodeInfo {
  model::NodeId node;
  std::optional<std::size_t> queued_on;  ///< Target worker (nullopt: shared queue).
};

/// Structured stall diagnosis, the runtime analogue of the static witnesses
/// in analysis/deadlock.h.
struct StallReport {
  std::chrono::milliseconds detected_after{0};  ///< Since run start.
  std::size_t pool_workers = 0;                 ///< m (base workers).
  std::size_t blocked_workers = 0;              ///< Suspended at detection.
  std::vector<BlockedForkInfo> blocked;         ///< Who blocks on which region.
  std::vector<StarvedNodeInfo> starved;         ///< Queued-but-starved nodes.
  /// Wait-for cycle among the blocked forks (each waits for a thread held by
  /// the next, cyclically; a single element = self-starvation behind its own
  /// thread, the Lemma 3 hazard). Empty when `budget_exhausted` — an overrun
  /// verdict makes no deadlock claim.
  std::vector<model::NodeId> wait_cycle;
  RecoveryPolicy policy = RecoveryPolicy::kReport;
  std::size_t emergency_workers_injected = 0;
  /// True when the hard no-progress budget tripped rather than the
  /// quiescence proof (e.g. a node overran or stalled without deadlock).
  bool budget_exhausted = false;

  /// One-paragraph human rendering ("2/2 workers suspended; fork 1 ...").
  std::string describe() const;
};

/// One dead or hung worker detected and handled by the liveness check.
struct WorkerRecovery {
  std::size_t worker = 0;
  std::chrono::milliseconds detected_after{0};  ///< Since run start.
  /// True: the thread exited (worker crash, in-flight closure handed back
  /// by the pool). False: stale heartbeat while busy (hang); the executor
  /// re-dispatched the node the worker was wedged on.
  bool crashed = false;
  bool respawned = false;          ///< A replacement adopted the slot.
  std::size_t requeued = 0;        ///< Queued closures redistributed.
  bool node_resubmitted = false;   ///< In-flight node re-dispatched.

  std::string describe() const;
};

/// Emitted when the respawn budget is exhausted: further lost workers are
/// not replaced and the pool runs on at a smaller size than the analysis
/// admitted — graceful degradation, loudly reported.
struct DegradedReport {
  std::size_t workers_lost = 0;      ///< Condemned without replacement.
  std::size_t respawns_used = 0;     ///< Budget consumed before degrading.
  std::size_t pool_workers_left = 0; ///< Live workers after the last loss.

  std::string describe() const;
};

/// Thrown by the executor under RecoveryPolicy::kFailFast.
class StallError : public std::runtime_error {
 public:
  explicit StallError(StallReport report);
  const StallReport& report() const { return report_; }

 private:
  StallReport report_;
};

/// One poll of the run, produced by the executor's sampling hook.
struct GuardSample {
  bool done = false;
  /// Cheap fingerprint of run state; any change counts as progress and
  /// resets the no-progress budget.
  std::uint64_t progress = 0;
  std::size_t active = 0;       ///< Closures in flight (running or suspended).
  std::size_t blocked = 0;      ///< Workers suspended at a barrier.
  std::size_t pool_workers = 0; ///< Base pool size m (excludes emergencies).
  /// True when some queued closure is reachable by a worker that is not
  /// suspended (so the pool can still make progress on its own).
  bool reachable_work = false;
  /// True when a waiting barrier's condition is already satisfied (a lost
  /// wakeup, e.g. the injected drop-one-notify fault): recovered by
  /// re-notifying, not treated as a stall.
  bool lost_wakeup = false;
  std::vector<BlockedForkInfo> waiting;   ///< Regions at their barrier.
  std::vector<StarvedNodeInfo> starved;   ///< Unreachable submitted nodes.
};

/// Callbacks the watchdog drives; all must be thread-safe (they are invoked
/// from the monitor thread while the run executes).
struct GuardHooks {
  std::function<GuardSample()> sample;
  std::function<void()> renotify;       ///< Wake satisfied-but-sleeping waits.
  std::function<bool()> inject_worker;  ///< Add a temp worker; false = refused.
  std::function<void()> cancel;         ///< Cancel the run, release all waits.

  // Liveness hooks (all optional; absent = liveness check disabled).
  /// Per-slot heartbeat/lifecycle snapshot (ThreadPool::worker_status).
  std::function<std::vector<ThreadPool::WorkerStatus>()> worker_status;
  /// Condemn a dead/hung slot; `redistribute` hands its queue to live
  /// workers (used when no respawn will follow).
  std::function<ThreadPool::CondemnOutcome(std::size_t worker, bool redistribute)>
      condemn;
  /// Spawn a replacement adopting the slot; false = refused.
  std::function<bool(std::size_t worker)> respawn;
  /// Re-dispatch the node the worker was wedged on (executor-side);
  /// returns true when a node was actually resubmitted.
  std::function<bool(std::size_t worker)> resubmit;
};

struct GuardOptions {
  RecoveryPolicy policy = RecoveryPolicy::kReport;
  std::chrono::milliseconds poll{5};      ///< Sample interval.
  std::chrono::milliseconds budget{2000}; ///< Hard no-progress budget.
  /// Injection cap under kEmergencyWorker; once exhausted the watchdog
  /// falls back to cancel + report.
  std::size_t max_emergency_workers = 2;

  /// Liveness: a busy, unblocked worker whose heartbeat epoch has not moved
  /// for this long is presumed hung. Must exceed the longest legitimate
  /// un-heartbeated stretch (injected kStall sleeps included).
  std::chrono::milliseconds liveness{400};
  /// Replacement workers spawned per run before degrading.
  std::size_t max_respawns = 4;
  /// Delay before the SECOND respawn; doubles per use (the first respawn is
  /// immediate — a single crash should not cost latency).
  std::chrono::milliseconds respawn_backoff{20};
};

/// Monitor thread guarding one graph run. Start at run begin, stop() (or
/// destroy) after the run finishes; results are valid after stop().
class Watchdog {
 public:
  Watchdog(GuardOptions options, GuardHooks hooks);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Stop sampling and join the monitor thread (idempotent).
  void stop();

  /// The stall diagnosis, if one was confirmed (kept from the FIRST
  /// confirmation even when emergency workers then rescue the run).
  const std::optional<StallReport>& stall() const { return stall_; }

  std::size_t emergency_workers_injected() const { return injected_; }
  std::size_t lost_wakeups_recovered() const { return lost_wakeups_; }

  /// Dead/hung workers detected and handled, in detection order.
  const std::vector<WorkerRecovery>& recoveries() const { return recoveries_; }
  /// Present when the respawn budget ran out and workers stayed lost.
  const std::optional<DegradedReport>& degraded() const { return degraded_; }
  std::size_t respawns_used() const { return respawns_used_; }

 private:
  void loop();

  GuardOptions options_;
  GuardHooks hooks_;

  util::Mutex mutex_;
  util::CondVar cv_;
  bool stop_ RTPOOL_GUARDED_BY(mutex_) = false;

  // Written by the monitor thread only; read after stop() joins it.
  std::optional<StallReport> stall_;
  std::size_t injected_ = 0;
  std::size_t lost_wakeups_ = 0;
  std::vector<WorkerRecovery> recoveries_;
  std::optional<DegradedReport> degraded_;
  std::size_t respawns_used_ = 0;

  std::thread thread_;
};

}  // namespace rtpool::exec
