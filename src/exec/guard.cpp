#include "exec/guard.h"

#include <sstream>

namespace rtpool::exec {

namespace {
using Clock = std::chrono::steady_clock;

/// Confirm the quiescence criterion on this many consecutive samples before
/// declaring a stall (filters transient pop/submit windows).
constexpr int kConfirmSamples = 2;
}  // namespace

const char* to_string(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::kReport: return "report";
    case RecoveryPolicy::kEmergencyWorker: return "emergency-worker";
    case RecoveryPolicy::kFailFast: return "fail-fast";
  }
  return "?";
}

std::string StallReport::describe() const {
  std::ostringstream out;
  out << (budget_exhausted ? "no progress for the watchdog budget"
                           : "stall (quiescent pool)")
      << " after " << detected_after.count() << " ms: " << blocked_workers << "/"
      << pool_workers << " workers suspended";
  for (const BlockedForkInfo& b : blocked) {
    out << "; fork " << b.fork;
    if (b.worker.has_value()) out << " on worker " << *b.worker;
    out << " waits for " << b.remaining << " node(s)";
  }
  if (!starved.empty()) {
    out << "; starved nodes:";
    for (const StarvedNodeInfo& s : starved) {
      out << " " << s.node;
      if (s.queued_on.has_value()) out << "@w" << *s.queued_on;
    }
  }
  if (!wait_cycle.empty()) {
    out << "; wait-for cycle: ";
    for (model::NodeId f : wait_cycle) out << f << " -> ";
    out << wait_cycle.front();
  }
  out << "; policy=" << to_string(policy);
  if (emergency_workers_injected > 0)
    out << " (injected " << emergency_workers_injected
        << " emergency worker(s): pool size m exceeded)";
  return out.str();
}

std::string WorkerRecovery::describe() const {
  std::ostringstream out;
  out << "worker " << worker << (crashed ? " crashed" : " hung") << " after "
      << detected_after.count() << " ms";
  if (requeued > 0) out << "; " << requeued << " queued closure(s) redistributed";
  if (node_resubmitted) out << "; in-flight node re-dispatched";
  out << (respawned ? "; replacement spawned" : "; NOT replaced");
  return out.str();
}

std::string DegradedReport::describe() const {
  std::ostringstream out;
  out << "pool degraded: " << workers_lost << " worker(s) lost after "
      << respawns_used << " respawn(s); running on " << pool_workers_left
      << " worker(s) — below the size the analysis admitted";
  return out.str();
}

StallError::StallError(StallReport report)
    : std::runtime_error(report.describe()), report_(std::move(report)) {}

Watchdog::Watchdog(GuardOptions options, GuardHooks hooks)
    : options_(options), hooks_(std::move(hooks)) {
  thread_ = std::thread([this] { loop(); });
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::stop() {
  {
    util::MutexLock lock(mutex_);
    if (stop_ && !thread_.joinable()) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Watchdog::loop() {
  const auto start = Clock::now();
  auto last_progress_time = start;
  std::uint64_t last_progress = ~std::uint64_t{0};
  int confirmed = 0;

  // Liveness tracking: per slot, the last heartbeat epoch seen and when it
  // last changed. Slots pending a (backed-off) respawn.
  struct EpochTrack {
    std::uint64_t epoch = 0;
    Clock::time_point since{};
    bool init = false;
  };
  std::map<std::size_t, EpochTrack> epochs;
  std::deque<std::size_t> pending_respawns;
  auto next_respawn_time = start;  // first respawn is immediate

  for (;;) {
    {
      util::MutexLock lock(mutex_);
      if (stop_) return;
      cv_.wait_for(mutex_, options_.poll);
      if (stop_) return;
    }
    GuardSample s = hooks_.sample();
    if (s.done) {
      // Belt and braces: if done was reached but the completion notify was
      // lost (an injected fault can drop it), wake the run's caller.
      if (hooks_.renotify) hooks_.renotify();
      return;
    }
    const auto now = Clock::now();
    if (s.progress != last_progress) {
      last_progress = s.progress;
      last_progress_time = now;
      confirmed = 0;
    }

    // ---- liveness: dead and hung workers ----
    if (hooks_.worker_status && hooks_.condemn) {
      bool acted = false;
      for (const ThreadPool::WorkerStatus& ws : hooks_.worker_status()) {
        if (ws.condemned) continue;
        EpochTrack& tr = epochs[ws.worker];
        if (!tr.init || tr.epoch != ws.epoch) {
          tr.epoch = ws.epoch;
          tr.since = now;
          tr.init = true;
        }
        // Crash: the thread exited outside the drain protocol (kDead, not
        // kRetired). Hang: busy but NOT legitimately suspended at a
        // barrier, heartbeat stale past the liveness budget. A worker
        // blocked in a BlockedScope is exempt — suspension is the
        // stall/quiescence detector's jurisdiction, not liveness'.
        const bool crashed =
            ws.exited && ws.state == ThreadPool::WorkerState::kDead;
        const bool hung = !ws.exited && ws.busy && !ws.blocked &&
                          (ws.state == ThreadPool::WorkerState::kLive ||
                           ws.state == ThreadPool::WorkerState::kRetiring) &&
                          now - tr.since >= options_.liveness;
        if (!crashed && !hung) continue;

        const bool budget_left = respawns_used_ + pending_respawns.size() <
                                 options_.max_respawns;
        // Without a respawn coming, the slot's queue must be redistributed
        // now; with one, the replacement inherits it (placement preserved).
        const ThreadPool::CondemnOutcome out =
            hooks_.condemn(ws.worker, /*redistribute=*/!budget_left);
        if (!out.condemned) continue;  // raced with another recovery path
        WorkerRecovery rec;
        rec.worker = ws.worker;
        rec.crashed = crashed;
        rec.detected_after =
            std::chrono::duration_cast<std::chrono::milliseconds>(now - start);
        rec.requeued = out.requeued;
        if (budget_left && hooks_.respawn) {
          pending_respawns.push_back(ws.worker);
        } else if (!degraded_.has_value()) {
          DegradedReport deg;
          deg.respawns_used = respawns_used_;
          deg.pool_workers_left = out.live_left;
          degraded_ = deg;
        }
        if (degraded_.has_value()) {
          ++degraded_->workers_lost;
          degraded_->pool_workers_left = out.live_left;
        }
        if (hooks_.resubmit) rec.node_resubmitted = hooks_.resubmit(ws.worker);
        recoveries_.push_back(rec);
        acted = true;
      }
      if (!pending_respawns.empty() && hooks_.respawn && now >= next_respawn_time) {
        const std::size_t worker = pending_respawns.front();
        pending_respawns.pop_front();
        if (hooks_.respawn(worker)) {
          ++respawns_used_;
          epochs.erase(worker);  // the replacement starts a fresh epoch clock
          for (WorkerRecovery& rec : recoveries_)
            if (rec.worker == worker) rec.respawned = true;
          // Exponential backoff: repeated losses slow the replacement rate
          // so a crash-looping workload cannot hot-spin thread creation.
          next_respawn_time =
              now + options_.respawn_backoff *
                        (std::int64_t{1} << std::min<std::size_t>(
                             respawns_used_ - 1, 6));
          acted = true;
        } else if (!degraded_.has_value()) {
          // Replacement failed (pool shutting down / slot raced back to
          // life): degrade loudly rather than retry-loop.
          DegradedReport deg;
          deg.workers_lost = 1;
          deg.respawns_used = respawns_used_;
          degraded_ = deg;
          acted = true;
        }
      }
      if (acted) {
        // Recovery IS progress: give the repaired pool a fresh budget and
        // drop any half-confirmed quiescence streak.
        last_progress_time = now;
        confirmed = 0;
        continue;
      }
      if (!pending_respawns.empty()) {
        // A replacement is due but backing off: the pool is transiently
        // below the size the analysis admitted, so neither quiescence nor
        // the progress budget is a verdict about the committed
        // configuration. A blocking chain that closes in this window is
        // healed by the replacement adopting the dead slot's queue.
        last_progress_time = now;
        confirmed = 0;
        continue;
      }
    }
    if (s.lost_wakeup) {
      // A barrier whose condition already holds is asleep on a lost notify:
      // re-notify (waiters re-check their predicate, so this is always safe)
      // instead of declaring a stall.
      ++lost_wakeups_;
      if (hooks_.renotify) hooks_.renotify();
      confirmed = 0;
      continue;
    }
    // Quiescent = every in-flight closure is suspended at a barrier and no
    // queued closure can be reached by an unblocked worker. Nothing can
    // change state anymore: a genuine deadlock, not mere slowness.
    const bool quiescent =
        s.blocked > 0 && s.active == s.blocked && !s.reachable_work;
    confirmed = quiescent ? confirmed + 1 : 0;
    const bool budget_out = now - last_progress_time >= options_.budget;
    if (confirmed < kConfirmSamples && !budget_out) continue;

    const bool proven = confirmed >= kConfirmSamples;
    if (!stall_.has_value()) {
      StallReport report;
      report.detected_after =
          std::chrono::duration_cast<std::chrono::milliseconds>(now - start);
      report.blocked = s.waiting;
      report.starved = s.starved;
      report.pool_workers = s.pool_workers;
      report.blocked_workers = s.blocked;
      report.policy = options_.policy;
      report.budget_exhausted = !proven;
      if (proven) {
        // The blocked forks wait on threads held (cyclically) by each other:
        // the runtime image of the Lemma 2 wait-for cycle. A single fork
        // starving its own children (Lemma 3) shows up as a 1-cycle.
        for (const BlockedForkInfo& b : s.waiting)
          report.wait_cycle.push_back(b.fork);
      }
      stall_ = std::move(report);
    }
    if (proven && options_.policy == RecoveryPolicy::kEmergencyWorker &&
        injected_ < options_.max_emergency_workers && hooks_.inject_worker &&
        hooks_.inject_worker()) {
      ++injected_;
      stall_->emergency_workers_injected = injected_;
      confirmed = 0;
      last_progress_time = now;  // give the new worker a fresh budget
      continue;
    }
    hooks_.cancel();
    return;
  }
}

}  // namespace rtpool::exec
