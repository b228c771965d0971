#include "exec/graph_executor.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "util/thread_annotations.h"

namespace rtpool::exec {

namespace {

using model::DagTask;
using model::NodeId;
using model::NodeType;
using Clock = std::chrono::steady_clock;

void spin_for(double microseconds) {
  if (microseconds <= 0.0) return;
  const auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double, std::micro>(
                                            microseconds));
  while (Clock::now() < until) {
    // Busy-wait models CPU-bound node execution; the heartbeat keeps the
    // guard's liveness check from mistaking a long legitimate node for a
    // hung worker.
    ThreadPool::heartbeat();
  }
}

/// Shared state of one graph run. Every closure holds a shared_ptr to it,
/// so a cancelled run (watchdog) can safely outlive the GraphExecutor call:
/// leftover closures see `cancelled` and return. The ThreadPool itself must
/// outlive the run only as long as its own workers do, which its destructor
/// guarantees.
struct RunState : std::enable_shared_from_this<RunState> {
  /// Runtime phase of one blocking region, sampled by the guard.
  struct RegionRt {
    enum class Phase { kIdle, kForkRunning, kWaiting, kDone };
    Phase phase = Phase::kIdle;
    std::optional<std::size_t> worker;  ///< Who runs/suspends the fork.
  };

  RunState(ThreadPool& p, const DagTask& t, const ExecOptions& opts,
           std::function<void(NodeId)> b, bool block)
      : pool(p),
        task(t),
        options(opts),
        body(std::move(b)),
        blocking(block),
        preds_left(t.node_count()),
        executed(0) {
    for (NodeId v = 0; v < t.node_count(); ++v)
      preds_left[v].store(static_cast<int>(t.dag().in_degree(v)),
                          std::memory_order_relaxed);
    util::MutexLock lock(mutex);  // closures don't exist yet; TSA discipline
    regions.resize(t.blocking_regions().size());
  }

  ThreadPool& pool;
  const DagTask& task;
  ExecOptions options;
  std::function<void(NodeId)> body;
  bool blocking;

  std::vector<std::atomic<int>> preds_left;
  std::atomic<std::size_t> executed;

  util::Mutex mutex;
  util::CondVar barrier_cv;  ///< Signalled when any region completes.
  util::CondVar done_cv;     ///< Signalled when the sink completes.
  bool done RTPOOL_GUARDED_BY(mutex) = false;
  bool cancelled RTPOOL_GUARDED_BY(mutex) = false;

  // Guard instrumentation: region phases and submitted-but-not-started
  // nodes (value = target worker; nullopt = shared queue).
  std::vector<RegionRt> regions RTPOOL_GUARDED_BY(mutex);
  std::map<NodeId, std::optional<std::size_t>> pending RTPOOL_GUARDED_BY(mutex);

  // Exception-safe execution: nodes whose body threw.
  std::vector<NodeId> failed_nodes RTPOOL_GUARDED_BY(mutex);
  std::string first_error RTPOOL_GUARDED_BY(mutex);

  // Injected drop-notify faults already consumed (each drops one notify).
  std::set<NodeId> notify_dropped RTPOOL_GUARDED_BY(mutex);

  // Lethal faults (worker death/hang) already consumed: the re-run of a
  // killed node's closure finds its id here and executes cleanly — the
  // exactly-once half of the recovery guarantee.
  std::set<NodeId> lethal_consumed RTPOOL_GUARDED_BY(mutex);
  // Nodes wedged under a hung worker (slot -> node), re-dispatched by the
  // guard's resubmit hook after the worker is condemned.
  std::map<std::size_t, NodeId> hung_nodes RTPOOL_GUARDED_BY(mutex);

  bool is_cancelled() RTPOOL_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    return cancelled;
  }

  std::optional<std::size_t> target_of(NodeId v) const {
    if (pool.mode() == ThreadPool::QueueMode::kPerWorker)
      return options.assignment->thread_of[v];
    return std::nullopt;
  }

  void execute_node(NodeId v) {
    const NodeFault* fault = options.faults.find(v);
    double factor = 1.0;
    if (fault && fault->kind == FaultKind::kWcetOverrun)
      factor = fault->overrun_factor;
    spin_for(task.wcet(v) * options.microseconds_per_unit * factor);
    if (fault && fault->kind == FaultKind::kStall)
      std::this_thread::sleep_for(fault->stall);
    try {
      if (fault && fault->kind == FaultKind::kThrow)
        throw std::runtime_error(fault->message);
      if (body) body(v);
    } catch (...) {
      // A throwing body degrades to a failed node: record it and let the
      // node complete structurally so successors run and barriers open.
      record_failure(v);
    }
    executed.fetch_add(1, std::memory_order_relaxed);
  }

  void record_failure(NodeId v) RTPOOL_EXCLUDES(mutex) {
    std::string what = "unknown exception";
    try {
      throw;  // rethrow the in-flight exception to classify it
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
    }
    util::MutexLock lock(mutex);
    failed_nodes.push_back(v);
    if (first_error.empty()) first_error = what;
  }

  /// True when the injected drop-notify fault on BJ node w eats this
  /// notify (once per plan entry).
  bool consume_drop_notify(NodeId w) RTPOOL_REQUIRES(mutex) {
    const NodeFault* fault = options.faults.find(w);
    if (fault == nullptr || fault->kind != FaultKind::kDropNotify) return false;
    return notify_dropped.insert(w).second;
  }

  /// Lethal fault injection, called at the very top of a plain closure —
  /// BEFORE pending.erase and before any node side effect, so the re-run
  /// executes the node exactly once. Throws WorkerDeathSignal (the pool
  /// hands the closure back to its queue) or parks the worker forever (the
  /// guard re-dispatches the node via resubmit_for). Consumed once per
  /// node; returns normally on the re-run, on cancelled runs, and on
  /// threads that are not regular pool workers.
  void maybe_lethal(NodeId v) RTPOOL_EXCLUDES(mutex) {
    const NodeFault* fault = options.faults.find(v);
    if (fault == nullptr || (fault->kind != FaultKind::kWorkerDeath &&
                             fault->kind != FaultKind::kWorkerHang))
      return;
    const std::optional<std::size_t> worker = ThreadPool::current_worker();
    if (!worker.has_value() || *worker >= ThreadPool::kEmergencyIndexBase)
      return;  // emergency/off-pool threads don't crash or hang
    {
      util::MutexLock lock(mutex);
      if (cancelled) return;
      if (!lethal_consumed.insert(v).second) return;  // re-run: clean
      if (fault->kind == FaultKind::kWorkerHang) hung_nodes[*worker] = v;
      // `pending[v]` intentionally stays registered: for a death the
      // closure is handed back to a queue, for a hang it is awaiting
      // re-dispatch — either way "submitted but not started" is true.
    }
    if (fault->kind == FaultKind::kWorkerDeath) throw WorkerDeathSignal{};
    pool.park_current_worker();  // returns only off-pool (excluded above)
  }

  /// Guard resubmit hook: re-dispatch the node `worker` was wedged on.
  bool resubmit_for(std::size_t worker) RTPOOL_EXCLUDES(mutex) {
    NodeId v;
    {
      util::MutexLock lock(mutex);
      const auto it = hung_nodes.find(worker);
      if (it == hung_nodes.end()) return false;
      v = it->second;
      hung_nodes.erase(it);
      if (cancelled || done) return false;
    }
    submit_node(v);
    return true;
  }

  /// Mark v complete; release/submit its successors.
  void complete(NodeId v) {
    if (v == task.sink()) {
      util::MutexLock lock(mutex);
      done = true;
      done_cv.notify_all();
      return;
    }
    std::vector<NodeId> ready;
    for (NodeId w : task.dag().successors(v)) {
      if (preds_left[w].fetch_sub(1, std::memory_order_acq_rel) != 1) continue;
      if (blocking && task.type(w) == NodeType::BJ) {
        // The barrier of w's region is now open: wake the waiting fork —
        // unless a drop-notify fault eats the wakeup (the guard detects the
        // satisfied-but-sleeping barrier and re-notifies).
        util::MutexLock lock(mutex);
        if (!consume_drop_notify(w)) barrier_cv.notify_all();
      } else {
        ready.push_back(w);
      }
    }
    if (ready.empty()) return;
    // Release simultaneously-ready successors atomically: a precedence
    // constraint opening must not expose a partially-submitted state, or
    // scheduling outcomes (e.g. which forks overlap) depend on preemption
    // between the individual submits.
    {
      util::MutexLock lock(mutex);
      for (NodeId w : ready) pending[w] = target_of(w);
    }
    if (pool.mode() == ThreadPool::QueueMode::kPerWorker) {
      std::vector<std::pair<std::size_t, std::function<void()>>> batch;
      batch.reserve(ready.size());
      for (NodeId w : ready) batch.emplace_back(*target_of(w), make_closure(w));
      pool.submit_batch_to(std::move(batch));
    } else if (ready.size() > 1) {
      std::vector<std::function<void()>> batch;
      batch.reserve(ready.size());
      for (NodeId w : ready) batch.push_back(make_closure(w));
      pool.submit_batch(std::move(batch));
    } else {
      pool.submit(make_closure(ready.front()));
    }
  }

  void submit_node(NodeId v) {
    {
      util::MutexLock lock(mutex);
      pending[v] = target_of(v);
    }
    if (pool.mode() == ThreadPool::QueueMode::kPerWorker) {
      pool.submit(make_closure(v), *target_of(v));
    } else {
      pool.submit(make_closure(v));
    }
  }

  std::function<void()> make_closure(NodeId v) {
    auto self = shared_from_this();

    if (blocking && task.type(v) == NodeType::BF) {
      // Listing 1: one function runs fork body, spawns, waits, runs join.
      const NodeId join = task.join_of(v);
      const std::size_t region = *task.region_of(v);
      return [self, v, join, region] {
        {
          util::MutexLock lock(self->mutex);
          if (self->cancelled) return;
          self->pending.erase(v);
          self->regions[region].phase = RegionRt::Phase::kForkRunning;
          self->regions[region].worker = ThreadPool::current_worker();
        }
        self->execute_node(v);
        self->complete(v);  // releases the children (and maybe the barrier)
        {
          // Wait for the region on a condition variable: the worker is
          // suspended and unavailable — the paper's reduced concurrency.
          // It counts as blocked only after checking the barrier under the
          // mutex, so whoever sees it blocked and then opens the barrier
          // notifies a worker that is already asleep.
          util::MutexLock lock(self->mutex);
          self->regions[region].phase = RegionRt::Phase::kWaiting;
          bool shut = !self->cancelled &&
                      self->preds_left[join].load(std::memory_order_acquire) != 0;
          ThreadPool::BlockedScope blocked(self->pool);
          while (shut) {
            self->barrier_cv.wait(self->mutex);
            shut = !self->cancelled &&
                   self->preds_left[join].load(std::memory_order_acquire) != 0;
          }
          if (self->cancelled) return;
          self->regions[region].phase = RegionRt::Phase::kDone;
        }
        self->execute_node(join);
        self->complete(join);
      };
    }

    return [self, v] {
      self->maybe_lethal(v);  // may throw WorkerDeathSignal / park forever
      {
        util::MutexLock lock(self->mutex);
        if (self->cancelled) return;
        self->pending.erase(v);
      }
      self->execute_node(v);
      self->complete(v);
    };
  }

  /// One guard poll: pool counters + region/queue introspection.
  GuardSample sample() RTPOOL_EXCLUDES(mutex) {
    GuardSample s;
    s.active = pool.active();
    s.blocked = pool.blocked_workers();
    s.pool_workers = pool.worker_count();
    const std::size_t capacity =
        pool.worker_count() + pool.emergency_worker_count();
    // A global queue is reached by any idle worker. A per-worker queue is
    // reached only by its own worker: the run carries an assignment, so
    // stealing is suppressed for its duration.
    const bool global_reach = pool.mode() != ThreadPool::QueueMode::kPerWorker;

    util::MutexLock lock(mutex);
    s.done = done;
    for (std::size_t r = 0; r < regions.size(); ++r) {
      if (regions[r].phase != RegionRt::Phase::kWaiting) continue;
      const model::BlockingRegion& br = task.blocking_regions()[r];
      const int left = preds_left[br.join].load(std::memory_order_acquire);
      const std::size_t remaining = left > 0 ? static_cast<std::size_t>(left) : 0;
      s.waiting.push_back({br.fork, regions[r].worker, remaining});
      if (remaining == 0) s.lost_wakeup = true;  // satisfied barrier asleep
    }
    for (const auto& [v, target] : pending) {
      bool reachable;
      if (global_reach) {
        reachable = s.active < capacity;  // an idle worker will pop it
      } else {
        reachable = target.has_value() && !pool.worker_blocked(*target);
        // Emergency workers scan every queue, so any idle thread suffices.
        if (!reachable && pool.emergency_worker_count() > 0)
          reachable = s.active < capacity;
      }
      if (reachable) {
        s.reachable_work = true;
      } else {
        s.starved.push_back({v, target});
      }
    }
    // Any change in this fingerprint counts as progress for the budget.
    std::uint64_t h = executed.load(std::memory_order_relaxed);
    h = h * 1000003u + s.active;
    h = h * 1000003u + s.blocked;
    h = h * 1000003u + pending.size();
    h = h * 1000003u + s.waiting.size();
    h = h * 1000003u + failed_nodes.size();
    s.progress = h;
    return s;
  }

  void renotify() RTPOOL_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    barrier_cv.notify_all();
    done_cv.notify_all();
  }

  void cancel() RTPOOL_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    if (done) return;
    cancelled = true;
    barrier_cv.notify_all();
    done_cv.notify_all();
  }
};

ExecReport run_graph(ThreadPool& pool, const DagTask& task, const ExecOptions& options,
                     std::function<void(NodeId)> body, bool blocking) {
  if (pool.mode() == ThreadPool::QueueMode::kPerWorker) {
    if (!options.assignment.has_value())
      throw std::invalid_argument("GraphExecutor: kPerWorker pool needs an assignment");
    if (options.assignment->thread_of.size() != task.node_count())
      throw std::invalid_argument("GraphExecutor: assignment size mismatch");
    for (analysis::ThreadId w : options.assignment->thread_of)
      if (w >= pool.slot_count())
        throw std::invalid_argument("GraphExecutor: worker index out of range");
  }

  ExecReport report;

  // Stealing off another worker's queue breaks the Eq. (3) placement the
  // partitioned analysis assumes: suppress it for the run.
  std::optional<ThreadPool::SuppressStealing> suppress;
  if (options.assignment.has_value() && pool.stealing_configured())
    suppress.emplace(pool);

  auto state =
      std::make_shared<RunState>(pool, task, options, std::move(body), blocking);

  GuardOptions guard_options;
  guard_options.policy = options.recovery;
  guard_options.poll = options.guard_poll;
  guard_options.budget = options.watchdog;
  guard_options.max_emergency_workers = options.max_emergency_workers;
  guard_options.liveness = options.worker_liveness;
  guard_options.max_respawns = options.max_worker_respawns;
  guard_options.respawn_backoff = options.respawn_backoff;
  GuardHooks hooks;
  hooks.sample = [state] { return state->sample(); };
  hooks.renotify = [state] { state->renotify(); };
  hooks.inject_worker = [&pool] { return pool.spawn_emergency_worker(); };
  hooks.cancel = [state] { state->cancel(); };
  hooks.worker_status = [&pool] { return pool.worker_status(); };
  hooks.condemn = [&pool](std::size_t worker, bool redistribute) {
    return pool.condemn_worker(worker, redistribute);
  };
  hooks.respawn = [&pool](std::size_t worker) {
    return pool.respawn_worker(worker);
  };
  hooks.resubmit = [state](std::size_t worker) {
    return state->resubmit_for(worker);
  };

  const auto start = Clock::now();
  std::optional<StallReport> stall;
  {
    Watchdog watchdog(guard_options, std::move(hooks));
    state->submit_node(task.source());
    {
      util::MutexLock lock(state->mutex);
      // The guard owns stall handling; this deadline is only a safety net
      // against a defect in the guard itself.
      const auto hard_deadline =
          Clock::now() + options.watchdog * 4 + std::chrono::seconds(5);
      while (!state->done && !state->cancelled) {
        if (state->done_cv.wait_until(state->mutex, hard_deadline) ==
            std::cv_status::timeout) {
          state->cancelled = true;
          state->barrier_cv.notify_all();
          break;
        }
      }
      report.completed = state->done;
    }
    watchdog.stop();
    stall = watchdog.stall();
    report.emergency_workers = watchdog.emergency_workers_injected();
    report.lost_wakeups_recovered = watchdog.lost_wakeups_recovered();
    report.worker_recoveries = watchdog.recoveries();
    report.workers_respawned = watchdog.respawns_used();
    report.degraded = watchdog.degraded();
  }
  report.elapsed =
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start);
  report.nodes_executed = state->executed.load(std::memory_order_relaxed);
  report.max_blocked_workers = pool.max_blocked_workers();
  {
    util::MutexLock lock(state->mutex);
    report.failed_nodes = state->failed_nodes;
    std::sort(report.failed_nodes.begin(), report.failed_nodes.end());
    report.first_error = state->first_error;
  }
  report.stall = std::move(stall);
  if (report.stall.has_value() &&
      options.recovery == RecoveryPolicy::kFailFast) {
    throw StallError(*report.stall);
  }
  return report;
}

}  // namespace

GraphExecutor::GraphExecutor(ThreadPool& pool, const model::DagTask& task)
    : pool_(pool), task_(task) {}

ExecReport GraphExecutor::run_blocking(const ExecOptions& options,
                                       const std::function<void(model::NodeId)>& body) {
  return run_graph(pool_, task_, options, body, /*blocking=*/true);
}

ExecReport GraphExecutor::run_non_blocking(
    const ExecOptions& options, const std::function<void(model::NodeId)>& body) {
  return run_graph(pool_, task_, options, body, /*blocking=*/false);
}

}  // namespace rtpool::exec
