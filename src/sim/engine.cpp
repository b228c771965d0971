#include "sim/engine.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace rtpool::sim {

namespace {

using model::DagTask;
using model::NodeId;
using model::NodeType;
using util::Time;

constexpr double kEps = 1e-9;

/// Completion tolerance at simulation time `now`: must dominate the
/// floating-point ULP of the time axis, which grows with |now| — an
/// absolute epsilon alone livelocks once ulp(now) exceeds it (a residual
/// `remaining` smaller than half an ULP can neither complete nor advance
/// the clock, because now + remaining rounds back to now).
inline double completion_eps(double now) { return kEps * std::max(1.0, now); }

/// What a pool thread is doing.
enum class ThreadMode {
  kIdle,       ///< No current node; may pull from a queue.
  kBusy,       ///< Serving a node (running or preempted).
  kSuspended,  ///< Blocked on a barrier (BF executed, region incomplete).
};

struct ThreadState {
  ThreadMode mode = ThreadMode::kIdle;
  NodeId node = 0;        ///< Valid when kBusy.
  Time remaining = 0.0;   ///< Remaining execution of `node` when kBusy.
  std::size_t region = 0; ///< Awaited region index when kSuspended.
};

/// FIFO of ready nodes in a buffer sized to the task's node count. A node
/// is queued at most once per job and every queue is empty when a job
/// completes (all its nodes ran), so the buffer never overflows: it
/// rewinds whenever it drains and never allocates after construction.
class NodeQueue {
 public:
  explicit NodeQueue(std::size_t capacity = 0) : buf_(capacity) {}

  bool empty() const { return head_ == tail_; }
  NodeId front() const { return buf_[head_]; }
  NodeId back() const { return buf_[tail_ - 1]; }
  void push_back(NodeId v) { buf_[tail_++] = v; }
  void pop_front() { if (++head_ == tail_) head_ = tail_ = 0; }
  void pop_back() { if (--tail_ == head_) head_ = tail_ = 0; }

 private:
  std::vector<NodeId> buf_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

/// Runtime state of one task (its pool and current job).
struct PoolState {
  std::vector<ThreadState> threads;
  NodeQueue pool_queue;                  ///< Global intra-pool queue.
  std::vector<NodeQueue> thread_queues;  ///< Partitioned queues.
  std::size_t busy = 0;                  ///< Threads in ThreadMode::kBusy.

  bool job_active = false;
  std::uint64_t job_number = 0;
  Time job_release = 0.0;
  std::vector<bool> done;            ///< Per node, current job.
  std::vector<std::size_t> preds_left;
  std::size_t nodes_left = 0;
  std::vector<std::size_t> region_thread;  ///< Suspended thread per region.

  std::deque<Time> backlog;          ///< Release times waiting for the pool.
  Time next_release = 0.0;
  bool releases_exhausted = false;

  std::size_t suspended_count = 0;
  long min_available = 0;
  bool deadlocked = false;
};

/// Identity of a running thread (for core assignment / traces).
struct RunSlot {
  std::size_t task = 0;
  std::size_t thread = 0;
  bool operator==(const RunSlot&) const = default;
};

/// One simulation run. Everything an event touches is sized in the
/// constructor: the priority order, the per-task priorities, the node
/// queues and the dispatch scratch, so the event loop itself does not
/// allocate (only the result's job records and trace grow).
class Engine {
 public:
  Engine(const model::TaskSet& ts, const SimConfig& config)
      : ts_(ts), config_(config), m_(ts.core_count()), rng_(config.seed) {
    if (!(config_.horizon > 0.0))
      throw std::invalid_argument("simulate: horizon must be > 0");
    if (config_.policy == SchedulingPolicy::kPartitioned) {
      if (!config_.partition.has_value())
        throw std::invalid_argument("simulate: partitioned policy needs a partition");
      if (config_.partition->per_task.size() != ts_.size())
        throw std::invalid_argument("simulate: partition size mismatch");
      for (std::size_t i = 0; i < ts_.size(); ++i) {
        if (config_.partition->per_task[i].thread_of.size() != ts_.task(i).node_count())
          throw std::invalid_argument("simulate: assignment size mismatch for task " +
                                      std::to_string(i));
        for (analysis::ThreadId th : config_.partition->per_task[i].thread_of)
          if (th >= m_)
            throw std::invalid_argument("simulate: thread id out of range");
      }
    }
    if (config_.release_jitter_frac < 0.0)
      throw std::invalid_argument("simulate: negative release jitter");

    order_ = ts_.priority_order();
    prio_.resize(ts_.size());
    pools_.resize(ts_.size());
    for (std::size_t i = 0; i < ts_.size(); ++i) {
      const DagTask& task = ts_.task(i);
      prio_[i] = task.priority();
      PoolState& p = pools_[i];
      p.threads.resize(m_);
      if (partitioned()) {
        p.thread_queues.assign(m_, NodeQueue(task.node_count()));
      } else {
        p.pool_queue = NodeQueue(task.node_count());
      }
      p.region_thread.assign(task.blocking_regions().size(), m_);
      p.min_available = static_cast<long>(m_);
      p.next_release = 0.0;
    }
    running_.assign(m_, std::nullopt);
    next_.assign(m_, std::nullopt);
    open_interval_.assign(m_, std::nullopt);
    slots_.reserve(m_);
    placed_.reserve(m_);
    result_.per_task.resize(ts_.size());
  }

  SimResult run() {
    Time t = 0.0;
    process_instant(t);
    while (!halted_) {
      Time next = next_event_time(t);
      if (!std::isfinite(next) || next > config_.horizon + kEps) break;
      // Defensive forced progress: with the relative completion epsilon the
      // next event is always strictly later, but never trust FP blindly.
      if (!(next > t)) next = t + completion_eps(t);
      advance(next - t);
      t = next;
      process_instant(t);
    }
    // A halted run ends at the miss or stall it stopped on; otherwise the
    // jobs still in flight are cut off at the horizon, not at the last event.
    finalize(halted_ ? std::min(config_.horizon, t) : config_.horizon);
    return std::move(result_);
  }

 private:
  // ---- queue helpers -------------------------------------------------

  bool partitioned() const { return config_.policy == SchedulingPolicy::kPartitioned; }

  analysis::ThreadId thread_of(std::size_t task, NodeId v) const {
    return config_.partition->per_task[task].thread_of[v];
  }

  void enqueue(std::size_t task, NodeId v) {
    PoolState& p = pools_[task];
    if (partitioned()) {
      p.thread_queues[thread_of(task, v)].push_back(v);
    } else {
      p.pool_queue.push_back(v);
    }
  }

  /// Make `th` (idle, or suspended on the barrier `v` joins) serve `v`.
  void start_node(std::size_t task, ThreadState& th, NodeId v) {
    th.mode = ThreadMode::kBusy;
    th.node = v;
    th.remaining = ts_.task(task).wcet(v);
    ++pools_[task].busy;
  }

  // ---- job lifecycle -------------------------------------------------

  void start_job(std::size_t task, Time release) {
    const DagTask& dag_task = ts_.task(task);
    PoolState& p = pools_[task];
    p.job_active = true;
    ++p.job_number;
    p.job_release = release;
    p.done.assign(dag_task.node_count(), false);
    p.preds_left.resize(dag_task.node_count());
    for (NodeId v = 0; v < dag_task.node_count(); ++v)
      p.preds_left[v] = dag_task.dag().in_degree(v);
    p.nodes_left = dag_task.node_count();
    std::fill(p.region_thread.begin(), p.region_thread.end(), m_);
    enqueue(task, dag_task.source());
  }

  void record_available(std::size_t task) {
    PoolState& p = pools_[task];
    if (!p.job_active) return;
    const long avail = static_cast<long>(m_) - static_cast<long>(p.suspended_count);
    p.min_available = std::min(p.min_available, avail);
  }

  void complete_job(std::size_t task, Time now) {
    PoolState& p = pools_[task];
    const DagTask& dag_task = ts_.task(task);

    JobRecord rec;
    rec.task_index = task;
    rec.job_number = p.job_number;
    rec.release = p.job_release;
    rec.completion = now;
    rec.response = now - p.job_release;
    rec.completed = true;
    rec.deadline_miss = rec.response > dag_task.deadline() + kEps;
    result_.jobs.push_back(rec);

    TaskStats& stats = result_.per_task[task];
    ++stats.jobs_completed;
    stats.max_response = std::max(stats.max_response, rec.response);
    if (rec.deadline_miss) {
      ++stats.deadline_misses;
      result_.any_deadline_miss = true;
      if (config_.stop_on_miss) halted_ = true;
    }

    p.job_active = false;
    if (!p.backlog.empty()) {
      const Time release = p.backlog.front();
      p.backlog.pop_front();
      start_job(task, release);
    }
  }

  // ---- node completion ------------------------------------------------

  void complete_node(std::size_t task, std::size_t thread, Time now) {
    PoolState& p = pools_[task];
    const DagTask& dag_task = ts_.task(task);
    ThreadState& th = p.threads[thread];
    const NodeId v = th.node;

    th.mode = ThreadMode::kIdle;
    --p.busy;
    p.done[v] = true;
    --p.nodes_left;

    // Release successors (Listing 1: the fork spawns before the wait).
    for (NodeId w : dag_task.dag().successors(v)) {
      if (--p.preds_left[w] != 0) continue;
      if (dag_task.type(w) == NodeType::BJ) {
        resume_join(task, w);
      } else {
        enqueue(task, w);
      }
    }

    // A blocking fork now suspends its serving thread on the barrier —
    // unless the barrier is already open (all successors were released and
    // the region completed through zero-length children; with positive
    // WCETs this cannot happen, but the model allows zero-WCET nodes).
    if (dag_task.type(v) == NodeType::BF) {
      const std::size_t region = *dag_task.region_of(v);
      const NodeId join = dag_task.join_of(v);
      if (p.preds_left[join] == 0 && !p.done[join]) {
        // Barrier already open: run the join directly on this thread.
        start_node(task, th, join);
      } else if (!p.done[join]) {
        th.mode = ThreadMode::kSuspended;
        th.region = region;
        p.region_thread[region] = thread;
        ++p.suspended_count;
        record_available(task);
      }
    }

    if (p.nodes_left == 0) complete_job(task, now);
  }

  void resume_join(std::size_t task, NodeId join) {
    PoolState& p = pools_[task];
    const std::size_t region = *ts_.task(task).region_of(join);
    const std::size_t thread = p.region_thread[region];
    if (thread >= m_) {
      // The fork has not suspended yet (it is still executing or its
      // completion is being processed). complete_node() handles this case
      // by running the join directly; nothing to do here.
      return;
    }
    start_node(task, p.threads[thread], join);
    p.region_thread[region] = m_;
    --p.suspended_count;
    record_available(task);
  }

  // ---- dispatching ------------------------------------------------------

  /// Number of busy threads with priority at least `prio` (lower value =
  /// higher priority; equal-priority busy threads are ahead in FIFO order).
  std::size_t busy_at_least(int prio) const {
    std::size_t count = 0;
    for (std::size_t i = 0; i < pools_.size(); ++i)
      if (prio_[i] <= prio) count += pools_[i].busy;
    return count;
  }

  void dispatch_global() {
    // Work-conserving activation, in task-index order: idle threads pull
    // from their pool queue whenever the pulled node would immediately get
    // a core. A pulled node stays on its thread even if a later pull of a
    // higher-priority pool takes the core. One pass reaches the fixed
    // point: pulls only add busy threads and drain queues, so a pool that
    // stopped pulling could not pull again.
    for (std::size_t i = 0; i < pools_.size(); ++i) {
      PoolState& p = pools_[i];
      if (p.pool_queue.empty()) continue;
      std::size_t busy = busy_at_least(prio_[i]);
      for (std::size_t th = 0; th < m_ && busy < m_ && !p.pool_queue.empty(); ++th) {
        if (p.threads[th].mode != ThreadMode::kIdle) continue;
        start_node(i, p.threads[th], p.pool_queue.front());
        p.pool_queue.pop_front();
        ++busy;
      }
    }

    // Give the m highest-priority busy threads the cores.
    slots_.clear();
    for (std::size_t i : order_) {
      if (pools_[i].busy == 0) continue;
      for (std::size_t th = 0; th < m_ && slots_.size() < m_; ++th)
        if (pools_[i].threads[th].mode == ThreadMode::kBusy)
          slots_.push_back({i, th});
      if (slots_.size() == m_) break;
    }
    assign_cores();
  }

  /// Victim queue index an idle thread of pool `p` on `core` would steal
  /// from (first nonempty sibling queue, scanning upward), or m_ if none.
  std::size_t steal_victim(const PoolState& p, std::size_t core) const {
    for (std::size_t k = 1; k < m_; ++k) {
      const std::size_t victim = (core + k) % m_;
      if (!p.thread_queues[victim].empty()) return victim;
    }
    return m_;
  }

  /// Whether the idle thread of pool `p` on `core` has a node to start.
  bool can_start(const PoolState& p, std::size_t core) const {
    return !p.thread_queues[core].empty() ||
           (config_.work_stealing && steal_victim(p, core) < m_);
  }

  void dispatch_partitioned() {
    slots_.clear();
    for (std::size_t core = 0; core < m_; ++core) {
      // The highest-priority thread on this core that is busy or can start
      // a node wins it; order_ ascends in priority, so the scan stops at
      // the first task that cannot beat the best so far.
      std::size_t best = pools_.size();
      int best_prio = std::numeric_limits<int>::max();
      for (std::size_t i : order_) {
        if (prio_[i] >= best_prio) break;
        const PoolState& p = pools_[i];
        const ThreadMode mode = p.threads[core].mode;
        if (mode == ThreadMode::kBusy ||
            (mode == ThreadMode::kIdle && can_start(p, core))) {
          best = i;
          best_prio = prio_[i];
        }
      }
      if (best == pools_.size()) continue;
      PoolState& p = pools_[best];
      ThreadState& th = p.threads[core];
      if (th.mode == ThreadMode::kIdle) {
        NodeId v = 0;
        if (!p.thread_queues[core].empty()) {
          v = p.thread_queues[core].front();
          p.thread_queues[core].pop_front();
        } else {
          // Steal from the back of the victim queue, Eigen-style.
          NodeQueue& victim = p.thread_queues[steal_victim(p, core)];
          v = victim.back();
          victim.pop_back();
        }
        start_node(best, th, v);
      }
      slots_.push_back({best, core});
    }
    assign_cores();
  }

  /// Map the chosen run slots (slots_) onto cores, keeping continuing
  /// slots on their previous core so traces show stable placements.
  void assign_cores() {
    std::fill(next_.begin(), next_.end(), std::nullopt);
    placed_.assign(slots_.size(), false);

    for (std::size_t c = 0; c < m_; ++c) {
      if (!running_[c].has_value()) continue;
      for (std::size_t s = 0; s < slots_.size(); ++s) {
        if (!placed_[s] && slots_[s] == *running_[c]) {
          next_[c] = slots_[s];
          placed_[s] = true;
          break;
        }
      }
    }
    std::size_t cursor = 0;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (placed_[s]) continue;
      while (cursor < m_ && next_[cursor].has_value()) ++cursor;
      if (cursor >= m_) break;  // defensive; slots_.size() <= m_ by construction
      next_[cursor] = slots_[s];
    }
    running_.swap(next_);
  }

  // ---- trace -----------------------------------------------------------

  void trace_switch(Time now) {
    if (!config_.collect_trace) return;
    for (std::size_t c = 0; c < m_; ++c) {
      const auto& open = open_interval_[c];
      const auto& cur = running_[c];
      const bool same =
          open.has_value() && cur.has_value() && open->slot == cur.value() &&
          open->node == pools_[cur->task].threads[cur->thread].node;
      if (same) continue;
      if (open.has_value() && now > open->start + kEps) {
        result_.trace.push_back({c, open->slot.task, open->node, open->start, now});
      }
      if (cur.has_value()) {
        open_interval_[c] = OpenInterval{
            *cur, pools_[cur->task].threads[cur->thread].node, now};
      } else {
        open_interval_[c].reset();
      }
    }
  }

  // ---- main loop pieces --------------------------------------------------

  void advance(Time dt) {
    for (const auto& slot : running_) {
      if (!slot.has_value()) continue;
      ThreadState& th = pools_[slot->task].threads[slot->thread];
      th.remaining -= dt;
    }
  }

  void process_instant(Time t) {
    // Dispatch reads thread modes and queues; advance() only lowers
    // `remaining`, and a dispatch on unchanged modes and queues changes
    // nothing. So dispatch runs only after a release or a completion.
    bool changed = true;
    bool completed = false;
    while (changed && !halted_) {
      const bool released = release_due_jobs(t);
      if (released || completed) {
        if (partitioned()) {
          dispatch_partitioned();
        } else {
          dispatch_global();
        }
      }
      completed = complete_due_nodes(t);
      changed = released || completed;
    }
    trace_switch(t);
    detect_deadlocks(t);
  }

  /// Job releases due at t; true if any.
  bool release_due_jobs(Time t) {
    bool released = false;
    for (std::size_t i = 0; i < pools_.size(); ++i) {
      PoolState& p = pools_[i];
      while (!p.releases_exhausted && p.next_release <= t + kEps) {
        const Time release = p.next_release;
        ++result_.per_task[i].jobs_released;
        if (p.job_active) {
          p.backlog.push_back(release);
        } else {
          start_job(i, release);
        }
        schedule_next_release(i, release);
        released = true;
      }
    }
    return released;
  }

  /// Completions of running nodes that have exhausted their budget; true
  /// if any.
  bool complete_due_nodes(Time t) {
    bool completed = false;
    for (std::size_t c = 0; c < m_; ++c) {
      if (!running_[c].has_value()) continue;
      const RunSlot slot = *running_[c];
      ThreadState& th = pools_[slot.task].threads[slot.thread];
      if (th.mode == ThreadMode::kBusy && th.remaining <= completion_eps(t)) {
        // Close the trace interval at the true finish time.
        if (config_.collect_trace && open_interval_[c].has_value()) {
          const OpenInterval& oi = *open_interval_[c];
          if (t > oi.start + kEps)
            result_.trace.push_back({c, oi.slot.task, oi.node, oi.start, t});
          open_interval_[c].reset();
        }
        complete_node(slot.task, slot.thread, t);
        running_[c].reset();
        completed = true;
      }
    }
    return completed;
  }

  void schedule_next_release(std::size_t task, Time current_release) {
    PoolState& p = pools_[task];
    const Time period = ts_.task(task).period();
    Time next = current_release + period;
    if (config_.release_jitter_frac > 0.0)
      next += period * rng_.uniform(0.0, config_.release_jitter_frac);
    if (next >= config_.horizon - kEps) {
      p.releases_exhausted = true;
    } else {
      p.next_release = next;
    }
  }

  /// A task is permanently stuck exactly when its job is incomplete and no
  /// pool thread is busy after a work-conserving dispatch: every remaining
  /// node either waits behind a suspended thread or belongs to an unopened
  /// barrier whose members do (see engine.h).
  void detect_deadlocks(Time t) {
    if (result_.deadlock.has_value()) return;
    for (std::size_t i = 0; i < pools_.size(); ++i) {
      PoolState& p = pools_[i];
      if (!p.job_active || p.deadlocked || p.busy > 0) continue;

      // Distinguish a *preempted* pool (work is dispatchable, the threads
      // simply lost their cores to higher-priority tasks) from a *stuck*
      // one: dispatchable work means an idle (non-suspended) thread can
      // still pull a queued node once a core frees up.
      bool dispatchable = false;
      if (partitioned()) {
        for (std::size_t th = 0; th < m_; ++th) {
          if (p.threads[th].mode == ThreadMode::kIdle && can_start(p, th)) {
            dispatchable = true;
            break;
          }
        }
      } else {
        const bool any_idle =
            std::any_of(p.threads.begin(), p.threads.end(), [](const ThreadState& th) {
              return th.mode == ThreadMode::kIdle;
            });
        dispatchable = any_idle && !p.pool_queue.empty();
      }
      if (dispatchable) continue;

      p.deadlocked = true;
      DeadlockInfo info;
      info.task_index = i;
      info.time = t;
      info.description =
          ts_.task(i).name() + " stalled at t=" + std::to_string(t) + ": " +
          std::to_string(p.suspended_count) + "/" + std::to_string(m_) +
          " threads suspended on barriers, no runnable node remains (" +
          std::to_string(p.nodes_left) + " nodes pending)";
      result_.deadlock = info;
      halted_ = true;
      return;
    }
  }

  Time next_event_time(Time t) const {
    Time next = std::numeric_limits<Time>::infinity();
    for (const PoolState& p : pools_)
      if (!p.releases_exhausted) next = std::min(next, p.next_release);
    for (const auto& slot : running_) {
      if (!slot.has_value()) continue;
      const ThreadState& th = pools_[slot->task].threads[slot->thread];
      next = std::min(next, t + std::max(th.remaining, 0.0));
    }
    return next;
  }

  void finalize(Time t) {
    trace_switch(t);
    for (std::size_t i = 0; i < pools_.size(); ++i) {
      PoolState& p = pools_[i];
      result_.per_task[i].min_available_concurrency = p.min_available;
      if (!p.job_active) continue;
      // Cut-off job: only count a miss if its deadline already passed.
      JobRecord rec;
      rec.task_index = i;
      rec.job_number = p.job_number;
      rec.release = p.job_release;
      rec.completion = t;
      rec.response = t - p.job_release;
      rec.completed = false;
      rec.deadline_miss = p.job_release + ts_.task(i).deadline() < t - kEps ||
                          p.deadlocked;
      if (rec.deadline_miss) {
        ++result_.per_task[i].deadline_misses;
        result_.any_deadline_miss = true;
      }
      result_.jobs.push_back(rec);
    }
  }

  struct OpenInterval {
    RunSlot slot;
    NodeId node = 0;
    Time start = 0.0;
  };

  const model::TaskSet& ts_;
  SimConfig config_;
  std::size_t m_;
  util::Rng rng_;

  std::vector<std::size_t> order_;  ///< Task indices by ascending priority.
  std::vector<int> prio_;           ///< Per task.
  std::vector<PoolState> pools_;
  std::vector<std::optional<RunSlot>> running_;  ///< Per core.
  std::vector<std::optional<OpenInterval>> open_interval_{};
  // Dispatch scratch, reused by every dispatch.
  std::vector<RunSlot> slots_;                   ///< Chosen busy threads.
  std::vector<std::optional<RunSlot>> next_;     ///< assign_cores' result.
  std::vector<bool> placed_;                     ///< Per slot.
  SimResult result_;
  bool halted_ = false;
};

}  // namespace

SimResult simulate(const model::TaskSet& ts, const SimConfig& config) {
  return Engine(ts, config).run();
}

const char* to_string(SimOutcome outcome) {
  switch (outcome) {
    case SimOutcome::kOk: return "ok";
    case SimOutcome::kDeadlineMiss: return "deadline-miss";
    case SimOutcome::kDeadlock: return "deadlock";
  }
  return "ok";
}

SimOutcome parse_sim_outcome(const std::string& name) {
  if (name == "ok") return SimOutcome::kOk;
  if (name == "deadline-miss") return SimOutcome::kDeadlineMiss;
  if (name == "deadlock") return SimOutcome::kDeadlock;
  throw std::invalid_argument("unknown sim outcome '" + name +
                              "' (valid: ok, deadline-miss, deadlock)");
}

SimVerdict oracle_verdict(const model::TaskSet& ts,
                          const OracleOptions& options) {
  if (!(options.windows > 0.0))
    throw std::invalid_argument("oracle_verdict: windows must be positive");
  util::Time max_period = 0.0;
  for (const model::DagTask& task : ts.tasks())
    max_period = std::max(max_period, task.period());

  SimConfig config;
  config.policy = options.policy;
  config.horizon = options.windows * max_period;
  config.partition = options.partition;
  config.work_stealing = options.work_stealing;
  config.collect_trace = options.collect_trace;
  config.stop_on_miss = true;
  config.release_jitter_frac = options.release_jitter_frac;
  config.seed = options.seed;

  SimVerdict verdict;
  verdict.horizon = config.horizon;
  auto result = std::make_shared<SimResult>(simulate(ts, config));

  // A deadlock outranks the misses it causes: finalize marks every job cut
  // off by the stall as missed, but the stall itself is the event.
  if (result->deadlock.has_value()) {
    verdict.outcome = SimOutcome::kDeadlock;
    verdict.first_violation_task = result->deadlock->task_index;
    verdict.first_violation_time = result->deadlock->time;
    verdict.description = result->deadlock->description;
  } else if (result->any_deadline_miss) {
    verdict.outcome = SimOutcome::kDeadlineMiss;
    // Jobs are recorded in completion order; the first missing record is
    // the first violation the run observed.
    for (const JobRecord& rec : result->jobs) {
      if (!rec.deadline_miss) continue;
      verdict.first_violation_task = rec.task_index;
      verdict.first_violation_time = rec.completion;
      {
        std::ostringstream os;
        os << "task " << rec.task_index << " ('"
           << ts.task(rec.task_index).name() << "') job " << rec.job_number
           << (rec.completed ? " missed: R=" : " cut off: R>=") << rec.response
           << " > D=" << ts.task(rec.task_index).deadline();
        verdict.description = os.str();
      }
      break;
    }
  }
  verdict.result = std::move(result);
  return verdict;
}

}  // namespace rtpool::sim
