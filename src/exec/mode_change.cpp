#include "exec/mode_change.h"

#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/deadlock.h"
#include "util/json.h"

namespace rtpool::exec {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

const char* to_string(ModeRequestKind kind) {
  switch (kind) {
    case ModeRequestKind::kAdmit: return "admit";
    case ModeRequestKind::kEvict: return "evict";
    case ModeRequestKind::kResize: return "resize";
  }
  return "?";
}

ModeChangeController::ModeChangeController(ModeChangeConfig config,
                                           ThreadPool* pool)
    : config_(std::move(config)),
      analyzer_(&analysis::get_analyzer(config_.analyzer)),
      pool_(pool) {
  const std::size_t workers =
      pool_ != nullptr ? pool_->worker_count() : config_.cores;
  if (workers == 0)
    throw std::invalid_argument(
        "ModeChangeController: need a pool or a non-zero config.cores");
  auto initial = std::make_shared<model::TaskSet>(workers);
  auto snap = std::make_shared<ModeSnapshot>();
  snap->task_set = initial;
  snap->workers = workers;
  snap->version = 1;
  {
    util::MutexLock lock(state_mutex_);
    mode_ = snap;
  }
  util::MutexLock req(request_mutex_);
  ctx_ = std::make_unique<analysis::RtaContext>(*initial);
  ctx_->set_snapshots(true);
}

ModeTransition ModeChangeController::admit(const model::DagTask& task) {
  return process(ModeRequestKind::kAdmit, &task, "", 0);
}

ModeTransition ModeChangeController::evict(const std::string& task_name) {
  return process(ModeRequestKind::kEvict, nullptr, task_name, 0);
}

ModeTransition ModeChangeController::resize(std::size_t new_workers) {
  return process(ModeRequestKind::kResize, nullptr, "", new_workers);
}

ModeSnapshot ModeChangeController::mode() const {
  util::MutexLock lock(state_mutex_);
  return *mode_;
}

std::vector<ModeTransition> ModeChangeController::transition_log() const {
  util::MutexLock lock(state_mutex_);
  return log_;
}

analysis::Report ModeChangeController::cold_analyze(
    const model::TaskSet& proposed) const {
  analysis::AnalyzerOptions opts = config_.options;
  opts.diagnostics = true;
  analysis::RtaContext ctx(proposed);  // nothing copied: a true cold run
  return analyzer_->analyze(proposed, ctx, opts);
}

std::shared_ptr<const ModeSnapshot> ModeChangeController::begin_job() {
  util::MutexLock lock(state_mutex_);
  while (commit_in_progress_) state_cv_.wait(state_mutex_);
  ++active_jobs_;
  return mode_;
}

void ModeChangeController::end_job() {
  util::MutexLock lock(state_mutex_);
  --active_jobs_;
  state_cv_.notify_all();
}

std::optional<std::string> ModeChangeController::runtime_cross_check(
    const model::TaskSet& proposed,
    const std::optional<analysis::TaskSetPartition>& partition,
    std::size_t workers) const {
  for (std::size_t i = 0; i < proposed.size(); ++i) {
    const model::DagTask& task = proposed.task(i);
    if (partition.has_value()) {
      // Lemma 3 against the binding jobs will actually execute under.
      const analysis::DeadlockCheck chk =
          analysis::check_deadlock_free_partitioned(task, workers,
                                                    partition->per_task[i]);
      if (!chk.deadlock_free)
        return "task " + task.name() + ": " + chk.witness;
    } else {
      // Lemma 2: m pairwise-concurrent forks can exhaust the new pool.
      const std::optional<analysis::WaitForCycle> cycle =
          analysis::find_wait_for_cycle(task, workers);
      if (cycle.has_value()) return analysis::describe(*cycle, task.name());
    }
  }
  return std::nullopt;
}

ModeTransition ModeChangeController::process(ModeRequestKind kind,
                                             const model::DagTask* task,
                                             const std::string& evict_name,
                                             std::size_t new_workers) {
  util::MutexLock req(request_mutex_);
  const auto t0 = Clock::now();

  std::shared_ptr<const ModeSnapshot> cur;
  {
    util::MutexLock lock(state_mutex_);
    cur = mode_;
  }

  ModeTransition tr;
  tr.kind = kind;
  tr.workers_after = cur->workers;

  // ---- 1. PROPOSE ----
  std::size_t workers = cur->workers;
  std::shared_ptr<model::TaskSet> proposed;
  // task_map[i] = index of proposed task i in the PREVIOUS set (nullopt for
  // the newly admitted task) — the incremental remap.
  std::vector<std::optional<std::size_t>> task_map;
  std::string build_error;
  try {
    switch (kind) {
      case ModeRequestKind::kAdmit: {
        tr.detail = task->name();
        proposed = std::make_shared<model::TaskSet>(workers);
        for (std::size_t i = 0; i < cur->task_set->size(); ++i) {
          proposed->add(cur->task_set->task(i));
          task_map.emplace_back(i);
        }
        proposed->add(*task);
        task_map.emplace_back(std::nullopt);
        break;
      }
      case ModeRequestKind::kEvict: {
        tr.detail = evict_name;
        bool found = false;
        proposed = std::make_shared<model::TaskSet>(workers);
        for (std::size_t i = 0; i < cur->task_set->size(); ++i) {
          if (cur->task_set->task(i).name() == evict_name) {
            found = true;
            continue;
          }
          proposed->add(cur->task_set->task(i));
          task_map.emplace_back(i);
        }
        if (!found) build_error = "no task named '" + evict_name + "'";
        break;
      }
      case ModeRequestKind::kResize: {
        tr.detail =
            std::to_string(cur->workers) + " -> " + std::to_string(new_workers);
        if (new_workers == 0) {
          build_error = "cannot resize to zero workers";
          break;
        }
        workers = new_workers;
        proposed = std::make_shared<model::TaskSet>(new_workers);
        for (std::size_t i = 0; i < cur->task_set->size(); ++i) {
          proposed->add(cur->task_set->task(i));
          task_map.emplace_back(i);
        }
        break;
      }
    }
  } catch (const model::ModelError& e) {
    build_error = e.what();
  }
  tr.proposed = proposed;

  const auto finalize = [&](ModeTransition& t) -> ModeTransition& {
    t.decision_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    util::MutexLock lock(state_mutex_);
    t.id = next_id_++;
    log_.push_back(t);
    return t;
  };

  if (!build_error.empty()) {
    tr.accepted = false;
    tr.reject_reason = build_error;
    return finalize(tr);
  }

  // ---- 2. ANALYZE ----
  analysis::AnalyzerOptions opts = config_.options;
  opts.diagnostics = true;  // every verdict carries its certificate witness
  auto ctx = std::make_unique<analysis::RtaContext>(*proposed);
  // Record snapshots on this context too: if the proposal commits, the
  // NEXT transition analyzes incrementally against this run's results.
  ctx->set_snapshots(true);
  // Sound for every kind: begin_incremental's structural prefix plus the
  // per-analyze guards (options fingerprint, scale, core count, partition
  // rows) only copy verdicts whose inputs are provably unchanged — a
  // resize to a new m, say, copies nothing.
  tr.incremental_prefix = ctx->begin_incremental(*ctx_, task_map);
  try {
    tr.report = analyzer_->analyze(*proposed, *ctx, opts);
    tr.accepted = tr.report.schedulable;
    if (!tr.accepted) {
      std::ostringstream why;
      why << "analysis rejected the proposal";
      if (tr.report.limiting_task.has_value())
        why << ": task "
            << proposed->task(*tr.report.limiting_task).name()
            << " unschedulable";
      tr.reject_reason = why.str();
    }
  } catch (const model::ModelError& e) {
    tr.accepted = false;
    tr.reject_reason = std::string("analysis error: ") + e.what();
  }
  tr.incremental_hits = ctx->incremental_hits();

  if (!tr.accepted) return finalize(tr);

  // The partition the admitted configuration will execute under.
  std::optional<analysis::TaskSetPartition> partition;
  if (analyzer_->capabilities().uses_partition) {
    if (config_.options.partition != nullptr) {
      partition = *config_.options.partition;
    } else {
      const analysis::PartitionResult pr = analyzer_->make_partition(*proposed);
      if (pr.success()) {
        partition = *pr.partition;
      } else {
        tr.accepted = false;
        tr.reject_reason = "partitioner failed: " + pr.failure;
        return finalize(tr);
      }
    }
  }

  // ---- 3./5. CROSS-CHECK (before the switch point: an accepted-but-
  // invalid binding must roll back without ever being installed) ----
  if (config_.cross_check) {
    const std::optional<std::string> witness =
        runtime_cross_check(*proposed, partition, workers);
    tr.cross_check_ok = !witness.has_value();
    if (!tr.cross_check_ok && config_.require_cross_check) {
      tr.reject_reason = "runtime cross-check failed: " + *witness;
      return finalize(tr);  // rolled back: old mode stays committed
    }
  }

  // ---- 4. DRAIN ----
  {
    util::MutexLock lock(state_mutex_);
    commit_in_progress_ = true;
    while (active_jobs_ > 0) state_cv_.wait(state_mutex_);
  }

  // ---- 6. COMMIT ----
  bool pool_applied = true;
  std::string pool_error;
  if (pool_ != nullptr && kind == ModeRequestKind::kResize) {
    try {
      const std::size_t m = pool_->worker_count();
      if (new_workers > m) pool_->add_workers(new_workers - m);
      else if (new_workers < m) pool_->retire_workers(m - new_workers);
    } catch (const std::exception& e) {
      pool_applied = false;
      pool_error = e.what();
    }
  }
  {
    util::MutexLock lock(state_mutex_);
    if (pool_applied) {
      auto snap = std::make_shared<ModeSnapshot>();
      snap->task_set = proposed;
      snap->partition = partition;
      snap->workers = workers;
      snap->version = ++version_;
      mode_ = snap;
    }
    commit_in_progress_ = false;
    state_cv_.notify_all();
  }
  if (!pool_applied) {
    tr.reject_reason = "pool resize failed: " + pool_error;
    return finalize(tr);
  }
  // The committed mode's context feeds the next transition's copy.
  ctx_ = std::move(ctx);
  tr.committed = true;
  tr.workers_after = workers;
  return finalize(tr);
}

std::string ModeChangeController::render_log_json(bool include_timings) const {
  const std::vector<ModeTransition> log = transition_log();
  std::ostringstream out;
  util::JsonWriter json(out);
  json.begin_object();
  json.kv("schema", "rtpool-mode-transitions-v2");
  json.kv("analyzer", config_.analyzer);
  json.key("transitions");
  json.begin_array();
  for (const ModeTransition& tr : log) {
    json.begin_object();
    json.kv("id", tr.id);
    json.kv("kind", std::string(to_string(tr.kind)));
    json.kv("detail", tr.detail);
    json.kv("accepted", tr.accepted);
    json.kv("committed", tr.committed);
    json.kv("cross_check_ok", tr.cross_check_ok);
    json.kv("incremental_prefix",
            static_cast<std::uint64_t>(tr.incremental_prefix));
    json.kv("incremental_hits",
            static_cast<std::uint64_t>(tr.incremental_hits));
    json.kv("reject_reason", tr.reject_reason);
    json.kv("schedulable", tr.report.schedulable);
    json.kv("has_certificate", tr.report.certificate != nullptr);
    if (tr.report.limiting_task.has_value())
      json.kv("limiting_task",
              static_cast<std::uint64_t>(*tr.report.limiting_task));
    if (std::isfinite(tr.report.limiting_ratio))
      json.kv("limiting_ratio", tr.report.limiting_ratio);
    json.kv("tasks",
            static_cast<std::uint64_t>(tr.proposed ? tr.proposed->size() : 0));
    json.kv("workers_after", static_cast<std::uint64_t>(tr.workers_after));
    if (include_timings) json.kv("decision_ms", tr.decision_ms);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << "\n";
  return out.str();
}

}  // namespace rtpool::exec
