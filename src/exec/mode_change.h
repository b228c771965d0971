// Guarded online mode changes: an admission controller in front of every
// runtime transition of a pool-backed system.
//
// The paper analyzes a CLOSED system: a fixed task set on a fixed pool of m
// workers. A production service is open — task sets arrive, leave and
// resize while the pool runs. The ModeChangeController makes those
// transitions safe by construction:
//
//   request (admit / evict / resize)
//        │
//        ▼
//   1. PROPOSE   — build the candidate configuration (task set + core
//                  count) from the current committed mode;
//   2. ANALYZE   — run the registry analyzer over the whole proposal,
//                  cold: the verdict is exactly
//                  analyzer.analyze(proposal, options) with diagnostics on,
//                  whatever the request kind or the history before it.
//   3. DECIDE    — reject unless the analysis proves the proposal
//                  schedulable. Rejections carry the analyzer Report with
//                  its machine-checkable certificate (cert.h): the witness
//                  WHY the transition was refused, independently
//                  re-validatable via cert::check_certificate.
//   4. DRAIN     — block new JobScopes and wait until in-flight jobs of
//                  the old mode finish (quiescent switch point).
//   5. CROSS-CHECK — re-validate the accepted proposal against the runtime
//                  binding it will execute under: wait-for-cycle check
//                  (Lemma 2) per task for global modes, Lemma 3 / Eq. (3)
//                  per task under the new partition for partitioned modes.
//                  A failure here ROLLS BACK the transition (the old mode
//                  stays committed) and is recorded with its witness —
//                  defense in depth against an analyzer/binding mismatch.
//   6. COMMIT    — apply the pool delta (add_workers / retire_workers with
//                  its drain protocol) and install the new mode snapshot.
//
// Every request appends a ModeTransition to the replayable transition log.
// DETERMINISM CONTRACT: the controller derives nothing from wall-clock or
// randomness — feeding the same request sequence to a fresh controller
// with the same config yields an identical log (verdicts, reasons,
// certificates), except for the decision_ms timings; compare via
// render_log_json(/*include_timings=*/false).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/partition.h"
#include "exec/thread_pool.h"
#include "model/dag_task.h"
#include "model/task_set.h"
#include "util/thread_annotations.h"

namespace rtpool::exec {

enum class ModeRequestKind : std::uint8_t { kAdmit, kEvict, kResize };

const char* to_string(ModeRequestKind kind);

struct ModeChangeConfig {
  /// Registry analyzer answering admission (resolved at construction;
  /// std::invalid_argument on an unknown name).
  std::string analyzer = "global-limited";
  /// Initial core count m when no pool is attached (ignored otherwise —
  /// the pool's worker_count() wins). Must be > 0 in that case.
  std::size_t cores = 0;
  /// Cross-cutting analysis knobs. `diagnostics` is forced on internally
  /// so every verdict carries its certificate.
  analysis::AnalyzerOptions options;
};

/// The committed configuration a JobScope executes under. Immutable;
/// shared with in-flight jobs so a commit never invalidates what a running
/// job observes.
struct ModeSnapshot {
  std::shared_ptr<const model::TaskSet> task_set;
  /// Partition the analyzer admitted under (partitioned analyzers only).
  std::optional<analysis::TaskSetPartition> partition;
  std::size_t workers = 0;
  std::uint64_t version = 0;  ///< Monotone; bumped per commit.
};

/// One entry of the replayable transition log.
struct ModeTransition {
  std::uint64_t id = 0;  ///< 1-based request sequence number.
  ModeRequestKind kind = ModeRequestKind::kAdmit;
  std::string detail;    ///< Task name (admit/evict) or "m -> k" (resize).
  bool accepted = false;   ///< The analysis proved the proposal schedulable.
  bool committed = false;  ///< Installed as the current mode.
  bool cross_check_ok = true;   ///< Runtime re-validation verdict.
  std::string reject_reason;    ///< Why not committed ("" when committed).
  /// Full analyzer verdict; `report.certificate` is the machine-checkable
  /// witness (always attached — diagnostics is forced on).
  analysis::Report report;
  /// The analyzed candidate configuration (shared, immutable). Enables
  /// independent certificate checking (cert::check_certificate).
  std::shared_ptr<const model::TaskSet> proposed;
  std::size_t workers_after = 0;  ///< Committed pool size after the request.
  double decision_ms = 0.0;       ///< Request-to-verdict wall time.
};

/// See file header. Thread-safe: requests serialize against each other;
/// JobScopes run concurrently with everything except the drain window.
class ModeChangeController {
 public:
  /// `pool` (optional, borrowed) receives add_workers/retire_workers on
  /// committed resizes; its worker_count() seeds the initial mode size.
  explicit ModeChangeController(ModeChangeConfig config,
                                ThreadPool* pool = nullptr);

  ModeChangeController(const ModeChangeController&) = delete;
  ModeChangeController& operator=(const ModeChangeController&) = delete;

  /// Request admission of `task` into the current mode.
  ModeTransition admit(const model::DagTask& task);
  /// Request removal of the task named `task_name`.
  ModeTransition evict(const std::string& task_name);
  /// Request a pool resize to `new_workers` (the whole surviving task set
  /// is re-analyzed at the new m).
  ModeTransition resize(std::size_t new_workers);

  /// The committed mode (snapshot copy; the shared task set stays valid).
  ModeSnapshot mode() const;

  /// Copy of the transition log so far.
  std::vector<ModeTransition> transition_log() const;

  /// JSON rendering of the log (the replay artifact). With
  /// include_timings = false the output is bit-identical across replays of
  /// the same request sequence — the determinism contract.
  std::string render_log_json(bool include_timings = true) const;

  const ModeChangeConfig& config() const { return config_; }

  /// RAII handle for one job executing under the committed mode: commits
  /// drain (wait for) all live JobScopes before installing a new mode, and
  /// new JobScopes block while a commit is in progress.
  class JobScope {
   public:
    explicit JobScope(ModeChangeController& controller)
        : controller_(controller), snapshot_(controller.begin_job()) {}
    ~JobScope() { controller_.end_job(); }
    JobScope(const JobScope&) = delete;
    JobScope& operator=(const JobScope&) = delete;

    const model::TaskSet& task_set() const { return *snapshot_->task_set; }
    const ModeSnapshot& snapshot() const { return *snapshot_; }

   private:
    ModeChangeController& controller_;
    std::shared_ptr<const ModeSnapshot> snapshot_;
  };

 private:
  friend class JobScope;

  std::shared_ptr<const ModeSnapshot> begin_job();
  void end_job();

  /// The common request path (steps 1-6 of the file header).
  ModeTransition process(ModeRequestKind kind, const model::DagTask* task,
                         const std::string& evict_name,
                         std::size_t new_workers);

  /// Step 5: per-task runtime re-validation at pool size m under the
  /// proposed binding. Returns nullopt on success, the witness otherwise.
  std::optional<std::string> runtime_cross_check(
      const model::TaskSet& proposed,
      const std::optional<analysis::TaskSetPartition>& partition,
      std::size_t workers) const;

  ModeChangeConfig config_;
  const analysis::Analyzer* analyzer_;
  ThreadPool* pool_;

  /// Serializes requests end-to-end (decide + drain + commit). Acquired
  /// before state_mutex_; never the other way around.
  util::Mutex request_mutex_;

  mutable util::Mutex state_mutex_;
  util::CondVar state_cv_;
  std::shared_ptr<const ModeSnapshot> mode_ RTPOOL_GUARDED_BY(state_mutex_);
  std::size_t active_jobs_ RTPOOL_GUARDED_BY(state_mutex_) = 0;
  bool commit_in_progress_ RTPOOL_GUARDED_BY(state_mutex_) = false;
  std::vector<ModeTransition> log_ RTPOOL_GUARDED_BY(state_mutex_);
  std::uint64_t next_id_ RTPOOL_GUARDED_BY(state_mutex_) = 1;
  std::uint64_t version_ RTPOOL_GUARDED_BY(state_mutex_) = 1;
};

}  // namespace rtpool::exec
