// Task set Γ = {τ_1..τ_n} on a platform of m identical processors.
//
// Each task is served by its own pool of m threads (one per core under
// partitioned scheduling), all at the task's priority, matching Section 2.
#pragma once

#include <string>
#include <vector>

#include "model/dag_task.h"

namespace rtpool::model {

/// Immutable-ish container of DagTasks plus the platform core count.
class TaskSet {
 public:
  /// Throws ModelError if core_count == 0.
  explicit TaskSet(std::size_t core_count);

  /// Add a task. Throws ModelError if another task already has the same name.
  void add(DagTask task);

  std::size_t size() const { return tasks_.size(); }
  bool empty() const { return tasks_.empty(); }

  /// Number of processors m (= threads per pool).
  std::size_t core_count() const { return core_count_; }

  const DagTask& task(std::size_t i) const { return tasks_.at(i); }
  const std::vector<DagTask>& tasks() const { return tasks_; }

  /// Sum of task utilizations U = Σ vol(τ_i)/T_i.
  double total_utilization() const;

  /// Indices of tasks with strictly higher priority than tasks_[i]
  /// (lower priority value). Ties are broken by index to keep the priority
  /// order total, matching `priority_order()`.
  std::vector<std::size_t> higher_priority_of(std::size_t i) const;

  /// Task indices sorted from highest to lowest priority.
  std::vector<std::size_t> priority_order() const;

  /// True if all task priorities are pairwise distinct.
  bool priorities_distinct() const;

  /// Move out the task storage, leaving this set empty (rvalue-only; used
  /// by the priority-assignment move path).
  std::vector<DagTask> release_tasks() && { return std::move(tasks_); }

 private:
  std::size_t core_count_;
  std::vector<DagTask> tasks_;
};

/// Reassign priorities deadline-monotonically (shorter deadline = higher
/// priority, ties broken by task order); returns a new task set. Takes the
/// set by rvalue and moves every task (and its closure caches) instead of
/// deep copying — the generator always passes a freshly built set; pass
/// `TaskSet(ts)` to keep the original.
TaskSet assign_deadline_monotonic(TaskSet&& ts);

}  // namespace rtpool::model
