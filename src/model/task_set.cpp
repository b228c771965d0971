#include "model/task_set.h"

#include <algorithm>
#include <numeric>

namespace rtpool::model {

TaskSet::TaskSet(std::size_t core_count) : core_count_(core_count) {
  if (core_count_ == 0) throw ModelError("TaskSet: core count must be > 0");
}

void TaskSet::add(DagTask task) {
  for (const DagTask& existing : tasks_) {
    if (existing.name() == task.name())
      throw ModelError("TaskSet: duplicate task name '" + task.name() + "'");
  }
  tasks_.push_back(std::move(task));
}

double TaskSet::total_utilization() const {
  double u = 0.0;
  for (const DagTask& t : tasks_) u += t.utilization();
  return u;
}

std::vector<std::size_t> TaskSet::higher_priority_of(std::size_t i) const {
  const DagTask& ti = tasks_.at(i);
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < tasks_.size(); ++j) {
    if (j == i) continue;
    const DagTask& tj = tasks_[j];
    if (tj.priority() < ti.priority() ||
        (tj.priority() == ti.priority() && j < i))
      out.push_back(j);
  }
  return out;
}

std::vector<std::size_t> TaskSet::priority_order() const {
  std::vector<std::size_t> order(tasks_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks_[a].priority() < tasks_[b].priority();
  });
  return order;
}

bool TaskSet::priorities_distinct() const {
  std::vector<int> prios;
  prios.reserve(tasks_.size());
  for (const DagTask& t : tasks_) prios.push_back(t.priority());
  std::sort(prios.begin(), prios.end());
  return std::adjacent_find(prios.begin(), prios.end()) == prios.end();
}

TaskSet assign_deadline_monotonic(TaskSet&& ts) {
  std::vector<std::size_t> order(ts.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ts.task(a).deadline() < ts.task(b).deadline();
  });
  std::vector<int> prio(ts.size());
  for (std::size_t rank = 0; rank < order.size(); ++rank)
    prio[order[rank]] = static_cast<int>(rank);

  TaskSet out(ts.core_count());
  std::vector<DagTask> tasks = std::move(ts).release_tasks();
  for (std::size_t i = 0; i < tasks.size(); ++i)
    out.add(std::move(tasks[i]).with_priority(prio[i]));
  return out;
}

}  // namespace rtpool::model
