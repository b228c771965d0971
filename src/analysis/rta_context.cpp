#include "analysis/rta_context.h"

#include <algorithm>

#include "analysis/deadlock.h"
#include "graph/reachability.h"

namespace rtpool::analysis {

RtaContext::RtaContext(const model::TaskSet& ts) : ts_(&ts) { reset(ts); }

void RtaContext::reset(const model::TaskSet& ts) {
  ts_ = &ts;
  const std::size_t n = ts.size();

  priority_order_built_ = false;
  if (higher_priority_.size() < n) higher_priority_.resize(n);
  higher_priority_built_.assign(n, 0);

  binding_ = 0;
  bound_.per_task.clear();
  bound_cores_ = 0;
  deadlock_free_.clear();
}

const std::vector<std::size_t>& RtaContext::priority_order() {
  if (!priority_order_built_) {
    priority_order_ = ts_->priority_order();
    priority_order_built_ = true;
  }
  return priority_order_;
}

const std::vector<std::size_t>& RtaContext::higher_priority(std::size_t i) {
  if (!higher_priority_built_.at(i)) {
    higher_priority_[i] = ts_->higher_priority_of(i);
    higher_priority_built_[i] = 1;
  }
  return higher_priority_[i];
}

void RtaContext::compute_fifo_blocking_row(
    std::size_t i, const std::vector<ThreadId>& thread_of) {
  const model::DagTask& task = ts_->task(i);
  const std::size_t n = task.node_count();
  const std::vector<util::Time>& wcets = task.wcets();
  util::Time* blocking = fifo_blocking_flat_.data() + node_offset_[i];

  // Group the nodes by core once (self-sizing: co-location is all that
  // matters here, the platform core count is irrelevant).
  ThreadId max_core = 0;
  for (model::NodeId v = 0; v < n; ++v) max_core = std::max(max_core, thread_of[v]);
  const std::size_t groups = static_cast<std::size_t>(max_core) + 1;
  if (on_core_scratch_.size() < groups) on_core_scratch_.resize(groups);
  for (std::size_t c = 0; c < groups; ++c) on_core_scratch_[c].resize_clear(n);
  for (model::NodeId v = 0; v < n; ++v) on_core_scratch_[thread_of[v]].set(v);

  const graph::Reachability& reach = task.reachability();
  for (model::NodeId v = 0; v < n; ++v) {
    if (task.type(v) == model::NodeType::BJ) {
      blocking[v] = 0.0;  // joins bypass the queue
      continue;
    }
    // Fused word sweep over on_core(core) ∧ ¬(anc(v) ∨ desc(v)) \ {v}: one
    // pass instead of unordered_mask (set_all + two and_nots) followed by
    // an and_assign. Ascending-id accumulation, so the sum is bit-identical
    // to the naive double loop (and to fifo_blocking_vector).
    const std::span<const std::uint64_t> aw = reach.ancestors(v).words();
    const std::span<const std::uint64_t> dw = reach.descendants(v).words();
    const std::span<const std::uint64_t> cw =
        on_core_scratch_[thread_of[v]].words();
    const std::size_t self_word = v / 64;
    util::Time b = 0.0;
    for (std::size_t w = 0; w < cw.size(); ++w) {
      std::uint64_t bits = cw[w] & ~(aw[w] | dw[w]);
      if (w == self_word) bits &= ~(std::uint64_t{1} << (v % 64));
      while (bits != 0) {
        const int t = __builtin_ctzll(bits);
        b += wcets[w * 64 + static_cast<std::size_t>(t)];
        bits &= bits - 1;
      }
    }
    blocking[v] = b;
  }
}

void RtaContext::bind_partition(const TaskSetPartition& partition) {
  const std::size_t n = ts_->size();
  if (partition.per_task.size() != n)
    throw model::ModelError("RtaContext::bind_partition: partition size mismatch");
  if (binding_ != 0 && bound_.per_task == partition.per_task) return;  // no-op

  const std::size_t m = ts_->core_count();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& thread_of = partition.per_task[i].thread_of;
    if (thread_of.size() != ts_->task(i).node_count())
      throw model::ModelError(
          "RtaContext::bind_partition: assignment size mismatch");
    for (ThreadId t : thread_of)
      if (t >= m)
        throw model::ModelError(
            "RtaContext::bind_partition: thread id out of range");
  }

  node_offset_.resize(n + 1);
  node_offset_[0] = 0;
  for (std::size_t i = 0; i < n; ++i)
    node_offset_[i + 1] = node_offset_[i] + ts_->task(i).node_count();
  bound_cores_ = m;
  core_workload_flat_.assign(n * m, 0.0);
  fifo_blocking_flat_.assign(node_offset_[n], 0.0);
  deadlock_free_.assign(n, -1);

  for (std::size_t i = 0; i < n; ++i) {
    const auto& thread_of = partition.per_task[i].thread_of;
    util::Time* w = core_workload_flat_.data() + i * m;
    const std::vector<util::Time>& wcets = ts_->task(i).wcets();
    for (std::size_t v = 0; v < thread_of.size(); ++v) w[thread_of[v]] += wcets[v];
    compute_fifo_blocking_row(i, thread_of);
  }
  bound_ = partition;
  ++binding_;
}

bool RtaContext::deadlock_free(std::size_t i) {
  if (binding_ == 0)
    throw model::ModelError("RtaContext::deadlock_free: no partition bound");
  if (deadlock_free_.at(i) < 0) {
    deadlock_free_[i] = is_deadlock_free_partitioned(
                            ts_->task(i), ts_->core_count(), bound_.per_task[i])
                            ? 1
                            : 0;
  }
  return deadlock_free_[i] == 1;
}

}  // namespace rtpool::analysis
