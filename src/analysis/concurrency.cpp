#include "analysis/concurrency.h"

#include <algorithm>

namespace rtpool::analysis {

namespace {

/// Bitset of all BF nodes of the task.
util::DynamicBitset blocking_fork_mask(const DagTask& task) {
  util::DynamicBitset mask(task.node_count());
  for (const model::BlockingRegion& r : task.blocking_regions()) mask.set(r.fork);
  return mask;
}

/// C(v): bitset (over node ids) of BF nodes concurrent with v.
util::DynamicBitset concurrent_blocking_forks(const DagTask& task, NodeId v) {
  // C(v) = BF \ (pred(v) ∪ succ(v) ∪ {v}), with pred/succ transitive.
  util::DynamicBitset c = blocking_fork_mask(task);
  const graph::Reachability& reach = task.reachability();
  c.and_not_assign(reach.ancestors(v));
  c.and_not_assign(reach.descendants(v));
  if (c.test(v)) c.reset(v);
  return c;
}

}  // namespace

util::DynamicBitset affecting_blocking_forks(const DagTask& task, NodeId v) {
  util::DynamicBitset x = concurrent_blocking_forks(task, v);
  if (task.type(v) == model::NodeType::BC) x.set(task.blocking_fork_of(v));
  return x;
}

std::size_t max_affecting_forks(const DagTask& task) {
  // The maximum over v of |X(v)| is structural and cached by DagTask at
  // construction; the per-node accessors above stay available for witness
  // extraction and diagnostics.
  return task.max_affecting_forks();
}

long available_concurrency_lower_bound(const DagTask& task, std::size_t pool_size) {
  return static_cast<long>(pool_size) - static_cast<long>(max_affecting_forks(task));
}

void all_affecting_forks(const DagTask& task,
                         std::vector<util::DynamicBitset>& out) {
  // Copy-assigning into recycled slots reuses each bitset's word storage
  // when the caller sweeps many same-sized tasks (the experiment engine's
  // partitioning hot loop).
  out.resize(task.node_count());
  const util::DynamicBitset bf_mask = blocking_fork_mask(task);
  const graph::Reachability& reach = task.reachability();
  for (NodeId v = 0; v < task.node_count(); ++v) {
    util::DynamicBitset& x = out[v];
    x = bf_mask;
    x.and_not_assign(reach.ancestors(v));
    x.and_not_assign(reach.descendants(v));
    if (x.test(v)) x.reset(v);
    if (task.type(v) == model::NodeType::BC) x.set(task.blocking_fork_of(v));
  }
}

}  // namespace rtpool::analysis
