#include "model/dag_task.h"

#include <algorithm>

#include "graph/matching.h"

namespace rtpool::model {

namespace {

std::vector<util::Time> extract_wcets(const std::vector<Node>& nodes) {
  std::vector<util::Time> w;
  w.reserve(nodes.size());
  for (const Node& n : nodes) w.push_back(n.wcet);
  return w;
}

/// Run the Section 2 checker, throwing on the first defect, and keep what it
/// derived (the topological order serves the closure sweep and the critical
/// path).
TaskStructure checked_structure(const std::string& name, const graph::Dag& dag,
                                const std::vector<Node>& nodes, util::Time period,
                                util::Time deadline) {
  if (!nodes.empty() && nodes.size() != dag.size())
    throw ModelError(name + ": node attribute count does not match graph size");
  return check_task(TaskDraft{dag, nodes, period, deadline}, model_error_sink(name));
}

}  // namespace

DefectSink model_error_sink(const std::string& task) {
  return [&task](const Defect& d) { throw ModelError(task + ": " + d.message); };
}

DagTask::DagTask(std::string name, graph::Dag dag, std::vector<Node> nodes,
                 util::Time period, util::Time deadline, int priority)
    : name_(std::move(name)),
      dag_(std::move(dag)),
      nodes_(std::move(nodes)),
      period_(period),
      deadline_(deadline),
      priority_(priority),
      wcets_(extract_wcets(nodes_)),
      // The check comes first: no closure is built for an invalid task.
      structure_(checked_structure(name_, dag_, nodes_, period_, deadline_)),
      reach_(dag_, structure_.topo),
      critical_path_(graph::longest_path(dag_, structure_.topo, wcets_)),
      volume_(graph::total_weight(wcets_)) {
  compute_concurrency_caches();
}

void DagTask::compute_concurrency_caches() {
  const std::vector<BlockingRegion>& regions = structure_.regions;
  util::DynamicBitset bf_mask(nodes_.size());
  for (const BlockingRegion& r : regions) bf_mask.set(r.fork);

  // b̄ = max_v |X(v)| with X(v) = BF \ (pred(v) ∪ succ(v) ∪ {v}), plus the
  // delimiting fork F(v) when v is of type BC (Section 3.1).
  util::DynamicBitset x(nodes_.size());
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    x = bf_mask;
    x.and_not_assign(reach_.ancestors(v));
    x.and_not_assign(reach_.descendants(v));
    if (x.test(v)) x.reset(v);
    if (nodes_[v].type == NodeType::BC)
      x.set(regions[*structure_.region_index[v]].fork);
    max_affecting_forks_ = std::max(max_affecting_forks_, x.count());
  }

  // Maximum antichain of the BF poset: Dilworth via Fulkerson — one
  // bipartite vertex pair per fork, an edge (i → j) per comparable ordered
  // pair fork_i ≺ fork_j, max antichain = k − maximum matching. The
  // comparability edges come from word-parallel intersections of the
  // descendant closures with the BF mask, not per-pair probes.
  const std::size_t k = regions.size();
  if (k <= 1) {
    max_suspension_antichain_ = k;
    return;
  }
  std::vector<std::size_t> fork_index(nodes_.size(), 0);
  for (std::size_t i = 0; i < k; ++i) fork_index[regions[i].fork] = i;
  graph::BipartiteMatcher matcher(k, k);
  util::DynamicBitset reachable(nodes_.size());
  for (std::size_t i = 0; i < k; ++i) {
    reachable = reach_.descendants(regions[i].fork);
    reachable.and_assign(bf_mask);
    reachable.for_each(
        [&](std::size_t f) { matcher.add_edge(i, fork_index[f]); });
  }
  max_suspension_antichain_ = k - matcher.max_matching();
}

std::optional<std::size_t> DagTask::region_of(NodeId v) const {
  return structure_.region_index.at(v);
}

NodeId DagTask::blocking_fork_of(NodeId v) const {
  if (type(v) != NodeType::BC)
    throw ModelError(name_ + ": blocking_fork_of requires a BC node");
  return structure_.regions[*structure_.region_index.at(v)].fork;
}

NodeId DagTask::join_of(NodeId fork) const {
  if (type(fork) != NodeType::BF)
    throw ModelError(name_ + ": join_of requires a BF node");
  return structure_.regions[*structure_.region_index.at(fork)].join;
}

DagTask DagTask::with_priority(int priority) const& {
  DagTask copy = *this;
  copy.priority_ = priority;
  return copy;
}

DagTask DagTask::with_priority(int priority) && {
  DagTask moved = std::move(*this);
  moved.priority_ = priority;
  return moved;
}

}  // namespace rtpool::model
