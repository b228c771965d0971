#include "model/dag_task.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "graph/matching.h"

namespace rtpool::model {

namespace {

std::vector<util::Time> extract_wcets(const std::vector<Node>& nodes) {
  std::vector<util::Time> w;
  w.reserve(nodes.size());
  for (const Node& n : nodes) w.push_back(n.wcet);
  return w;
}

/// Adopt a caller-supplied closure (size-checked) or build one from `dag`,
/// sweeping the already-computed topological order.
graph::Reachability take_reach(std::optional<graph::Reachability> reach,
                               const graph::Dag& dag,
                               const std::vector<graph::NodeId>& order,
                               const std::string& name) {
  if (!reach.has_value()) return graph::Reachability(dag, order);
  if (reach->size() != dag.size())
    throw ModelError(name + ": precomputed reachability size mismatch");
  return std::move(*reach);
}

/// One Kahn pass serving three masters: acyclicity proof, closure sweep
/// order, critical-path DP order. A caller-supplied order is adopted after
/// a size check (its existence already proves acyclicity).
std::vector<graph::NodeId> take_topo(std::optional<std::vector<graph::NodeId>> topo,
                                     const graph::Dag& dag,
                                     const std::string& name) {
  if (topo.has_value()) {
    if (topo->size() != dag.size())
      throw ModelError(name + ": precomputed topological order size mismatch");
    return std::move(*topo);
  }
  try {
    return graph::topological_order(dag);
  } catch (const graph::CycleError&) {
    throw ModelError(name + ": graph has a cycle");
  }
}

}  // namespace

DagTask::DagTask(std::string name, graph::Dag dag, std::vector<Node> nodes,
                 util::Time period, util::Time deadline, int priority)
    : DagTask(AdoptReach{}, std::move(name), std::move(dag), std::move(nodes),
              period, deadline, priority, std::nullopt, std::nullopt) {}

DagTask::DagTask(std::string name, graph::Dag dag, std::vector<Node> nodes,
                 util::Time period, util::Time deadline, int priority,
                 graph::Reachability reach)
    : DagTask(AdoptReach{}, std::move(name), std::move(dag), std::move(nodes),
              period, deadline, priority, std::move(reach), std::nullopt) {}

DagTask::DagTask(std::string name, graph::Dag dag, std::vector<Node> nodes,
                 util::Time period, util::Time deadline, int priority,
                 graph::Reachability reach, std::vector<NodeId> topo)
    : DagTask(AdoptReach{}, std::move(name), std::move(dag), std::move(nodes),
              period, deadline, priority, std::move(reach), std::move(topo)) {}

DagTask::DagTask(AdoptReach, std::string name, graph::Dag dag,
                 std::vector<Node> nodes, util::Time period,
                 util::Time deadline, int priority,
                 std::optional<graph::Reachability> reach,
                 std::optional<std::vector<NodeId>> topo)
    : name_(std::move(name)),
      dag_(std::move(dag)),
      nodes_(std::move(nodes)),
      period_(period),
      deadline_(deadline),
      priority_(priority),
      wcets_(extract_wcets(nodes_)),
      // Shape first (empty / size mismatch / cycle), then the parameter
      // checks, then the derived caches — error precedence matches the
      // documented invariant order.
      topo_((validate_shape(), take_topo(std::move(topo), dag_, name_))),
      reach_((validate_params(), take_reach(std::move(reach), dag_, topo_, name_))),
      critical_path_(graph::longest_path(dag_, topo_, wcets_)),
      volume_(graph::total_weight(wcets_)),
      region_index_(nodes_.size()) {
  // validate_params() established uniqueness; find them without the
  // temporary vectors dag_.sources()/sinks() would allocate.
  for (NodeId v = 0; v < dag_.size(); ++v) {
    if (dag_.in_degree(v) == 0) source_ = v;
    if (dag_.out_degree(v) == 0) sink_ = v;
  }
  build_regions();
  validate_regions();
  compute_concurrency_caches();
}

void DagTask::validate_shape() const {
  if (nodes_.empty()) throw ModelError(name_ + ": task has no nodes");
  if (nodes_.size() != dag_.size())
    throw ModelError(name_ + ": node attribute count does not match graph size");
}

void DagTask::validate_params() const {
  if (!graph::is_weakly_connected(dag_))
    throw ModelError(name_ + ": graph is not weakly connected");
  std::size_t sources = 0, sinks = 0;
  for (graph::NodeId v = 0; v < dag_.size(); ++v) {
    if (dag_.in_degree(v) == 0) ++sources;
    if (dag_.out_degree(v) == 0) ++sinks;
  }
  if (sources != 1)
    throw ModelError(name_ + ": expected exactly one source node");
  if (sinks != 1)
    throw ModelError(name_ + ": expected exactly one sink node");
  if (!(period_ > 0.0) || !std::isfinite(period_))
    throw ModelError(name_ + ": period must be finite and > 0");
  if (!(deadline_ > 0.0) || !std::isfinite(deadline_))
    throw ModelError(name_ + ": deadline must be finite and > 0");
  if (deadline_ > period_ * (1.0 + util::kTimeEps))
    throw ModelError(name_ + ": constrained deadlines required (D <= T)");
  bool any_positive = false;
  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    if (!(nodes_[v].wcet >= 0.0) || !std::isfinite(nodes_[v].wcet))
      throw ModelError(name_ + ": WCET on node " + std::to_string(v) +
                       " must be finite and >= 0");
    any_positive = any_positive || nodes_[v].wcet > 0.0;
  }
  if (!any_positive) throw ModelError(name_ + ": all WCETs are zero");
}

void DagTask::build_regions() {
  // For each BF node, flood forward through BC nodes; the unique non-BC node
  // reached must be the matching BJ. This reconstructs the paper's regions
  // from the typing and simultaneously checks their well-formedness.
  // Traversal scratch is shared across regions (reset per BF).
  std::vector<NodeId> frontier;
  util::DynamicBitset visited;
  for (NodeId f = 0; f < nodes_.size(); ++f) {
    if (nodes_[f].type != NodeType::BF) continue;

    BlockingRegion region{f, 0, util::DynamicBitset(nodes_.size())};
    std::optional<NodeId> join;
    // FIFO queue as a vector with a moving head: same visit order as a
    // deque, no per-region chunk allocations.
    frontier.assign(dag_.successors(f).begin(), dag_.successors(f).end());
    visited.resize_clear(nodes_.size());

    if (frontier.empty())
      throw ModelError(name_ + ": BF node " + std::to_string(f) + " spawns no children");

    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const NodeId v = frontier[head];
      if (visited.test(v)) continue;
      visited.set(v);

      switch (nodes_[v].type) {
        case NodeType::BC:
          region.members.set(v);
          for (NodeId w : dag_.successors(v)) frontier.push_back(w);
          break;
        case NodeType::BJ:
          if (join.has_value() && *join != v)
            throw ModelError(name_ + ": BF node " + std::to_string(f) +
                             " reaches two BJ nodes (" + std::to_string(*join) +
                             ", " + std::to_string(v) + ")");
          join = v;
          break;  // do not traverse past the join
        case NodeType::BF:
          throw ModelError(name_ + ": nested blocking regions are not allowed (BF " +
                           std::to_string(v) + " inside region of BF " +
                           std::to_string(f) + ")");
        case NodeType::NB:
          throw ModelError(name_ + ": node " + std::to_string(v) +
                           " inside region of BF " + std::to_string(f) +
                           " must have type BC, found NB");
      }
    }
    if (!join.has_value())
      throw ModelError(name_ + ": BF node " + std::to_string(f) + " has no matching BJ");
    region.join = *join;

    // Record region membership for the delimiters and the inner nodes.
    const std::size_t idx = regions_.size();
    auto assign = [&](NodeId v) {
      if (region_index_[v].has_value())
        throw ModelError(name_ + ": node " + std::to_string(v) +
                         " belongs to two blocking regions");
      region_index_[v] = idx;
    };
    assign(f);
    assign(*join);
    region.members.for_each([&](std::size_t v) { assign(static_cast<NodeId>(v)); });
    regions_.push_back(std::move(region));
  }

  // Every BC / BJ node must have been claimed by some region.
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    if ((nodes_[v].type == NodeType::BC || nodes_[v].type == NodeType::BJ) &&
        !region_index_[v].has_value())
      throw ModelError(name_ + ": " + to_string(nodes_[v].type) + " node " +
                       std::to_string(v) + " is not part of any blocking region");
  }
}

void DagTask::validate_regions() const {
  for (const BlockingRegion& r : regions_) {
    // Restriction (ii): every edge leaving the BF stays in the region.
    for (NodeId w : dag_.successors(r.fork)) {
      if (w != r.join && !r.members.test(w))
        throw ModelError(name_ + ": edge from BF " + std::to_string(r.fork) +
                         " leaves its blocking region");
    }
    // Restriction (iii): every edge entering the BJ comes from the region.
    for (NodeId u : dag_.predecessors(r.join)) {
      if (u != r.fork && !r.members.test(u))
        throw ModelError(name_ + ": edge into BJ " + std::to_string(r.join) +
                         " enters from outside its blocking region");
    }
    // Restriction (i): inner nodes have no edges crossing the boundary.
    r.members.for_each([&](std::size_t vi) {
      const auto v = static_cast<NodeId>(vi);
      for (NodeId u : dag_.predecessors(v)) {
        if (u != r.fork && !r.members.test(u))
          throw ModelError(name_ + ": inner node " + std::to_string(v) +
                           " has an incoming edge from outside its region");
      }
      for (NodeId w : dag_.successors(v)) {
        if (w != r.join && !r.members.test(w))
          throw ModelError(name_ + ": inner node " + std::to_string(v) +
                           " has an outgoing edge to outside its region");
      }
    });
  }
}

void DagTask::compute_concurrency_caches() {
  util::DynamicBitset bf_mask(nodes_.size());
  for (const BlockingRegion& r : regions_) bf_mask.set(r.fork);

  // b̄ = max_v |X(v)| with X(v) = BF \ (pred(v) ∪ succ(v) ∪ {v}), plus the
  // delimiting fork F(v) when v is of type BC (Section 3.1).
  util::DynamicBitset x(nodes_.size());
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    x = bf_mask;
    x.and_not_assign(reach_.ancestors(v));
    x.and_not_assign(reach_.descendants(v));
    if (x.test(v)) x.reset(v);
    if (nodes_[v].type == NodeType::BC) x.set(regions_[*region_index_[v]].fork);
    max_affecting_forks_ = std::max(max_affecting_forks_, x.count());
  }

  // Maximum antichain of the BF poset: Dilworth via Fulkerson — one
  // bipartite vertex pair per fork, an edge (i → j) per comparable ordered
  // pair fork_i ≺ fork_j, max antichain = k − maximum matching. The
  // comparability edges come from word-parallel intersections of the
  // descendant closures with the BF mask, not per-pair probes.
  const std::size_t k = regions_.size();
  if (k <= 1) {
    max_suspension_antichain_ = k;
    return;
  }
  std::vector<std::size_t> fork_index(nodes_.size(), 0);
  for (std::size_t i = 0; i < k; ++i) fork_index[regions_[i].fork] = i;
  graph::BipartiteMatcher matcher(k, k);
  util::DynamicBitset reachable(nodes_.size());
  for (std::size_t i = 0; i < k; ++i) {
    reachable = reach_.descendants(regions_[i].fork);
    reachable.and_assign(bf_mask);
    reachable.for_each(
        [&](std::size_t f) { matcher.add_edge(i, fork_index[f]); });
  }
  max_suspension_antichain_ = k - matcher.max_matching();
}

std::optional<std::size_t> DagTask::region_of(NodeId v) const {
  return region_index_.at(v);
}

NodeId DagTask::blocking_fork_of(NodeId v) const {
  if (type(v) != NodeType::BC)
    throw ModelError(name_ + ": blocking_fork_of requires a BC node");
  return regions_[*region_index_.at(v)].fork;
}

NodeId DagTask::join_of(NodeId fork) const {
  if (type(fork) != NodeType::BF)
    throw ModelError(name_ + ": join_of requires a BF node");
  return regions_[*region_index_.at(fork)].join;
}

NodeId DagTask::fork_of(NodeId join) const {
  if (type(join) != NodeType::BJ)
    throw ModelError(name_ + ": fork_of requires a BJ node");
  return regions_[*region_index_.at(join)].fork;
}

std::vector<NodeId> DagTask::nodes_of_type(NodeType t) const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < nodes_.size(); ++v)
    if (nodes_[v].type == t) out.push_back(v);
  return out;
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
