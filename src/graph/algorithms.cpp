#include "graph/algorithms.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace rtpool::graph {

std::vector<NodeId> topological_order(const Dag& dag) {
  const std::size_t n = dag.size();
  std::vector<std::size_t> indeg(n);
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<NodeId> frontier;
  for (NodeId v = 0; v < n; ++v) {
    indeg[v] = dag.in_degree(v);
    if (indeg[v] == 0) frontier.push_back(v);
  }
  while (!frontier.empty()) {
    const NodeId v = frontier.back();
    frontier.pop_back();
    order.push_back(v);
    for (NodeId w : dag.successors(v)) {
      if (--indeg[w] == 0) frontier.push_back(w);
    }
  }
  if (order.size() != n) throw CycleError();
  return order;
}

LongestPathResult longest_path(const Dag& dag, const std::vector<util::Time>& weights) {
  if (dag.size() == 0) {
    if (!weights.empty())
      throw std::invalid_argument("longest_path: weight count mismatch");
    return LongestPathResult{};
  }
  return longest_path(dag, topological_order(dag), weights);
}

LongestPathResult longest_path(const Dag& dag, const std::vector<NodeId>& order,
                               const std::vector<util::Time>& weights) {
  if (weights.size() != dag.size() || order.size() != dag.size())
    throw std::invalid_argument("longest_path: weight count mismatch");
  LongestPathResult result;
  if (dag.size() == 0) return result;

  std::vector<util::Time> best(dag.size(), 0.0);
  std::vector<NodeId> parent(dag.size(), dag.size());
  for (NodeId v : order) {
    best[v] = weights[v];
    for (NodeId u : dag.predecessors(v)) {
      if (best[u] + weights[v] > best[v]) {
        best[v] = best[u] + weights[v];
        parent[v] = u;
      }
    }
  }
  NodeId end = 0;
  for (NodeId v = 0; v < dag.size(); ++v)
    if (best[v] > best[end]) end = v;

  result.length = best[end];
  for (NodeId v = end; v != dag.size(); v = parent[v]) {
    result.path.push_back(v);
    if (parent[v] == dag.size()) break;
  }
  std::reverse(result.path.begin(), result.path.end());
  return result;
}

util::Time longest_path_length(const Dag& dag, const std::vector<NodeId>& order,
                               const std::vector<util::Time>& weights,
                               std::vector<util::Time>& scratch) {
  if (weights.size() != dag.size() || order.size() != dag.size())
    throw std::invalid_argument("longest_path_length: size mismatch");
  if (dag.size() == 0) return 0.0;

  scratch.assign(dag.size(), 0.0);
  for (NodeId v : order) {
    scratch[v] = weights[v];
    for (NodeId u : dag.predecessors(v)) {
      if (scratch[u] + weights[v] > scratch[v]) scratch[v] = scratch[u] + weights[v];
    }
  }
  util::Time best = scratch[0];
  for (NodeId v = 1; v < dag.size(); ++v)
    if (scratch[v] > best) best = scratch[v];
  return best;
}

util::Time total_weight(const std::vector<util::Time>& weights) {
  return std::accumulate(weights.begin(), weights.end(), util::Time{0.0});
}

std::vector<bool> weak_component(const Dag& dag, NodeId root) {
  std::vector<bool> seen(dag.size(), false);
  std::vector<NodeId> stack{root};
  seen.at(root) = true;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (NodeId w : dag.successors(v))
      if (!seen[w]) { seen[w] = true; stack.push_back(w); }
    for (NodeId w : dag.predecessors(v))
      if (!seen[w]) { seen[w] = true; stack.push_back(w); }
  }
  return seen;
}

}  // namespace rtpool::graph
