#include "graph/dag.h"

#include <algorithm>
#include <stdexcept>

namespace rtpool::graph {

NodeId Dag::add_node() {
  succ_.emplace_back();
  pred_.emplace_back();
  return static_cast<NodeId>(succ_.size() - 1);
}

void Dag::add_edge(NodeId from, NodeId to) {
  check_node(from);
  check_node(to);
  if (from == to) throw std::invalid_argument("Dag: self-loop rejected");
  if (has_edge(from, to)) throw std::invalid_argument("Dag: duplicate edge rejected");
  succ_[from].push_back(to);
  pred_[to].push_back(from);
  ++edge_count_;
}

bool Dag::has_edge(NodeId from, NodeId to) const {
  check_node(from);
  check_node(to);
  const auto& s = succ_[from];
  return std::find(s.begin(), s.end(), to) != s.end();
}

std::vector<NodeId> Dag::sources() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < size(); ++v)
    if (pred_[v].empty()) out.push_back(v);
  return out;
}

std::vector<NodeId> Dag::sinks() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < size(); ++v)
    if (succ_[v].empty()) out.push_back(v);
  return out;
}

std::vector<Edge> Dag::edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count_);
  for (NodeId v = 0; v < size(); ++v)
    for (NodeId w : succ_[v]) out.push_back({v, w});
  std::sort(out.begin(), out.end(), [](const Edge& a, const Edge& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  });
  return out;
}

}  // namespace rtpool::graph
