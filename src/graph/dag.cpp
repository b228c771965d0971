#include "graph/dag.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace rtpool::graph {

NodeId Dag::add_node() {
  lists_.emplace_back();
  return static_cast<NodeId>(lists_.size() - 1);
}

void Dag::add_edge(NodeId from, NodeId to) {
  check_node(from);
  check_node(to);
  if (from == to) throw std::invalid_argument("Dag: self-loop rejected");
  if (has_edge(from, to)) throw std::invalid_argument("Dag: duplicate edge rejected");
  add_edge_unchecked(from, to);
}

void Dag::grow(List& list) {
  const std::size_t capacity = std::max<std::size_t>(1, 2 * std::size_t{list.capacity});
  const std::size_t end = pool_.size();
  // The slice that ends the pool grows in place; any other moves to the end.
  const std::size_t begin = list.begin + list.capacity == end ? list.begin : end;
  if (begin + capacity > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("Dag: adjacency pool exhausted");
  pool_.resize(begin + capacity);
  if (begin != list.begin) {
    std::copy_n(pool_.begin() + list.begin, list.size, pool_.begin() + begin);
    list.begin = static_cast<std::uint32_t>(begin);
  }
  list.capacity = static_cast<std::uint32_t>(capacity);
}

bool Dag::has_edge(NodeId from, NodeId to) const {
  check_node(to);
  const std::span<const NodeId> s = successors(from);
  return std::find(s.begin(), s.end(), to) != s.end();
}

std::vector<NodeId> Dag::sources() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < size(); ++v)
    if (lists_[v].pred.size == 0) out.push_back(v);
  return out;
}

std::vector<NodeId> Dag::sinks() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < size(); ++v)
    if (lists_[v].succ.size == 0) out.push_back(v);
  return out;
}

std::vector<Edge> Dag::edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count_);
  for (NodeId v = 0; v < size(); ++v)
    for (NodeId w : successors(v)) out.push_back({v, w});
  std::sort(out.begin(), out.end(), [](const Edge& a, const Edge& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  });
  return out;
}

}  // namespace rtpool::graph
