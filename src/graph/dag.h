// Directed acyclic graph substrate.
//
// Nodes are dense indices 0..size()-1; the task model layer attaches its
// per-node attributes (WCET, type) in parallel arrays. The class maintains
// forward and backward adjacency and validates acyclicity on demand.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace rtpool::graph {

/// Dense node identifier within one graph.
using NodeId = std::uint32_t;

/// Directed edge (from, to).
struct Edge {
  NodeId from;
  NodeId to;
  bool operator==(const Edge&) const = default;
};

/// Mutable DAG with O(1) amortized edge insertion.
///
/// Invariants: node ids are < size(); duplicate edges and self-loops are
/// rejected at insertion. Acyclicity is *not* enforced per insertion (that
/// would be O(V+E) each time); algorithms that require a topological order
/// throw `CycleError` (see `topological_order()` in graph/algorithms.h).
class Dag {
 public:
  Dag() = default;
  explicit Dag(std::size_t node_count) : succ_(node_count), pred_(node_count) {}

  std::size_t size() const { return succ_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  /// Append a new node; returns its id.
  NodeId add_node();

  /// Add edge from -> to. Throws std::invalid_argument on self-loop,
  /// duplicate edge, or out-of-range ids.
  void add_edge(NodeId from, NodeId to);

  /// Add edge from -> to without the duplicate scan. Precondition (the
  /// caller's contract): both ids are in range, from != to, and the edge is
  /// not already present. The structural generators qualify — every edge
  /// they insert has a freshly created endpoint — and the per-edge
  /// duplicate scan was a measurable share of generation time.
  void add_edge_unchecked(NodeId from, NodeId to) {
    succ_[from].push_back(to);
    pred_[to].push_back(from);
    ++edge_count_;
  }

  /// Reserve adjacency storage for `node_count` nodes (growth hint only).
  void reserve(std::size_t node_count) {
    succ_.reserve(node_count);
    pred_.reserve(node_count);
  }

  /// True if the edge exists (O(out-degree of `from`)).
  bool has_edge(NodeId from, NodeId to) const;

  // Adjacency accessors are inline: analysis inner loops call them per
  // edge visit (millions of times per bench run) and the out-of-line call
  // cost exceeded the bounds-checked vector index they wrap.
  const std::vector<NodeId>& successors(NodeId v) const {
    check_node(v);
    return succ_[v];
  }
  const std::vector<NodeId>& predecessors(NodeId v) const {
    check_node(v);
    return pred_[v];
  }

  std::size_t out_degree(NodeId v) const { return successors(v).size(); }
  std::size_t in_degree(NodeId v) const { return predecessors(v).size(); }

  /// Nodes without incoming / outgoing edges.
  std::vector<NodeId> sources() const;
  std::vector<NodeId> sinks() const;

  /// All edges in insertion-independent (from, to) order.
  std::vector<Edge> edges() const;

 private:
  void check_node(NodeId v) const {
    if (v >= succ_.size())
      throw std::invalid_argument("Dag: node id out of range");
  }

  std::vector<std::vector<NodeId>> succ_;
  std::vector<std::vector<NodeId>> pred_;
  std::size_t edge_count_ = 0;
};

/// Thrown by algorithms that require acyclicity when the graph has a cycle.
class CycleError : public std::invalid_argument {
 public:
  CycleError() : std::invalid_argument("graph contains a cycle") {}
};

}  // namespace rtpool::graph
