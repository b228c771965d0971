// Directed acyclic graph substrate.
//
// Nodes are dense indices 0..size()-1; the task model layer attaches its
// per-node attributes (WCET, type) in parallel arrays. The class maintains
// forward and backward adjacency and validates acyclicity on demand.
//
// Storage is pooled: every successor and predecessor list lives in one
// `std::vector<NodeId>`, and a node holds a (begin, size, capacity) slice of
// it per direction. Appending to a full list grows it in place when it ends
// the pool and otherwise moves it to the end of the pool with double the
// capacity (the old slice is left behind as slack). Building, copying or
// freeing a graph therefore costs two or three allocations, not two per
// node.
#pragma once

#include <cstdint>
#include <span>
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
///
/// Each node's successors and predecessors keep their insertion order (Kahn
/// order, the simulator's release order and cycle witnesses depend on it).
/// A span returned by `successors()` or `predecessors()` is valid only until
/// the next `add_node` or `add_edge`/`add_edge_unchecked` on that Dag.
class Dag {
 public:
  Dag() = default;
  explicit Dag(std::size_t node_count) : lists_(node_count) {}

  std::size_t size() const { return lists_.size(); }
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
    append(lists_[from].succ, to);
    append(lists_[to].pred, from);
    ++edge_count_;
  }

  /// Reserve storage for `node_count` nodes (growth hint only).
  void reserve(std::size_t node_count) {
    lists_.reserve(node_count);
    pool_.reserve(3 * node_count);
  }

  /// True if the edge exists (O(out-degree of `from`)).
  bool has_edge(NodeId from, NodeId to) const;

  // Adjacency accessors are inline: analysis inner loops call them per
  // edge visit (millions of times per bench run) and the out-of-line call
  // cost exceeded the bounds-checked index they wrap.
  std::span<const NodeId> successors(NodeId v) const {
    check_node(v);
    return view(lists_[v].succ);
  }
  std::span<const NodeId> predecessors(NodeId v) const {
    check_node(v);
    return view(lists_[v].pred);
  }

  std::size_t out_degree(NodeId v) const { return successors(v).size(); }
  std::size_t in_degree(NodeId v) const { return predecessors(v).size(); }

  /// Nodes without incoming / outgoing edges.
  std::vector<NodeId> sources() const;
  std::vector<NodeId> sinks() const;

  /// All edges in insertion-independent (from, to) order.
  std::vector<Edge> edges() const;

 private:
  /// One adjacency list: pool_[begin, begin + size), owning the slice up to
  /// begin + capacity.
  struct List {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };
  struct Lists {
    List succ;
    List pred;
  };

  void check_node(NodeId v) const {
    if (v >= lists_.size())
      throw std::invalid_argument("Dag: node id out of range");
  }
  std::span<const NodeId> view(const List& list) const {
    return {pool_.data() + list.begin, list.size};
  }
  void append(List& list, NodeId v) {
    if (list.size == list.capacity) grow(list);
    pool_[list.begin + list.size++] = v;
  }
  void grow(List& list);

  std::vector<Lists> lists_;
  std::vector<NodeId> pool_;
  std::size_t edge_count_ = 0;
};

/// Thrown by algorithms that require acyclicity when the graph has a cycle.
class CycleError : public std::invalid_argument {
 public:
  CycleError() : std::invalid_argument("graph contains a cycle") {}
};

}  // namespace rtpool::graph
