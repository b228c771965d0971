// Transitive reachability closure over a DAG.
//
// The paper's sets pred(v)/succ(v) are *transitive* (Section 2): they include
// nodes connected through intermediate vertices. This class materializes the
// closure in one flat row-major word array (ancestor rows, then descendant
// rows), computed in O(|V|·|E|/64) by sweeping a topological order, and
// answers "may v and w execute concurrently?" (neither reaches the other) in
// O(|V|/64). Flat storage means construction performs a single allocation
// instead of 2·|V| per-row bitset allocations. Each DagTask builds one at
// construction; the task generator selects and types its blocking regions
// from its own nesting record and builds none for the skeletons it drops.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dag.h"
#include "util/bitset.h"

namespace rtpool::graph {

/// Immutable transitive-closure view of a Dag snapshot.
class Reachability {
 public:
  /// Builds the closure; throws CycleError if `dag` has a cycle.
  explicit Reachability(const Dag& dag);

  /// Same, sweeping a caller-supplied topological order of `dag` instead of
  /// running Kahn again (the order's validity is the caller's contract).
  Reachability(const Dag& dag, const std::vector<NodeId>& order);

  std::size_t size() const { return n_; }

  /// True if there is a directed path from `from` to `to` (from != to).
  bool reaches(NodeId from, NodeId to) const {
    check_node(from);
    if (to >= n_) throw std::out_of_range("Reachability: node out of range");
    return (desc_row(from)[to / 64] >> (to % 64)) & 1u;
  }

  /// True if neither node reaches the other (and they differ): the two nodes
  /// are not ordered by precedence constraints and may run concurrently.
  bool concurrent(NodeId a, NodeId b) const {
    if (a == b) return false;
    return !reaches(a, b) && !reaches(b, a);
  }

  /// Transitive predecessors of v (the paper's pred(v)).
  util::BitsetView ancestors(NodeId v) const {
    check_node(v);
    return {anc_row(v), n_};
  }

  /// Transitive successors of v (the paper's succ(v)).
  util::BitsetView descendants(NodeId v) const {
    check_node(v);
    return {desc_row(v), n_};
  }

  /// Writes into `out` the mask of nodes precedence-unordered with v:
  /// ~(ancestors(v) | descendants(v) | {v}). Exactly the nodes that may
  /// execute concurrently with v, as one word-parallel mask — the kernel
  /// behind the partitioned analysis' FIFO blocking vector (B_v) and any
  /// other "who can race v" query. Computed on demand in O(|V|/64) from the
  /// stored closures into the caller's reusable scratch (resized if needed);
  /// nothing extra is materialized at construction.
  void unordered_mask(NodeId v, util::DynamicBitset& out) const;

 private:
  void check_node(NodeId v) const {
    if (v >= n_) throw std::out_of_range("Reachability: node out of range");
  }
  const std::uint64_t* anc_row(NodeId v) const {
    return words_.data() + static_cast<std::size_t>(v) * wpr_;
  }
  const std::uint64_t* desc_row(NodeId v) const {
    return words_.data() + (n_ + static_cast<std::size_t>(v)) * wpr_;
  }
  std::uint64_t* anc_row(NodeId v) {
    return words_.data() + static_cast<std::size_t>(v) * wpr_;
  }
  std::uint64_t* desc_row(NodeId v) {
    return words_.data() + (n_ + static_cast<std::size_t>(v)) * wpr_;
  }

  std::size_t n_ = 0;    ///< Node count (rows per direction).
  std::size_t wpr_ = 0;  ///< 64-bit words per row.
  std::vector<std::uint64_t> words_;  ///< [anc rows | desc rows], row-major.
};

}  // namespace rtpool::graph
