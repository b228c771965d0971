// The parallel real-time task τ_i = {G_i, D_i, T_i, Φ_i, π_i} of Section 2.
//
// A DagTask is immutable after construction: the constructor validates the
// full set of structural restrictions from the paper and caches derived
// data (transitive reachability, critical path, volume, blocking regions).
// Analyses therefore never re-derive structure and can treat tasks as pure
// values.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/algorithms.h"
#include "graph/dag.h"
#include "graph/reachability.h"
#include "model/check.h"
#include "model/node.h"
#include "util/time.h"

namespace rtpool::model {

/// Thrown when a task violates the structural model of Section 2.
class ModelError : public std::invalid_argument {
 public:
  explicit ModelError(const std::string& what) : std::invalid_argument(what) {}
};

/// The defect sink that validates: throws ModelError("<task>: <message>")
/// on the first defect. `task` must outlive the sink.
DefectSink model_error_sink(const std::string& task);

/// Immutable DAG task.
///
/// Validated invariants, decided by check_task (model/check.h); the first
/// defect throws ModelError("<name>: <defect message>"):
///  * the graph is a non-empty, weakly connected DAG with exactly one
///    source and one sink;
///  * 0 < D <= T, all WCETs >= 0, at least one WCET > 0, all of them finite;
///  * every BF has exactly one matching BJ reachable through BC-only nodes,
///    every BJ/BC belongs to exactly one region;
///  * restrictions (i)-(iii): inner region nodes have no edges crossing the
///    region boundary, all edges leaving the BF stay in the region, all
///    edges entering the BJ come from the region;
///  * regions are not nested (implied by the typing rules, still checked).
class DagTask {
 public:
  /// `nodes[v]` describes graph node v. See class comment for invariants.
  DagTask(std::string name, graph::Dag dag, std::vector<Node> nodes,
          util::Time period, util::Time deadline, int priority = 0);

  const std::string& name() const { return name_; }
  const graph::Dag& dag() const { return dag_; }
  std::size_t node_count() const { return nodes_.size(); }

  const Node& node(NodeId v) const { return nodes_.at(v); }
  util::Time wcet(NodeId v) const { return nodes_.at(v).wcet; }
  NodeType type(NodeId v) const { return nodes_.at(v).type; }

  util::Time period() const { return period_; }
  util::Time deadline() const { return deadline_; }

  /// Fixed priority π_i of every thread of this task's pool
  /// (lower value = higher priority).
  int priority() const { return priority_; }

  /// Task utilization vol(τ)/T.
  double utilization() const { return volume_ / period_; }

  /// vol(τ): sum of all node WCETs.
  util::Time volume() const { return volume_; }

  /// len(λ*): length of the critical path.
  util::Time critical_path_length() const { return critical_path_.length; }

  /// The critical path itself (node sequence source..sink).
  const std::vector<NodeId>& critical_path() const { return critical_path_.path; }

  NodeId source() const { return structure_.source; }
  NodeId sink() const { return structure_.sink; }

  /// Cached transitive closure (the paper's transitive pred/succ sets).
  const graph::Reachability& reachability() const { return reach_; }

  /// All blocking regions, one per BF node in id order.
  const std::vector<BlockingRegion>& blocking_regions() const {
    return structure_.regions;
  }

  /// Region that node v participates in:
  ///  * for a BF/BJ delimiter: its own region;
  ///  * for a BC node: the region containing it;
  ///  * for an NB node: nullopt.
  std::optional<std::size_t> region_of(NodeId v) const;

  /// For a BC node, the paper's F(v): the BF node whose barrier waits for
  /// v's completion. Throws ModelError if v is not BC.
  NodeId blocking_fork_of(NodeId v) const;

  /// For a BF node, the matching BJ (the paper's J(v)). Throws ModelError
  /// if v is not BF.
  NodeId join_of(NodeId fork) const;

  /// Number of BF nodes in the task.
  std::size_t blocking_fork_count() const { return structure_.regions.size(); }

  /// b̄(τ) = max_v |X(v)| (Section 3.1): the largest number of blocking
  /// forks whose suspension can affect a single node. Cached at
  /// construction so the analyses (which evaluate it once per
  /// analyze_global/partition call) read it in O(1); see
  /// analysis/concurrency.h for the definition of X(v).
  std::size_t max_affecting_forks() const { return max_affecting_forks_; }

  /// Maximum antichain of the BF nodes under (transitive) precedence: the
  /// largest set of forks that can be suspended simultaneously. Cached at
  /// construction (Dilworth via bipartite matching on the comparability
  /// relation); see analysis/antichain.h for why this refines b̄(τ).
  std::size_t max_suspension_antichain() const { return max_suspension_antichain_; }

  /// Per-node WCET vector (weights for graph algorithms).
  const std::vector<util::Time>& wcets() const { return wcets_; }

  /// A topological order of the graph, computed once at construction (it
  /// doubles as the acyclicity proof). Every downstream consumer — the
  /// closure build, the critical path, the RTA fixed-point sweeps — reads
  /// this instead of re-running Kahn.
  const std::vector<NodeId>& topo_order() const { return structure_.topo; }

  /// Replace the priority (used by priority-assignment policies); all other
  /// state is immutable. The rvalue overload moves instead of copying the
  /// task's caches (closure bitsets, regions) — priority-assignment passes
  /// over freshly generated tasks pay zero copies.
  DagTask with_priority(int priority) const&;
  DagTask with_priority(int priority) &&;

 private:
  void compute_concurrency_caches();

  std::string name_;
  graph::Dag dag_;
  std::vector<Node> nodes_;
  util::Time period_;
  util::Time deadline_;
  int priority_;

  // Derived caches.
  std::vector<util::Time> wcets_;
  TaskStructure structure_;  ///< Topological order, source, sink, regions.
  graph::Reachability reach_;
  graph::LongestPathResult critical_path_;
  util::Time volume_ = 0.0;
  std::size_t max_affecting_forks_ = 0;
  std::size_t max_suspension_antichain_ = 0;
};

}  // namespace rtpool::model
