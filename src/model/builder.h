// Fluent construction of DagTasks.
//
// The builder accumulates nodes/edges, offers convenience helpers for the
// (blocking) fork-join idiom of Listing 1, and normalizes multi-source /
// multi-sink graphs with zero-WCET dummy NB nodes before validation — the
// transformation the paper describes in Section 2.
#pragma once

#include <string>
#include <vector>

#include "model/dag_task.h"

namespace rtpool::model {

class DagTaskBuilder {
 public:
  explicit DagTaskBuilder(std::string name) : name_(std::move(name)) {}

  /// Add a node; returns its id.
  NodeId add_node(util::Time wcet, NodeType type = NodeType::NB);

  /// Add a precedence edge.
  DagTaskBuilder& add_edge(NodeId from, NodeId to);

  /// Ids created by a fork-join helper.
  struct ForkJoin {
    NodeId fork;
    NodeId join;
    std::vector<NodeId> children;
  };

  /// Create a *blocking* fork-join region (BF -> BC... -> BJ) as in
  /// Listing 1: the fork executes `fork_wcet`, spawns one BC child per entry
  /// of `child_wcets`, suspends, and the join executes `join_wcet`.
  /// The caller wires the region into the task via edges to `fork` and from
  /// `join`. Throws ModelError if `child_wcets` is empty.
  ForkJoin add_blocking_fork_join(util::Time fork_wcet, util::Time join_wcet,
                                  const std::vector<util::Time>& child_wcets);

  /// Same shape with non-blocking semantics (all nodes NB), Listing 2.
  ForkJoin add_fork_join(util::Time fork_wcet, util::Time join_wcet,
                         const std::vector<util::Time>& child_wcets);

  DagTaskBuilder& period(util::Time value);
  DagTaskBuilder& deadline(util::Time value);
  DagTaskBuilder& priority(int value);

  /// Number of nodes added so far.
  std::size_t node_count() const { return nodes_.size(); }

  /// Validate and produce the immutable task. A graph with multiple
  /// sources/sinks first gets a zero-WCET dummy NB source/sink so that the
  /// single-source/sink model restriction holds. If no deadline was given,
  /// the deadline defaults to the period (implicit deadlines).
  DagTask build() const;

 private:
  std::string name_;
  graph::Dag dag_;
  std::vector<Node> nodes_;
  util::Time period_ = 0.0;
  util::Time deadline_ = -1.0;  // -1 = "use period"
  int priority_ = 0;
};

/// Convenience: the Figure 1(a) task — fork node, `parallel` children,
/// join node — with blocking (BF/BC/BJ) or non-blocking (all NB) typing.
DagTask make_fork_join_task(const std::string& name, std::size_t parallel,
                            util::Time node_wcet, util::Time period,
                            bool blocking);

}  // namespace rtpool::model
