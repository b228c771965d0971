// DAG algorithms: topological order, longest (critical) paths, and helpers.
#pragma once

#include <vector>

#include "graph/dag.h"
#include "util/time.h"

namespace rtpool::graph {

/// Kahn topological order. Throws CycleError if the graph has a cycle.
std::vector<NodeId> topological_order(const Dag& dag);

/// Result of a weighted longest-path computation.
struct LongestPathResult {
  util::Time length = 0.0;          ///< Weight sum along the heaviest path.
  std::vector<NodeId> path;         ///< Node sequence realizing it.
};

/// Longest path in the DAG where node v has weight `weights[v]` (edge
/// weights are zero): the paper's `len(λ)` with weights = WCETs gives the
/// critical path λ*. Empty graph yields length 0 and an empty path.
/// Throws std::invalid_argument if weights.size() != dag.size().
LongestPathResult longest_path(const Dag& dag, const std::vector<util::Time>& weights);

/// Same, over a caller-supplied topological order of `dag` — skips the Kahn
/// pass. DagTask construction threads its one cached order through every
/// derived computation (acyclicity, closure, critical path) instead of
/// re-deriving it three times.
LongestPathResult longest_path(const Dag& dag, const std::vector<NodeId>& order,
                               const std::vector<util::Time>& weights);

/// Length of the longest path only, over a caller-supplied topological
/// order of `dag` and a reusable DP buffer (`scratch` is resized as
/// needed). Bit-identical to `longest_path(dag, weights).length` but skips
/// the Kahn pass, the path reconstruction, and all allocations — the
/// fixed-point hot loops (partitioned RTA, RtaContext) call this with the
/// cached per-task order. Throws std::invalid_argument on size mismatch.
util::Time longest_path_length(const Dag& dag, const std::vector<NodeId>& order,
                               const std::vector<util::Time>& weights,
                               std::vector<util::Time>& scratch);

/// Sum of all node weights (the paper's vol(τ) with weights = WCETs).
util::Time total_weight(const std::vector<util::Time>& weights);

/// Per node: joined to `root` when edge direction is ignored (the weakly
/// connected component of `root`).
std::vector<bool> weak_component(const Dag& dag, NodeId root);

}  // namespace rtpool::graph
