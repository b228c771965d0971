// The Section 2 checker: the one place that decides whether a task is a
// valid thread-pool DAG task.
//
// check_task walks a task in a fixed order and reports every defect it
// finds, as a (kind, node, message) triple, to a caller-supplied sink:
//
//   1. no nodes (nothing else is checked);
//   2. period, deadline, D <= T, each WCET, all WCETs zero;
//   3. self-loops, then duplicate edges (only a reader meets these: a
//      graph::Dag cannot hold them);
//   4. a directed cycle (printed); stop here on a cycle or a self-loop;
//   5. weak connectivity (flooded only when the source count is not 1:
//      an acyclic graph with one source is weakly connected), one source,
//      one sink;
//   6. per BF node in id order: its blocking region (children, nesting,
//      NB members, exactly one BJ, disjointness) and restrictions
//      (ii), (iii) and (i) on the region's edges;
//   7. BC/BJ nodes that no region claimed.
//
// DagTask's sink throws ModelError on the first defect; rtpool-lint's sink
// maps each kind to a rule id and keeps going. On a clean task the walk
// builds no strings and no witness lists, and it returns the structure it
// derived on the way (topological order, source, sink, regions), which
// DagTask caches.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/dag.h"
#include "model/node.h"
#include "util/bitset.h"
#include "util/time.h"

namespace rtpool::model {

using graph::NodeId;

/// One blocking region: the sub-graph delimited by a (BF, BJ) pair.
///
/// `members` holds the *inner* nodes (type BC), excluding the delimiters.
struct BlockingRegion {
  NodeId fork;                 ///< The BF node.
  NodeId join;                 ///< The matching BJ node.
  util::DynamicBitset members; ///< Inner BC nodes of the region.
};

/// What check_task can find wrong with a task, in reporting order.
enum class DefectKind : unsigned char {
  kNoNodes,
  kBadPeriod,             ///< Period not finite and > 0.
  kBadDeadline,           ///< Deadline not finite and > 0.
  kDeadlineAbovePeriod,   ///< D > T.
  kBadWcet,               ///< A WCET not finite and >= 0.
  kAllWcetsZero,
  kSelfLoop,
  kDuplicateEdge,
  kCycle,
  kNotConnected,
  kSourceCount,           ///< Not exactly one source.
  kSinkCount,             ///< Not exactly one sink.
  kForkWithoutChildren,
  kNestedRegion,          ///< A BF inside another BF's region.
  kNbInRegion,
  kForkWithoutJoin,
  kForkWithManyJoins,
  kNodeInTwoRegions,
  kForkEdgeLeaves,        ///< Restriction (ii).
  kJoinEdgeEnters,        ///< Restriction (iii).
  kInnerEdgeIn,           ///< Restriction (i), incoming edge.
  kInnerEdgeOut,          ///< Restriction (i), outgoing edge.
  kOrphanedNode,          ///< BC/BJ node outside every region.
};

struct Defect {
  DefectKind kind;
  std::optional<std::size_t> node;  ///< The offending node, when one exists.
  std::string message;              ///< Without the task name.
};

using DefectSink = std::function<void(const Defect&)>;

/// A task before validation: what DagTask's constructor is given, plus the
/// edges a reader met that a graph::Dag cannot hold.
struct TaskDraft {
  const graph::Dag& dag;
  const std::vector<Node>& nodes;   ///< The node count is nodes.size().
  util::Time period;
  util::Time deadline;
  std::span<const NodeId> self_loops = {};         ///< In file order.
  std::span<const graph::Edge> duplicates = {};    ///< In file order.
};

/// What check_task derives on the way. Complete only when no defect fired.
struct TaskStructure {
  std::vector<NodeId> topo;  ///< A topological order (the acyclicity proof).
  NodeId source = 0;
  NodeId sink = 0;
  std::vector<BlockingRegion> regions;  ///< One per BF node, in id order.
  /// Per node: the region it delimits or belongs to (nullopt for NB).
  std::vector<std::optional<std::size_t>> region_index;
};

/// Report every defect of `task` to `report`, in the order listed at the
/// top of this file. Throws only what `report` throws.
TaskStructure check_task(const TaskDraft& task, const DefectSink& report);

}  // namespace rtpool::model
