#include "model/check.h"

#include <algorithm>
#include <cmath>

#include "graph/algorithms.h"

namespace rtpool::model {

namespace {

std::string join_ids(const std::vector<std::size_t>& ids, const char* separator) {
  std::string out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) out += separator;
    out += std::to_string(ids[i]);
  }
  return out;
}

/// One directed cycle of `dag` as a closed node sequence (first == last),
/// found by DFS from each root in id order; empty if the graph is acyclic.
std::vector<std::size_t> find_cycle(const graph::Dag& dag) {
  const std::size_t n = dag.size();
  enum : unsigned char { kWhite, kGray, kBlack };
  std::vector<unsigned char> color(n, kWhite);
  std::vector<std::size_t> stack;  // current DFS path
  std::vector<std::size_t> next_child(n, 0);

  for (std::size_t root = 0; root < n; ++root) {
    if (color[root] != kWhite) continue;
    stack.push_back(root);
    color[root] = kGray;
    while (!stack.empty()) {
      const auto v = static_cast<NodeId>(stack.back());
      const std::span<const NodeId> children = dag.successors(v);
      if (next_child[v] < children.size()) {
        const std::size_t w = children[next_child[v]++];
        if (color[w] == kGray) {
          // The suffix of the path from w to v, closed by (v, w).
          std::vector<std::size_t> cycle(std::find(stack.begin(), stack.end(), w),
                                         stack.end());
          cycle.push_back(w);
          return cycle;
        }
        if (color[w] == kWhite) {
          color[w] = kGray;
          stack.push_back(w);
        }
      } else {
        color[v] = kBlack;
        stack.pop_back();
      }
    }
  }
  return {};
}

template <typename Pred>
std::vector<std::size_t> nodes_where(std::size_t n, Pred pred) {
  std::vector<std::size_t> out;
  for (std::size_t v = 0; v < n; ++v)
    if (pred(v)) out.push_back(v);
  return out;
}

}  // namespace

TaskStructure check_task(const TaskDraft& task, const DefectSink& report) {
  const graph::Dag& dag = task.dag;
  const std::vector<Node>& nodes = task.nodes;
  const std::size_t n = nodes.size();
  const auto id = [](std::size_t v) { return std::to_string(v); };
  const auto defect = [&](DefectKind kind, std::optional<std::size_t> node,
                          std::string message) {
    report(Defect{kind, node, std::move(message)});
  };
  TaskStructure out;

  if (n == 0) {
    defect(DefectKind::kNoNodes, std::nullopt, "task has no nodes");
    return out;
  }

  // Timing parameters and WCETs.
  if (!(task.period > 0.0) || !std::isfinite(task.period))
    defect(DefectKind::kBadPeriod, std::nullopt,
           "period must be finite and > 0 (got " + std::to_string(task.period) + ")");
  if (!(task.deadline > 0.0) || !std::isfinite(task.deadline))
    defect(DefectKind::kBadDeadline, std::nullopt,
           "deadline must be finite and > 0 (got " + std::to_string(task.deadline) +
               ")");
  else if (task.period > 0.0 && task.deadline > task.period * (1.0 + util::kTimeEps))
    defect(DefectKind::kDeadlineAbovePeriod, std::nullopt,
           "deadline " + std::to_string(task.deadline) + " exceeds period " +
               std::to_string(task.period) + " (constrained deadlines required)");
  bool any_positive = false;
  for (std::size_t v = 0; v < n; ++v) {
    const util::Time wcet = nodes[v].wcet;
    if (!(wcet >= 0.0) || !std::isfinite(wcet))
      defect(DefectKind::kBadWcet, v,
             "WCET on node " + id(v) + " must be finite and >= 0 (got " +
                 std::to_string(wcet) + ")");
    any_positive = any_positive || wcet > 0.0;
  }
  if (!any_positive)
    defect(DefectKind::kAllWcetsZero, std::nullopt, "all WCETs are zero");

  // Edges a graph::Dag cannot hold, then cycles in the graph it does hold.
  for (const NodeId v : task.self_loops)
    defect(DefectKind::kSelfLoop, v,
           "self-loop on node " + id(v) + " (cycle: " + id(v) + " -> " + id(v) + ")");
  for (const graph::Edge& e : task.duplicates)
    defect(DefectKind::kDuplicateEdge, e.from,
           "duplicate edge " + id(e.from) + " -> " + id(e.to));
  std::vector<NodeId> topo;
  try {
    topo = graph::topological_order(dag);
  } catch (const graph::CycleError&) {
    const std::vector<std::size_t> cycle = find_cycle(dag);
    defect(DefectKind::kCycle, cycle.front(),
           "precedence graph has a cycle: " + join_ids(cycle, " -> "));
    return out;  // sources, sinks and regions mean nothing on a cycle
  }
  if (!task.self_loops.empty()) return out;
  out.topo = std::move(topo);

  // Weak connectivity from node 0, then exactly one source and one sink.
  // The ends are counted first: an acyclic graph with one source is weakly
  // connected (every node reaches back to that source), so the flood runs
  // only when the source count is not 1.
  const auto is_source = [&](std::size_t v) {
    return dag.in_degree(static_cast<NodeId>(v)) == 0;
  };
  const auto is_sink = [&](std::size_t v) {
    return dag.out_degree(static_cast<NodeId>(v)) == 0;
  };
  std::size_t sources = 0;
  std::size_t sinks = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (is_source(v) && sources++ == 0) out.source = v;
    if (is_sink(v) && sinks++ == 0) out.sink = v;
  }
  if (sources != 1) {
    const std::vector<bool> joined = graph::weak_component(dag, 0);
    if (std::find(joined.begin(), joined.end(), false) != joined.end()) {
      const auto apart = nodes_where(n, [&](std::size_t v) { return !joined[v]; });
      defect(DefectKind::kNotConnected, apart.front(),
             "graph is not weakly connected; nodes {" + join_ids(apart, ", ") +
                 "} are disconnected from node 0");
    }
  }
  const auto wrong_count = [&](DefectKind kind, const char* what,
                               const std::vector<std::size_t>& ends) {
    defect(kind, ends.empty() ? std::nullopt : std::optional(ends.front()),
           std::string("expected exactly one ") + what + " node, found " +
               id(ends.size()) + (ends.empty() ? "" : " {" + join_ids(ends, ", ") + "}"));
  };
  if (sources != 1)
    wrong_count(DefectKind::kSourceCount, "source", nodes_where(n, is_source));
  if (sinks != 1) wrong_count(DefectKind::kSinkCount, "sink", nodes_where(n, is_sink));

  // Blocking regions: flood from each BF through BC nodes; the one non-BC
  // node the flood reaches must be the matching BJ. Scratch is shared
  // across regions; `members` keeps the visit order the reports follow.
  out.region_index.assign(n, std::nullopt);
  const auto claim = [&](std::size_t v, std::size_t region) {
    if (out.region_index[v].has_value() && *out.region_index[v] != region) {
      defect(DefectKind::kNodeInTwoRegions, v,
             "node " + id(v) + " belongs to two blocking regions");
      return;
    }
    out.region_index[v] = region;
  };
  std::vector<NodeId> frontier;
  std::vector<NodeId> members;
  std::vector<std::size_t> joins;
  util::DynamicBitset visited;
  for (NodeId f = 0; f < n; ++f) {
    if (nodes[f].type != NodeType::BF) continue;
    const std::size_t region = out.regions.size();
    out.regions.push_back(BlockingRegion{f, f, util::DynamicBitset(n)});
    util::DynamicBitset& inside = out.regions.back().members;

    const std::span<const NodeId> children = dag.successors(f);
    if (children.empty()) {
      defect(DefectKind::kForkWithoutChildren, f,
             "BF node " + id(f) + " spawns no children");
      claim(f, region);
      continue;
    }
    frontier.assign(children.begin(), children.end());
    members.clear();
    joins.clear();
    visited.resize_clear(n);
    while (!frontier.empty()) {
      const NodeId v = frontier.back();
      frontier.pop_back();
      if (visited.test(v)) continue;
      visited.set(v);
      switch (nodes[v].type) {
        case NodeType::BC:
          members.push_back(v);
          inside.set(v);
          for (const NodeId w : dag.successors(v)) frontier.push_back(w);
          break;
        case NodeType::BJ:
          joins.push_back(v);  // do not traverse past the join
          break;
        case NodeType::BF:
          defect(DefectKind::kNestedRegion, v,
                 "nested blocking regions: BF " + id(v) + " inside the region of BF " +
                     id(f));
          break;
        case NodeType::NB:
          defect(DefectKind::kNbInRegion, v,
                 "node " + id(v) + " inside the region of BF " + id(f) +
                     " must have type BC, found NB");
          break;
      }
    }

    std::sort(joins.begin(), joins.end());
    if (joins.empty())
      defect(DefectKind::kForkWithoutJoin, f,
             "BF node " + id(f) + " has no matching BJ");
    else if (joins.size() > 1)
      defect(DefectKind::kForkWithManyJoins, f,
             "BF node " + id(f) + " reaches " + id(joins.size()) + " BJ nodes {" +
                 join_ids(joins, ", ") + "}");
    claim(f, region);
    for (const std::size_t j : joins) claim(j, region);
    for (const NodeId v : members) claim(v, region);

    // The boundary restrictions only make sense for a well-shaped region.
    if (joins.size() != 1) continue;
    const auto join = static_cast<NodeId>(joins.front());
    out.regions.back().join = join;
    // Restriction (ii): every edge leaving the BF stays in the region.
    for (const NodeId w : children)
      if (w != join && !inside.test(w))
        defect(DefectKind::kForkEdgeLeaves, f,
               "edge from BF " + id(f) + " to node " + id(w) +
                   " leaves its blocking region");
    // Restriction (iii): every edge entering the BJ comes from the region.
    for (const NodeId u : dag.predecessors(join))
      if (u != f && !inside.test(u))
        defect(DefectKind::kJoinEdgeEnters, join,
               "edge into BJ " + id(join) + " from node " + id(u) +
                   " enters from outside its region");
    // Restriction (i): inner nodes have no edges crossing the boundary.
    for (const NodeId v : members) {
      for (const NodeId u : dag.predecessors(v))
        if (u != f && !inside.test(u))
          defect(DefectKind::kInnerEdgeIn, v,
                 "inner node " + id(v) + " has an incoming edge from " + id(u) +
                     " outside its region");
      for (const NodeId w : dag.successors(v))
        if (w != join && !inside.test(w))
          defect(DefectKind::kInnerEdgeOut, v,
                 "inner node " + id(v) + " has an outgoing edge to " + id(w) +
                     " outside its region");
    }
  }

  // BC/BJ nodes no region flood claimed.
  for (NodeId v = 0; v < n; ++v) {
    const NodeType type = nodes[v].type;
    if ((type == NodeType::BC || type == NodeType::BJ) && !out.region_index[v])
      defect(DefectKind::kOrphanedNode, v,
             to_string(type) + " node " + id(v) + " is not part of any blocking region");
  }
  return out;
}

}  // namespace rtpool::model
