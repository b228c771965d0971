#include "lint/rules.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "analysis/deadlock.h"
#include "graph/algorithms.h"
#include "util/time.h"

namespace rtpool::lint {

namespace {

using model::NodeType;

void emit(LintReport& report, std::string rule_id, Severity severity,
          std::string task, std::optional<std::size_t> node, std::string message,
          std::string fix_hint) {
  report.diagnostics.push_back(Diagnostic{std::move(rule_id), severity,
                                          std::move(task), node, std::move(message),
                                          std::move(fix_hint)});
}

std::string join_ids(const std::vector<std::size_t>& ids, const char* separator) {
  std::ostringstream os;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) os << separator;
    os << ids[i];
  }
  return os.str();
}

/// Directed adjacency with self-loops and duplicate edges split off, so the
/// graph rules can analyze the clean skeleton while reporting the defects.
struct Adjacency {
  std::vector<std::vector<std::size_t>> succ;
  std::vector<std::vector<std::size_t>> pred;
  std::vector<std::size_t> self_loops;
  std::vector<RawEdge> duplicates;
};

Adjacency build_adjacency(const RawTask& task) {
  Adjacency adj;
  adj.succ.resize(task.nodes.size());
  adj.pred.resize(task.nodes.size());
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (const RawEdge& e : task.edges) {
    if (e.from == e.to) {
      adj.self_loops.push_back(e.from);
      continue;
    }
    if (!seen.insert({e.from, e.to}).second) {
      adj.duplicates.push_back(e);
      continue;
    }
    adj.succ[e.from].push_back(e.to);
    adj.pred[e.to].push_back(e.from);
  }
  return adj;
}

/// DFS cycle detection returning one directed cycle (node sequence) if any.
std::optional<std::vector<std::size_t>> find_cycle(const Adjacency& adj) {
  const std::size_t n = adj.succ.size();
  enum : unsigned char { kWhite, kGray, kBlack };
  std::vector<unsigned char> color(n, kWhite);
  std::vector<std::size_t> stack;       // current DFS path
  std::vector<std::size_t> next_child(n, 0);

  for (std::size_t root = 0; root < n; ++root) {
    if (color[root] != kWhite) continue;
    stack.push_back(root);
    color[root] = kGray;
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      if (next_child[v] < adj.succ[v].size()) {
        const std::size_t w = adj.succ[v][next_child[v]++];
        if (color[w] == kGray) {
          // Cycle: suffix of the stack from w to v, closed by (v, w).
          std::vector<std::size_t> cycle;
          const auto it = std::find(stack.begin(), stack.end(), w);
          cycle.assign(it, stack.end());
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
  return std::nullopt;
}

/// Structural (D/T families) checks that do not need the region machinery.
/// Returns true when the graph skeleton is sound enough for region checks.
bool check_graph_shape(const RawTask& task, const Adjacency& adj, LintReport& report) {
  const std::string& name = task.name;

  if (task.nodes.empty()) {
    emit(report, "RTP-D6", Severity::kError, name, std::nullopt,
         "task has no nodes", "every task needs at least one node with WCET > 0");
    return false;
  }

  // RTP-T1: timing parameters.
  if (!(task.period > 0.0) || !std::isfinite(task.period))
    emit(report, "RTP-T1", Severity::kError, name, std::nullopt,
         "period must be finite and > 0 (got " + std::to_string(task.period) +
             ")",
         "set period=T with a finite T > 0");
  if (!(task.deadline > 0.0) || !std::isfinite(task.deadline))
    emit(report, "RTP-T1", Severity::kError, name, std::nullopt,
         "deadline must be finite and > 0 (got " +
             std::to_string(task.deadline) + ")",
         "set deadline=D with 0 < D <= T");
  else if (task.period > 0.0 &&
           task.deadline > task.period * (1.0 + util::kTimeEps))
    emit(report, "RTP-T1", Severity::kError, name, std::nullopt,
         "deadline " + std::to_string(task.deadline) + " exceeds period " +
             std::to_string(task.period) + " (constrained deadlines required)",
         "reduce the deadline to at most the period");

  // RTP-T2: WCETs.
  bool any_positive = false;
  for (std::size_t v = 0; v < task.nodes.size(); ++v) {
    if (!(task.nodes[v].wcet >= 0.0) || !std::isfinite(task.nodes[v].wcet))
      emit(report, "RTP-T2", Severity::kError, name, v,
           "WCET must be finite and >= 0 (got " +
               std::to_string(task.nodes[v].wcet) + ")",
           "WCETs must be finite and >= 0");
    any_positive = any_positive || task.nodes[v].wcet > 0.0;
  }
  if (!any_positive)
    emit(report, "RTP-T2", Severity::kError, name, std::nullopt,
         "all WCETs are zero", "give at least one node a positive WCET");

  // RTP-D1: self-loops are one-node cycles.
  for (const std::size_t v : adj.self_loops)
    emit(report, "RTP-D1", Severity::kError, name, v,
         "self-loop on node " + std::to_string(v) + " (cycle: " +
             std::to_string(v) + " -> " + std::to_string(v) + ")",
         "a node cannot precede itself; remove the edge");

  // RTP-D2: duplicate edges.
  for (const RawEdge& e : adj.duplicates)
    emit(report, "RTP-D2", Severity::kError, name, e.from,
         "duplicate edge " + std::to_string(e.from) + " -> " + std::to_string(e.to),
         "remove the repeated edge declaration");

  // RTP-D1: directed cycles on the deduplicated skeleton.
  if (const auto cycle = find_cycle(adj)) {
    emit(report, "RTP-D1", Severity::kError, name, cycle->front(),
         "precedence graph has a cycle: " + join_ids(*cycle, " -> "),
         "precedence constraints must form a DAG; break the cycle");
    return false;  // sources/sinks/regions are meaningless on a cyclic graph
  }

  if (!adj.self_loops.empty()) return false;

  // RTP-D5: weak connectivity (undirected reachability from node 0).
  {
    std::vector<bool> seen(task.nodes.size(), false);
    std::vector<std::size_t> frontier{0};
    seen[0] = true;
    while (!frontier.empty()) {
      const std::size_t v = frontier.back();
      frontier.pop_back();
      for (const auto* half : {&adj.succ[v], &adj.pred[v]}) {
        for (const std::size_t w : *half) {
          if (!seen[w]) {
            seen[w] = true;
            frontier.push_back(w);
          }
        }
      }
    }
    std::vector<std::size_t> unreachable;
    for (std::size_t v = 0; v < task.nodes.size(); ++v)
      if (!seen[v]) unreachable.push_back(v);
    if (!unreachable.empty())
      emit(report, "RTP-D5", Severity::kError, name, unreachable.front(),
           "graph is not weakly connected; nodes {" + join_ids(unreachable, ", ") +
               "} are disconnected from node 0",
           "connect every node to the task graph or delete it");
  }

  // RTP-D3 / RTP-D4: exactly one source and one sink.
  std::vector<std::size_t> sources;
  std::vector<std::size_t> sinks;
  for (std::size_t v = 0; v < task.nodes.size(); ++v) {
    if (adj.pred[v].empty()) sources.push_back(v);
    if (adj.succ[v].empty()) sinks.push_back(v);
  }
  if (sources.size() != 1)
    emit(report, "RTP-D3", Severity::kError, name,
         sources.empty() ? std::nullopt : std::optional<std::size_t>(sources.front()),
         "expected exactly one source node, found " + std::to_string(sources.size()) +
             (sources.empty() ? "" : " {" + join_ids(sources, ", ") + "}"),
         "add a dummy zero-WCET NB source node preceding all current sources");
  if (sinks.size() != 1)
    emit(report, "RTP-D4", Severity::kError, name,
         sinks.empty() ? std::nullopt : std::optional<std::size_t>(sinks.front()),
         "expected exactly one sink node, found " + std::to_string(sinks.size()) +
             (sinks.empty() ? "" : " {" + join_ids(sinks, ", ") + "}"),
         "add a dummy zero-WCET NB sink node succeeding all current sinks");

  return true;
}

/// Structural restrictions (i)-(iii) of Section 2 over the blocking regions
/// (S family), mirroring DagTask::build_regions/validate_regions but
/// reporting every defect instead of throwing on the first.
void check_regions(const RawTask& task, const Adjacency& adj, LintReport& report) {
  const std::string& name = task.name;
  const std::size_t n = task.nodes.size();
  // region_of[v]: index of the region that claimed node v, if any.
  std::vector<std::optional<std::size_t>> region_of(n);
  std::size_t region_count = 0;

  auto claim = [&](std::size_t v, std::size_t region) {
    if (region_of[v].has_value() && *region_of[v] != region) {
      emit(report, "RTP-S1", Severity::kError, name, v,
           "node " + std::to_string(v) + " belongs to two blocking regions",
           "restriction (i): blocking regions must be disjoint");
      return;
    }
    region_of[v] = region;
  };

  for (std::size_t f = 0; f < n; ++f) {
    if (task.nodes[f].type != NodeType::BF) continue;
    const std::size_t region = region_count++;

    if (adj.succ[f].empty()) {
      emit(report, "RTP-S1", Severity::kError, name, f,
           "BF node " + std::to_string(f) + " spawns no children",
           "a blocking fork must have at least one BC child");
      claim(f, region);
      continue;
    }

    // Flood forward through BC nodes; collect members and candidate joins.
    std::vector<std::size_t> members;
    std::vector<std::size_t> joins;
    std::vector<bool> visited(n, false);
    std::vector<std::size_t> frontier(adj.succ[f].begin(), adj.succ[f].end());
    while (!frontier.empty()) {
      const std::size_t v = frontier.back();
      frontier.pop_back();
      if (visited[v]) continue;
      visited[v] = true;
      switch (task.nodes[v].type) {
        case NodeType::BC:
          members.push_back(v);
          for (const std::size_t w : adj.succ[v]) frontier.push_back(w);
          break;
        case NodeType::BJ:
          joins.push_back(v);  // do not traverse past the join
          break;
        case NodeType::BF:
          emit(report, "RTP-S2", Severity::kError, name, v,
               "nested blocking regions: BF " + std::to_string(v) +
                   " inside the region of BF " + std::to_string(f),
               "blocking regions must not nest; restructure as siblings");
          break;
        case NodeType::NB:
          emit(report, "RTP-S3", Severity::kError, name, v,
               "node " + std::to_string(v) + " inside the region of BF " +
                   std::to_string(f) + " must have type BC, found NB",
               "retype the node as BC or move it out of the region");
          break;
      }
    }

    std::sort(joins.begin(), joins.end());
    if (joins.empty()) {
      emit(report, "RTP-S1", Severity::kError, name, f,
           "BF node " + std::to_string(f) + " has no matching BJ",
           "every blocking fork needs exactly one join reachable through BC nodes");
    } else if (joins.size() > 1) {
      emit(report, "RTP-S1", Severity::kError, name, f,
           "BF node " + std::to_string(f) + " reaches " + std::to_string(joins.size()) +
               " BJ nodes {" + join_ids(joins, ", ") + "}",
           "merge the joins: a blocking region has exactly one BJ");
    }

    claim(f, region);
    for (const std::size_t j : joins) claim(j, region);
    for (const std::size_t v : members) claim(v, region);

    // Boundary restrictions only make sense for a well-shaped region.
    if (joins.size() != 1) continue;
    const std::size_t join = joins.front();
    std::vector<bool> in_region(n, false);
    for (const std::size_t v : members) in_region[v] = true;

    // Restriction (ii): every edge leaving the BF stays in the region.
    for (const std::size_t w : adj.succ[f])
      if (w != join && !in_region[w])
        emit(report, "RTP-S3", Severity::kError, name, f,
             "edge from BF " + std::to_string(f) + " to node " + std::to_string(w) +
                 " leaves its blocking region",
             "restriction (ii): successors of a BF must be inside its region");
    // Restriction (iii): every edge entering the BJ comes from the region.
    for (const std::size_t u : adj.pred[join])
      if (u != f && !in_region[u])
        emit(report, "RTP-S3", Severity::kError, name, join,
             "edge into BJ " + std::to_string(join) + " from node " +
                 std::to_string(u) + " enters from outside its region",
             "restriction (iii): predecessors of a BJ must be inside its region");
    // Restriction (i): inner nodes have no edges crossing the boundary.
    for (const std::size_t v : members) {
      for (const std::size_t u : adj.pred[v])
        if (u != f && !in_region[u])
          emit(report, "RTP-S3", Severity::kError, name, v,
               "inner node " + std::to_string(v) + " has an incoming edge from " +
                   std::to_string(u) + " outside its region",
               "restriction (i): region-internal nodes only follow the BF or "
               "other region nodes");
      for (const std::size_t w : adj.succ[v])
        if (w != join && !in_region[w])
          emit(report, "RTP-S3", Severity::kError, name, v,
               "inner node " + std::to_string(v) + " has an outgoing edge to " +
                   std::to_string(w) + " outside its region",
               "restriction (i): region-internal nodes only precede the BJ or "
               "other region nodes");
    }
  }

  // Orphaned BC/BJ nodes never claimed by any region flood.
  for (std::size_t v = 0; v < n; ++v) {
    const NodeType t = task.nodes[v].type;
    if ((t == NodeType::BC || t == NodeType::BJ) && !region_of[v].has_value())
      emit(report, "RTP-S1", Severity::kError, name, v,
           std::string(model::to_string(t)) + " node " + std::to_string(v) +
               " is not part of any blocking region",
           "BC/BJ nodes must be reachable from a BF through BC-only paths; "
           "retype as NB otherwise");
  }
}

/// True if any error-severity diagnostic in `report` names `task`.
bool has_error_for(const LintReport& report, const std::string& task) {
  for (const Diagnostic& d : report.diagnostics)
    if (d.severity == Severity::kError && d.task == task) return true;
  return false;
}

/// Promote a structurally clean raw task to a validated DagTask.
std::optional<model::DagTask> promote(const RawTask& task, LintReport& report) {
  try {
    graph::Dag dag(task.nodes.size());
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (const RawEdge& e : task.edges) {
      if (e.from == e.to || !seen.insert({e.from, e.to}).second) continue;
      dag.add_edge(static_cast<graph::NodeId>(e.from),
                   static_cast<graph::NodeId>(e.to));
    }
    return model::DagTask(task.name, std::move(dag), task.nodes, task.period,
                          task.deadline, task.priority);
  } catch (const std::exception& e) {
    emit(report, "RTP-X1", Severity::kError, task.name, std::nullopt,
         std::string("model validation failed: ") + e.what(),
         "the structural rules missed this defect; please report it");
    return std::nullopt;
  }
}

/// Semantic per-task rules on a validated task (L/P families, global part).
void check_deadlock_rules(const model::DagTask& task, std::size_t cores,
                          LintReport& report) {
  if (const auto chain = analysis::find_lemma1_witness(task, cores)) {
    emit(report, "RTP-L1", Severity::kError, task.name(), chain->pivot,
         "Lemma 1: " + analysis::describe(*chain, task.name()),
         "increase the pool size m beyond b̄ = " +
             std::to_string(chain->forks.size()) +
             " or restructure the blocking regions to overlap less");
    emit(report, "RTP-P1", Severity::kWarning, task.name(), std::nullopt,
         "zero guaranteed concurrency: l̄ = m - b̄ = " +
             std::to_string(static_cast<long>(cores) -
                            static_cast<long>(chain->forks.size())) +
             " <= 0, so the limited-concurrency RTA of Section 4.1 cannot "
             "bound response times",
         "the schedulability analysis will reject this task regardless of "
         "its utilization");
  }
  if (const auto cycle = analysis::find_wait_for_cycle(task, cores)) {
    emit(report, "RTP-L2", Severity::kError, task.name(), cycle->forks.front(),
         "Lemma 2: " + analysis::describe(*cycle, task.name()) +
             "; under global work-conserving scheduling this deadlock is "
             "reachable, not just possible",
         "at least " + std::to_string(cycle->forks.size() + 1) +
             " pool threads are needed to break the cycle");
  }
  if (cores > task.node_count())
    emit(report, "RTP-P2", Severity::kNote, task.name(), std::nullopt,
         "pool has " + std::to_string(cores) + " threads but the task only has " +
             std::to_string(task.node_count()) + " nodes",
         "threads beyond the graph width can never be used by this task");
}

/// Cross-task rules on the raw set (C family, partition-independent part).
void check_set_consistency(const RawTaskSet& raw, LintReport& report) {
  std::map<std::string, std::size_t> name_count;
  for (const RawTask& t : raw.tasks) ++name_count[t.name];
  for (const auto& [task_name, count] : name_count)
    if (count > 1)
      emit(report, "RTP-C1", Severity::kError, task_name, std::nullopt,
           "task name '" + task_name + "' used by " + std::to_string(count) +
               " tasks",
           "task names identify pools; make them unique");

  std::map<int, std::vector<std::string>> by_priority;
  for (const RawTask& t : raw.tasks) by_priority[t.priority].push_back(t.name);
  for (const auto& [priority, names] : by_priority) {
    if (names.size() <= 1) continue;
    std::string list;
    for (std::size_t i = 0; i < names.size(); ++i)
      list += (i ? ", " : "") + names[i];
    emit(report, "RTP-C2", Severity::kWarning, "", std::nullopt,
         "tasks {" + list + "} share priority " + std::to_string(priority),
         "fixed-priority analyses assume pairwise distinct priorities; ties "
         "are broken by declaration order");
  }

  double total_utilization = 0.0;
  bool utilization_known = true;
  for (const RawTask& t : raw.tasks) {
    if (!(t.period > 0.0)) {
      utilization_known = false;
      continue;
    }
    double volume = 0.0;
    for (const model::Node& nd : t.nodes) volume += nd.wcet;
    total_utilization += volume / t.period;
  }
  if (utilization_known && total_utilization > static_cast<double>(raw.cores))
    emit(report, "RTP-C4", Severity::kWarning, "", std::nullopt,
         "total utilization " + std::to_string(total_utilization) + " exceeds m = " +
             std::to_string(raw.cores),
         "the task set is trivially unschedulable on " + std::to_string(raw.cores) +
             " cores");
}

/// Partition-dependent rules: RTP-C3 (shape), RTP-L3 (Eq. 3), RTP-P3.
void check_partition_rules(const model::TaskSet& ts, const LintOptions& options,
                           LintReport& report) {
  std::optional<analysis::TaskSetPartition> partition;
  switch (options.partition_source) {
    case PartitionSource::kNone:
      return;
    case PartitionSource::kWorstFit: {
      auto result = analysis::partition_worst_fit(ts);
      if (!result.success()) {
        emit(report, "RTP-P3", Severity::kWarning, "", std::nullopt,
             "worst-fit partitioning failed: " + result.failure,
             "reduce per-node utilization or add cores");
        return;
      }
      partition = std::move(*result.partition);
      break;
    }
    case PartitionSource::kAlgorithm1: {
      auto result = analysis::partition_algorithm1(ts);
      if (!result.success()) {
        emit(report, "RTP-P3", Severity::kWarning, "", std::nullopt,
             "Algorithm 1 found no reduced-concurrency-delay-free partition: " +
                 result.failure,
             "add cores or shrink the blocking regions; worst-fit placement "
             "may still work but admits queuing behind suspended threads");
        return;
      }
      partition = std::move(*result.partition);
      break;
    }
    case PartitionSource::kProvided: {
      if (!options.partition.has_value()) {
        emit(report, "RTP-C3", Severity::kError, "", std::nullopt,
             "PartitionSource::kProvided but LintOptions::partition is empty",
             "pass the partition to lint against");
        return;
      }
      partition = options.partition;
      // Shape validation before use.
      bool shape_ok = true;
      if (partition->per_task.size() != ts.size()) {
        emit(report, "RTP-C3", Severity::kError, "", std::nullopt,
             "partition covers " + std::to_string(partition->per_task.size()) +
                 " tasks but the set has " + std::to_string(ts.size()),
             "provide one node-to-thread assignment per task");
        return;
      }
      for (std::size_t i = 0; i < ts.size(); ++i) {
        const auto& assignment = partition->per_task[i];
        const model::DagTask& task = ts.task(i);
        if (assignment.thread_of.size() != task.node_count()) {
          emit(report, "RTP-C3", Severity::kError, task.name(), std::nullopt,
               "assignment has " + std::to_string(assignment.thread_of.size()) +
                   " entries for " + std::to_string(task.node_count()) + " nodes",
               "provide exactly one thread id per node");
          shape_ok = false;
          continue;
        }
        for (std::size_t v = 0; v < assignment.thread_of.size(); ++v) {
          if (assignment.thread_of[v] >= ts.core_count()) {
            emit(report, "RTP-C3", Severity::kError, task.name(), v,
                 "node " + std::to_string(v) + " assigned to thread " +
                     std::to_string(assignment.thread_of[v]) + " but the pool has m = " +
                     std::to_string(ts.core_count()) + " threads",
                 "thread ids must be in [0, m)");
            shape_ok = false;
          }
        }
      }
      if (!shape_ok) return;
      break;
    }
  }

  for (std::size_t i = 0; i < ts.size(); ++i) {
    const model::DagTask& task = ts.task(i);
    for (const analysis::Eq3Violation& violation :
         analysis::find_eq3_violations(task, partition->per_task[i])) {
      emit(report, "RTP-L3", Severity::kError, task.name(), violation.bc_node,
           "Lemma 3 / Eq. (3): " + analysis::describe(violation, task.name()) +
               "; the BC node can starve behind its suspended fork's thread",
           "move BC node " + std::to_string(violation.bc_node) +
               " to a thread hosting no BF of C(v) ∪ {F(v)} "
               "(Algorithm 1 produces such placements)");
    }
  }
}

}  // namespace

LintReport run_lint(const RawTaskSet& raw, const LintOptions& options) {
  LintReport report;

  std::vector<std::optional<model::DagTask>> promoted;
  promoted.reserve(raw.tasks.size());
  for (const RawTask& task : raw.tasks) {
    const Adjacency adj = build_adjacency(task);
    if (check_graph_shape(task, adj, report)) check_regions(task, adj, report);
    if (!has_error_for(report, task.name))
      promoted.push_back(promote(task, report));
    else
      promoted.push_back(std::nullopt);
  }

  check_set_consistency(raw, report);

  for (std::size_t i = 0; i < raw.tasks.size(); ++i)
    if (promoted[i].has_value())
      check_deadlock_rules(*promoted[i], raw.cores, report);

  // Partition rules need the whole validated set (unique names included).
  const bool all_promoted =
      std::all_of(promoted.begin(), promoted.end(),
                  [](const auto& t) { return t.has_value(); });
  if (options.partition_source != PartitionSource::kNone && all_promoted &&
      report.by_rule("RTP-C1").empty()) {
    model::TaskSet ts(raw.cores);
    for (auto& task : promoted) ts.add(std::move(*task));
    check_partition_rules(ts, options, report);
  }

  return report;
}

LintReport run_lint(const model::TaskSet& ts, const LintOptions& options) {
  return run_lint(to_raw(ts), options);
}

}  // namespace rtpool::lint
