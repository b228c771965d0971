#include "lint/rules.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "analysis/deadlock.h"
#include "analysis/partition.h"

namespace rtpool::lint {

namespace {

void emit(LintReport& report, std::string rule_id, Severity severity,
          std::string task, std::optional<std::size_t> node, std::string message,
          std::string fix_hint) {
  report.diagnostics.push_back(Diagnostic{std::move(rule_id), severity,
                                          std::move(task), node, std::move(message),
                                          std::move(fix_hint)});
}

/// Lint's side of the model checker: the rule id and fix hint of each
/// Section 2 defect kind. Every one of them is an error.
struct Rule {
  const char* id;
  const char* hint;
};

Rule rule_of(model::DefectKind kind) {
  using K = model::DefectKind;
  switch (kind) {
    case K::kNoNodes:
      return {"RTP-D6", "every task needs at least one node with WCET > 0"};
    case K::kBadPeriod:
      return {"RTP-T1", "set period=T with a finite T > 0"};
    case K::kBadDeadline:
      return {"RTP-T1", "set deadline=D with 0 < D <= T"};
    case K::kDeadlineAbovePeriod:
      return {"RTP-T1", "reduce the deadline to at most the period"};
    case K::kBadWcet:
      return {"RTP-T2", "WCETs must be finite and >= 0"};
    case K::kAllWcetsZero:
      return {"RTP-T2", "give at least one node a positive WCET"};
    case K::kSelfLoop:
      return {"RTP-D1", "a node cannot precede itself; remove the edge"};
    case K::kDuplicateEdge:
      return {"RTP-D2", "remove the repeated edge declaration"};
    case K::kCycle:
      return {"RTP-D1", "precedence constraints must form a DAG; break the cycle"};
    case K::kNotConnected:
      return {"RTP-D5", "connect every node to the task graph or delete it"};
    case K::kSourceCount:
      return {"RTP-D3",
              "add a dummy zero-WCET NB source node preceding all current sources"};
    case K::kSinkCount:
      return {"RTP-D4",
              "add a dummy zero-WCET NB sink node succeeding all current sinks"};
    case K::kForkWithoutChildren:
      return {"RTP-S1", "a blocking fork must have at least one BC child"};
    case K::kNestedRegion:
      return {"RTP-S2", "blocking regions must not nest; restructure as siblings"};
    case K::kNbInRegion:
      return {"RTP-S3", "retype the node as BC or move it out of the region"};
    case K::kForkWithoutJoin:
      return {"RTP-S1",
              "every blocking fork needs exactly one join reachable through BC nodes"};
    case K::kForkWithManyJoins:
      return {"RTP-S1", "merge the joins: a blocking region has exactly one BJ"};
    case K::kNodeInTwoRegions:
      return {"RTP-S1", "restriction (i): blocking regions must be disjoint"};
    case K::kForkEdgeLeaves:
      return {"RTP-S3",
              "restriction (ii): successors of a BF must be inside its region"};
    case K::kJoinEdgeEnters:
      return {"RTP-S3",
              "restriction (iii): predecessors of a BJ must be inside its region"};
    case K::kInnerEdgeIn:
      return {"RTP-S3",
              "restriction (i): region-internal nodes only follow the BF or other "
              "region nodes"};
    case K::kInnerEdgeOut:
      return {"RTP-S3",
              "restriction (i): region-internal nodes only precede the BJ or other "
              "region nodes"};
    case K::kOrphanedNode:
      return {"RTP-S1",
              "BC/BJ nodes must be reachable from a BF through BC-only paths; "
              "retype as NB otherwise"};
  }
  throw std::logic_error("rule_of: unknown defect kind");
}

/// True if any error-severity diagnostic in `report` names `task`.
bool has_error_for(const LintReport& report, const std::string& task) {
  for (const Diagnostic& d : report.diagnostics)
    if (d.severity == Severity::kError && d.task == task) return true;
  return false;
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
void check_set_consistency(const model::RawTaskSet& raw, LintReport& report) {
  std::map<std::string, std::size_t> name_count;
  for (const model::RawTask& t : raw.tasks) ++name_count[t.name];
  for (const auto& [task_name, count] : name_count)
    if (count > 1)
      emit(report, "RTP-C1", Severity::kError, task_name, std::nullopt,
           "task name '" + task_name + "' used by " + std::to_string(count) +
               " tasks",
           "task names identify pools; make them unique");

  std::map<int, std::vector<std::string>> by_priority;
  for (const model::RawTask& t : raw.tasks) by_priority[t.priority].push_back(t.name);
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
  for (const model::RawTask& t : raw.tasks) {
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

/// Partition-dependent rules: RTP-L3 (Eq. 3), RTP-P3.
void check_partition_rules(const model::TaskSet& ts, PartitionSource source,
                           LintReport& report) {
  std::optional<analysis::TaskSetPartition> partition;
  switch (source) {
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

LintReport run_lint(const model::RawTaskSet& raw, PartitionSource partition) {
  LintReport report;

  std::vector<std::optional<model::DagTask>> promoted;
  promoted.reserve(raw.tasks.size());
  for (const model::RawTask& task : raw.tasks) {
    model::check_raw_task(task, [&](const model::Defect& defect) {
      const Rule rule = rule_of(defect.kind);
      emit(report, rule.id, Severity::kError, task.name, defect.node, defect.message,
           rule.hint);
    });
    if (!has_error_for(report, task.name))
      promoted.push_back(model::build_task(task));
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
  if (partition != PartitionSource::kNone && all_promoted &&
      report.by_rule("RTP-C1").empty()) {
    model::TaskSet ts(raw.cores);
    for (auto& task : promoted) ts.add(std::move(*task));
    check_partition_rules(ts, partition, report);
  }

  return report;
}

}  // namespace rtpool::lint
