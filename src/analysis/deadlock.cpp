#include "analysis/deadlock.h"

#include <sstream>

#include "analysis/antichain.h"
#include "analysis/concurrency.h"

namespace rtpool::analysis {

namespace {

std::string join_node_list(const std::vector<model::NodeId>& nodes,
                           const char* separator) {
  std::ostringstream os;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i != 0) os << separator;
    os << nodes[i];
  }
  return os.str();
}

}  // namespace

std::optional<BlockingChainWitness> find_lemma1_witness(const model::DagTask& task,
                                                        std::size_t pool_size) {
  // b̄(τ) = max_v |X(v)| is cached by DagTask at construction; when it is
  // below the pool size no witness exists and the per-node sweep below —
  // which would only rediscover the same maximum — is skipped entirely.
  // This is the common case on every deadlock-free task set, and the sweep
  // allocates three bitsets per node, so the early return matters on the
  // experiment hot path.
  if (task.max_affecting_forks() < pool_size) return std::nullopt;

  // Pivot = the node v* achieving b̄(τ) = max_v |X(v)|; the chain is X(v*).
  BlockingChainWitness witness{0, {}, pool_size};
  std::size_t best = 0;
  for (model::NodeId v = 0; v < task.node_count(); ++v) {
    const util::DynamicBitset x = affecting_blocking_forks(task, v);
    const std::size_t count = x.count();
    if (count > best) {
      best = count;
      witness.pivot = v;
      witness.forks.clear();
      x.for_each([&](std::size_t f) {
        witness.forks.push_back(static_cast<model::NodeId>(f));
      });
    }
  }
  if (best < pool_size) return std::nullopt;
  return witness;
}

std::string describe(const BlockingChainWitness& witness, const std::string& task_name) {
  std::ostringstream os;
  os << task_name << ": node " << witness.pivot << " can wait behind "
     << witness.forks.size() << " simultaneously suspended BF node"
     << (witness.forks.size() == 1 ? "" : "s") << " {"
     << join_node_list(witness.forks, ", ") << "} exhausting a pool of "
     << witness.pool_size << " thread" << (witness.pool_size == 1 ? "" : "s");
  return os.str();
}

std::optional<WaitForCycle> find_wait_for_cycle(const model::DagTask& task,
                                                std::size_t pool_size) {
  std::vector<model::NodeId> antichain = max_simultaneous_suspension_set(task);
  if (antichain.size() < pool_size || pool_size == 0) return std::nullopt;
  antichain.resize(pool_size);  // m forks suffice to close the cycle
  return WaitForCycle{std::move(antichain), pool_size};
}

std::string describe(const WaitForCycle& cycle, const std::string& task_name) {
  std::ostringstream os;
  os << task_name << ": wait-for cycle on the WC graph: BF "
     << join_node_list(cycle.forks, " -> BF ") << " -> BF " << cycle.forks.front()
     << " (" << cycle.forks.size() << " pairwise-concurrent forks hold all "
     << cycle.pool_size << " threads while each waits for the next)";
  return os.str();
}

std::vector<Eq3Violation> find_eq3_violations(const model::DagTask& task,
                                              const NodeAssignment& assignment) {
  if (assignment.thread_of.size() != task.node_count())
    throw std::invalid_argument("find_eq3_violations: assignment size mismatch");

  std::vector<Eq3Violation> violations;
  if (task.blocking_regions().empty()) return violations;  // no BC nodes

  // Same X(v) as affecting_blocking_forks, with the BF mask hoisted out of
  // the loop and one reused bitset instead of three allocations per node.
  util::DynamicBitset bf_mask(task.node_count());
  for (const model::BlockingRegion& r : task.blocking_regions())
    bf_mask.set(r.fork);
  const graph::Reachability& reach = task.reachability();
  util::DynamicBitset dangerous(task.node_count());
  for (model::NodeId v = 0; v < task.node_count(); ++v) {
    if (task.type(v) != model::NodeType::BC) continue;
    const ThreadId own = assignment.thread_of[v];
    // P(v): threads hosting a node of C(v) ∪ {F(v)}.
    dangerous = bf_mask;
    dangerous.and_not_assign(reach.ancestors(v));
    dangerous.and_not_assign(reach.descendants(v));
    if (dangerous.test(v)) dangerous.reset(v);
    dangerous.set(task.blocking_fork_of(v));
    bool hit = false;
    dangerous.for_each([&](std::size_t f) {
      if (!hit && assignment.thread_of[f] == own) {
        hit = true;
        violations.push_back(Eq3Violation{v, static_cast<model::NodeId>(f), own});
      }
    });
  }
  return violations;
}

std::optional<Eq3Violation> find_eq3_violation(const model::DagTask& task,
                                               const NodeAssignment& assignment) {
  const std::vector<Eq3Violation> all = find_eq3_violations(task, assignment);
  if (all.empty()) return std::nullopt;
  return all.front();
}

std::string describe(const Eq3Violation& violation, const std::string& task_name) {
  return task_name + ": BC node " + std::to_string(violation.bc_node) +
         " shares thread " + std::to_string(violation.thread) +
         " with dangerous BF " + std::to_string(violation.fork) +
         " (Eq. (3) violated)";
}

DeadlockCheck check_deadlock_free_global(const model::DagTask& task,
                                         std::size_t pool_size) {
  DeadlockCheck check;
  check.max_forks = max_affecting_forks(task);
  check.concurrency_bound =
      static_cast<long>(pool_size) - static_cast<long>(check.max_forks);
  const auto witness = find_lemma1_witness(task, pool_size);
  check.deadlock_free = !witness.has_value();
  if (witness.has_value()) check.witness = describe(*witness, task.name());
  return check;
}

DeadlockCheck check_deadlock_free_partitioned(const model::DagTask& task,
                                              std::size_t pool_size,
                                              const NodeAssignment& assignment) {
  DeadlockCheck check = check_deadlock_free_global(task, pool_size);
  if (!check.deadlock_free) return check;

  if (const auto violation = find_eq3_violation(task, assignment)) {
    check.deadlock_free = false;
    check.witness = describe(*violation, task.name());
  }
  return check;
}

bool is_deadlock_free_partitioned(const model::DagTask& task,
                                  std::size_t pool_size,
                                  const NodeAssignment& assignment) {
  if (assignment.thread_of.size() != task.node_count())
    throw std::invalid_argument(
        "is_deadlock_free_partitioned: assignment size mismatch");
  // Lemma 1: the witness search maximizes |X(v)|, which is exactly the
  // cached b̄(τ) — a witness exists iff b̄(τ) >= pool size.
  if (task.max_affecting_forks() >= pool_size) return false;
  const std::vector<model::BlockingRegion>& regions = task.blocking_regions();
  if (regions.empty()) return true;

  // Eq. (3): a BC node v may not share its thread with any BF of X(v) =
  // (BF \ (pred(v) ∪ succ(v))) ∪ {F(v)}. Regions are few, so per-fork bit
  // probes beat materializing the X(v) mask.
  const graph::Reachability& reach = task.reachability();
  for (model::NodeId v = 0; v < task.node_count(); ++v) {
    if (task.type(v) != model::NodeType::BC) continue;
    const ThreadId own = assignment.thread_of[v];
    const model::NodeId fv = task.blocking_fork_of(v);
    for (const model::BlockingRegion& r : regions) {
      const model::NodeId f = r.fork;
      if (assignment.thread_of[f] != own) continue;
      if (f == fv) return false;
      if (!reach.ancestors(v).test(f) && !reach.descendants(v).test(f))
        return false;
    }
  }
  return true;
}

bool task_set_deadlock_free_partitioned(const model::TaskSet& ts,
                                        const TaskSetPartition& partition) {
  if (partition.per_task.size() != ts.size())
    throw std::invalid_argument("task_set_deadlock_free_partitioned: size mismatch");
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (!check_deadlock_free_partitioned(ts.task(i), ts.core_count(),
                                         partition.per_task[i])
             .deadlock_free)
      return false;
  }
  return true;
}

}  // namespace rtpool::analysis
