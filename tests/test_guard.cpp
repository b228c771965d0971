// Tests for the runtime guard (exec/guard.h) and seeded fault injection
// (exec/fault.h): stall detection semantics, the Lemma 2 witness
// cross-check, recovery policies, exception-safe execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/concurrency.h"
#include "analysis/deadlock.h"
#include "exec/fault.h"
#include "exec/graph_executor.h"
#include "exec/thread_pool.h"
#include "model/builder.h"
#include "util/rng.h"

namespace rtpool::exec {
namespace {

using model::DagTask;
using model::DagTaskBuilder;
using model::NodeId;
using model::NodeType;

/// Figure 1(a): one blocking fork-join between a pre and a post node.
DagTask fig1_task() {
  DagTaskBuilder b("fig1");
  const NodeId pre = b.add_node(1.0);
  const auto fj = b.add_blocking_fork_join(1.0, 1.0, {1.0, 1.0, 1.0});
  const NodeId post = b.add_node(1.0);
  b.add_edge(pre, fj.fork);
  b.add_edge(fj.join, post);
  b.period(100.0);
  return b.build();
}

/// Figure 1(c): two concurrent blocking regions — deadlocks on two workers.
DagTask fig1c_task() {
  DagTaskBuilder b("fig1c");
  const NodeId src = b.add_node(1.0);
  const auto r1 = b.add_blocking_fork_join(1.0, 1.0, {1.0, 1.0, 1.0});
  const auto r2 = b.add_blocking_fork_join(1.0, 1.0, {1.0, 1.0, 1.0});
  const NodeId snk = b.add_node(1.0);
  b.add_edge(src, r1.fork);
  b.add_edge(src, r2.fork);
  b.add_edge(r1.join, snk);
  b.add_edge(r2.join, snk);
  b.period(100.0);
  return b.build();
}

std::set<NodeId> as_set(const std::vector<NodeId>& v) {
  return std::set<NodeId>(v.begin(), v.end());
}

/// First inner (BC) node of a region.
NodeId first_member(const model::BlockingRegion& region) {
  NodeId first = 0;
  bool found = false;
  region.members.for_each([&](std::size_t v) {
    if (!found) {
      first = static_cast<NodeId>(v);
      found = true;
    }
  });
  EXPECT_TRUE(found);
  return first;
}

/// A seeded all-overrun plan: every node misbehaves, the structural
/// deadlock of Fig. 1(c) is still forced, and the whole run replays from
/// the seed.
FaultPlan overrun_plan(const DagTask& task, std::uint64_t seed) {
  FaultPlanParams params;
  params.p_overrun = 1.0;
  params.max_overrun_factor = 2.0;
  return make_random_fault_plan(task, params, seed);
}

// ---------------------------------------------------------------------------
// Stall detection + Lemma 2 witness cross-check (the acceptance criterion).

TEST(GuardTest, Fig1cStallReportMatchesLemma2WitnessUnderReportPolicy) {
  const DagTask task = fig1c_task();
  const auto witness = analysis::find_wait_for_cycle(task, 2);
  ASSERT_TRUE(witness.has_value());

  ThreadPool pool(2);
  GraphExecutor exec(pool, task);
  ExecOptions options;
  options.microseconds_per_unit = 100.0;
  options.faults = overrun_plan(task, 42);
  const ExecReport report = exec.run_blocking(options);

  EXPECT_FALSE(report.completed);
  ASSERT_TRUE(report.stall.has_value());
  const StallReport& stall = *report.stall;
  EXPECT_FALSE(stall.budget_exhausted);  // quiescence proof, not a timeout
  EXPECT_EQ(stall.policy, RecoveryPolicy::kReport);
  EXPECT_EQ(stall.pool_workers, 2u);
  EXPECT_EQ(stall.blocked_workers, 2u);
  // The runtime wait-for cycle is exactly the static Lemma 2 witness.
  EXPECT_EQ(as_set(stall.wait_cycle), as_set(witness->forks));
  // Both suspended forks are diagnosed with their unfinished region sizes.
  ASSERT_EQ(stall.blocked.size(), 2u);
  for (const BlockedForkInfo& b : stall.blocked) {
    EXPECT_TRUE(b.worker.has_value());
    EXPECT_GT(b.remaining, 0u);
  }
  // The regions' children sit in the queue with every worker suspended.
  EXPECT_FALSE(stall.starved.empty());
  EXPECT_NE(stall.describe().find("wait-for cycle"), std::string::npos);
}

TEST(GuardTest, Fig1cEmergencyWorkerRescuesAndKeepsWitness) {
  const DagTask task = fig1c_task();
  const auto witness = analysis::find_wait_for_cycle(task, 2);
  ASSERT_TRUE(witness.has_value());

  ThreadPool pool(2);
  GraphExecutor exec(pool, task);
  ExecOptions options;
  options.microseconds_per_unit = 100.0;
  options.recovery = RecoveryPolicy::kEmergencyWorker;
  options.faults = overrun_plan(task, 42);
  const ExecReport report = exec.run_blocking(options);

  // The injected worker breaks the cycle: the run COMPLETES, yet the stall
  // diagnosis from the moment of detection is preserved.
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.nodes_executed, task.node_count());
  EXPECT_GE(report.emergency_workers, 1u);
  EXPECT_GE(pool.emergency_worker_count(), 1u);
  ASSERT_TRUE(report.stall.has_value());
  EXPECT_EQ(as_set(report.stall->wait_cycle), as_set(witness->forks));
  EXPECT_GE(report.stall->emergency_workers_injected, 1u);
  // b̄(τ) = 2 was genuinely exceeded: the pool ran with more than m threads.
  EXPECT_FALSE(report.ok());  // degraded, not clean
}

TEST(GuardTest, FailFastPolicyThrowsStallError) {
  const DagTask task = fig1c_task();
  ThreadPool pool(2);
  GraphExecutor exec(pool, task);
  ExecOptions options;
  options.recovery = RecoveryPolicy::kFailFast;
  try {
    exec.run_blocking(options);
    FAIL() << "expected StallError";
  } catch (const StallError& e) {
    EXPECT_FALSE(e.report().wait_cycle.empty());
    EXPECT_NE(std::string(e.what()).find("suspended"), std::string::npos);
  }
  // The pool survives fail-fast cancellation.
  std::atomic<bool> ran{false};
  std::mutex mu;
  std::condition_variable cv;
  pool.submit([&] {
    std::lock_guard lock(mu);
    ran = true;
    cv.notify_all();
  });
  std::unique_lock lock(mu);
  EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return ran.load(); }));
}

TEST(GuardTest, PartitionedStarvationDiagnosedAsSelfCycle) {
  // All nodes of Fig. 1(a) on worker 0: the children starve behind their
  // own suspended fork — the Lemma 3 hazard, a 1-cycle in the wait-for
  // graph, with a free worker idling next to it.
  const DagTask task = fig1_task();
  ThreadPool pool(2, ThreadPool::QueueMode::kPerWorker);
  ExecOptions options;
  options.assignment = analysis::NodeAssignment{
      std::vector<analysis::ThreadId>(task.node_count(), 0)};
  GraphExecutor exec(pool, task);
  const ExecReport report = exec.run_blocking(options);

  EXPECT_FALSE(report.completed);
  ASSERT_TRUE(report.stall.has_value());
  const StallReport& stall = *report.stall;
  EXPECT_FALSE(stall.budget_exhausted);
  const NodeId fork = task.blocking_regions()[0].fork;
  EXPECT_EQ(stall.wait_cycle, std::vector<NodeId>{fork});
  // The starved children are named, with the queue they are stuck in.
  EXPECT_FALSE(stall.starved.empty());
  for (const StarvedNodeInfo& s : stall.starved) {
    ASSERT_TRUE(s.queued_on.has_value());
    EXPECT_EQ(*s.queued_on, 0u);
  }
}

TEST(GuardTest, PartitionedStarvationRescuedByEmergencyWorker) {
  const DagTask task = fig1_task();
  ThreadPool pool(2, ThreadPool::QueueMode::kPerWorker);
  ExecOptions options;
  options.assignment = analysis::NodeAssignment{
      std::vector<analysis::ThreadId>(task.node_count(), 0)};
  options.recovery = RecoveryPolicy::kEmergencyWorker;
  GraphExecutor exec(pool, task);
  const ExecReport report = exec.run_blocking(options);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.nodes_executed, task.node_count());
  EXPECT_GE(report.emergency_workers, 1u);
}

// ---------------------------------------------------------------------------
// Watchdog semantics (satellite): progress keeps a slow run alive.

TEST(GuardTest, CompletionNearBudgetIsNotReportedAsStall) {
  // Critical path 5 units * 20 ms/unit = 100 ms wall-clock against an 80 ms
  // budget: the run outlives the budget but every node completion counts as
  // progress, so the watchdog never fires.
  const DagTask task = fig1_task();
  ThreadPool pool(2);
  GraphExecutor exec(pool, task);
  ExecOptions options;
  options.microseconds_per_unit = 20000.0;
  options.watchdog = std::chrono::milliseconds(80);
  const ExecReport report = exec.run_blocking(options);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.stall.has_value());
  EXPECT_GE(report.elapsed.count(), 80000);  // it really ran past the budget
}

TEST(GuardTest, MaxBlockedWorkersEqualsAnalyticalBoundOnFig1c) {
  // ExecReport.max_blocked_workers must reach exactly b̄(τ) on the Fig. 1(c)
  // demo graph: both forks suspend, nothing else can.
  const DagTask task = fig1c_task();
  const std::size_t bbar = analysis::max_affecting_forks(task);
  ASSERT_EQ(bbar, 2u);
  ThreadPool pool(2);
  GraphExecutor exec(pool, task);
  const ExecReport report = exec.run_blocking(ExecOptions{});
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.max_blocked_workers, bbar);
}

TEST(GuardTest, LongStallGetsBudgetVerdictNotDeadlockClaim) {
  // A node stalls for 400 ms against a 100 ms budget: the pool is never
  // quiescent (the stalled worker counts as running), so the verdict is
  // budget exhaustion — with NO wait-for cycle claimed.
  const DagTask task = fig1_task();
  ThreadPool pool(2);
  GraphExecutor exec(pool, task);
  ExecOptions options;
  options.watchdog = std::chrono::milliseconds(100);
  NodeFault stall;
  stall.kind = FaultKind::kStall;
  stall.stall = std::chrono::milliseconds(400);
  options.faults.set(first_member(task.blocking_regions()[0]), stall);
  const ExecReport report = exec.run_blocking(options);
  EXPECT_FALSE(report.completed);
  ASSERT_TRUE(report.stall.has_value());
  EXPECT_TRUE(report.stall->budget_exhausted);
  EXPECT_TRUE(report.stall->wait_cycle.empty());
}

TEST(GuardTest, ShortStallFaultWithinBudgetCompletesCleanly) {
  const DagTask task = fig1_task();
  ThreadPool pool(2);
  GraphExecutor exec(pool, task);
  ExecOptions options;
  NodeFault stall;
  stall.kind = FaultKind::kStall;
  stall.stall = std::chrono::milliseconds(20);
  options.faults.set(first_member(task.blocking_regions()[0]), stall);
  const ExecReport report = exec.run_blocking(options);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.stall.has_value());
  EXPECT_TRUE(report.ok());
}

// ---------------------------------------------------------------------------
// Exception-safe execution.

TEST(GuardTest, ThrowingNodeBodyDegradesToFailedRun) {
  const DagTask task = fig1_task();
  ThreadPool pool(2);
  GraphExecutor exec(pool, task);
  const NodeId victim = task.blocking_regions()[0].fork;
  const ExecReport report =
      exec.run_blocking(ExecOptions{}, [&](NodeId v) {
        if (v == victim) throw std::runtime_error("body exploded");
      });
  // The run still completes: the failing fork releases its region, every
  // barrier opens, and the failure is recorded instead of terminating.
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.nodes_executed, task.node_count());
  ASSERT_EQ(report.failed_nodes.size(), 1u);
  EXPECT_EQ(report.failed_nodes[0], victim);
  EXPECT_EQ(report.first_error, "body exploded");
  EXPECT_FALSE(report.ok());
}

TEST(GuardTest, InjectedThrowFaultsRecordedInNonBlockingRun) {
  const DagTask task = fig1c_task();
  FaultPlanParams params;
  params.p_throw = 1.0;  // every node throws
  ThreadPool pool(2);
  GraphExecutor exec(pool, task);
  ExecOptions options;
  options.faults = make_random_fault_plan(task, params, 7);
  const ExecReport report = exec.run_non_blocking(options);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.failed_nodes.size(), task.node_count());
  EXPECT_NE(report.first_error.find("injected fault"), std::string::npos);
  EXPECT_NE(report.first_error.find("seed 7"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Lost wakeups (drop-notify faults) are healed, not misreported.

TEST(GuardTest, DroppedNotifyHealedByGuard) {
  const DagTask task = fig1_task();
  ThreadPool pool(2);
  GraphExecutor exec(pool, task);
  ExecOptions options;
  NodeFault drop;
  drop.kind = FaultKind::kDropNotify;
  options.faults.set(task.blocking_regions()[0].join, drop);
  // Hold the BC bodies until the fork's worker is asleep on the barrier, so
  // the dropped notify is a lost wakeup rather than one nobody waited for.
  const ExecReport report = exec.run_blocking(options, [&](NodeId v) {
    if (task.type(v) != NodeType::BC) return;
    while (pool.blocked_workers() == 0) std::this_thread::yield();
  });
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.nodes_executed, task.node_count());
  EXPECT_GE(report.lost_wakeups_recovered, 1u);
  EXPECT_FALSE(report.stall.has_value());
}

// ---------------------------------------------------------------------------
// Lethal faults: dead-worker detection, requeue, respawn, degradation.

TEST(GuardTest, WorkerDeathDetectedRequeuedAndRespawned) {
  const DagTask task = fig1_task();
  ThreadPool pool(2);  // b̄(fig1) + 1: the size the analysis admits
  GraphExecutor exec(pool, task);
  ExecOptions options;
  options.watchdog = std::chrono::milliseconds(5000);
  options.worker_liveness = std::chrono::milliseconds(100);
  options.respawn_backoff = std::chrono::milliseconds(5);
  NodeFault death;
  death.kind = FaultKind::kWorkerDeath;
  const NodeId victim = first_member(task.blocking_regions()[0]);
  options.faults.set(victim, death);

  std::vector<std::atomic<int>> runs(task.node_count());
  const ExecReport report =
      exec.run_blocking(options, [&](NodeId v) { ++runs[v]; });

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.nodes_executed, task.node_count());
  EXPECT_FALSE(report.stall.has_value());
  ASSERT_EQ(report.worker_recoveries.size(), 1u);
  EXPECT_TRUE(report.worker_recoveries[0].crashed);
  EXPECT_TRUE(report.worker_recoveries[0].respawned);
  EXPECT_EQ(report.workers_respawned, 1u);
  EXPECT_FALSE(report.degraded.has_value());
  EXPECT_EQ(pool.worker_deaths(), 1u);
  EXPECT_EQ(pool.worker_count(), 2u);  // replacement restored the size
  // The kill fires BEFORE the body (transactional pop): despite the retry,
  // every node body ran exactly once — nothing lost, nothing duplicated.
  for (NodeId v = 0; v < task.node_count(); ++v)
    EXPECT_EQ(runs[v].load(), 1) << "node " << v;
}

TEST(GuardTest, HungWorkerGetsLivenessVerdictNotDeadlockReport) {
  // Satellite acceptance: a wedged worker must surface as a WorkerRecovery
  // (liveness failure, crashed=false) and the run must COMPLETE — never as
  // a spurious StallReport claiming a Lemma 2 deadlock that isn't there.
  const DagTask task = fig1_task();
  ThreadPool pool(2);
  GraphExecutor exec(pool, task);
  ExecOptions options;
  options.watchdog = std::chrono::milliseconds(8000);
  options.worker_liveness = std::chrono::milliseconds(100);
  options.respawn_backoff = std::chrono::milliseconds(5);
  NodeFault hang;
  hang.kind = FaultKind::kWorkerHang;
  const NodeId victim = first_member(task.blocking_regions()[0]);
  options.faults.set(victim, hang);

  std::vector<std::atomic<int>> runs(task.node_count());
  const ExecReport report =
      exec.run_blocking(options, [&](NodeId v) { ++runs[v]; });

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.nodes_executed, task.node_count());
  EXPECT_FALSE(report.stall.has_value())
      << "hang misdiagnosed as a deadlock: " << report.stall->describe();
  ASSERT_GE(report.worker_recoveries.size(), 1u);
  for (const WorkerRecovery& rec : report.worker_recoveries) {
    EXPECT_FALSE(rec.crashed);  // hung, detected via the stale heartbeat
    EXPECT_TRUE(rec.respawned);
  }
  EXPECT_EQ(pool.parked_workers(), 1u);
  for (NodeId v = 0; v < task.node_count(); ++v)
    EXPECT_EQ(runs[v].load(), 1) << "node " << v;
}

TEST(GuardTest, RespawnBudgetExhaustedYieldsDegradedReport) {
  // No respawn budget at all: losing a worker leaves the pool below the
  // size the analysis admitted. The guard must say so loudly (a
  // DegradedReport), never silently absorb the loss.
  const DagTask task = fig1_task();
  ThreadPool pool(2);
  GraphExecutor exec(pool, task);
  ExecOptions options;
  options.watchdog = std::chrono::milliseconds(1500);
  options.worker_liveness = std::chrono::milliseconds(100);
  options.max_worker_respawns = 0;
  NodeFault death;
  death.kind = FaultKind::kWorkerDeath;
  options.faults.set(first_member(task.blocking_regions()[0]), death);
  const ExecReport report = exec.run_blocking(options);

  ASSERT_TRUE(report.degraded.has_value());
  EXPECT_GE(report.degraded->workers_lost, 1u);
  EXPECT_EQ(report.degraded->respawns_used, 0u);
  EXPECT_EQ(report.workers_respawned, 0u);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.degraded->describe().find("below the size"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault plans are deterministic in the seed.

TEST(FaultPlanTest, SameSeedSamePlan) {
  const DagTask task = fig1c_task();
  FaultPlanParams params;
  params.p_overrun = 0.4;
  params.p_stall = 0.2;
  params.p_throw = 0.2;
  params.p_drop_notify = 0.5;
  const FaultPlan a = make_random_fault_plan(task, params, 123);
  const FaultPlan b = make_random_fault_plan(task, params, 123);
  ASSERT_EQ(a.faults().size(), b.faults().size());
  for (NodeId v = 0; v < task.node_count(); ++v) {
    const NodeFault* fa = a.find(v);
    const NodeFault* fb = b.find(v);
    ASSERT_EQ(fa == nullptr, fb == nullptr) << "node " << v;
    if (fa == nullptr) continue;
    EXPECT_EQ(fa->kind, fb->kind);
    EXPECT_EQ(fa->overrun_factor, fb->overrun_factor);
    EXPECT_EQ(fa->stall, fb->stall);
  }
}

TEST(FaultPlanTest, DropNotifyOnlyTargetsJoins) {
  const DagTask task = fig1c_task();
  FaultPlanParams params;
  params.p_drop_notify = 1.0;
  const FaultPlan plan = make_random_fault_plan(task, params, 5);
  EXPECT_EQ(plan.count(FaultKind::kDropNotify), task.blocking_regions().size());
  for (const auto& [v, f] : plan.faults()) {
    if (f.kind == FaultKind::kDropNotify) {
      EXPECT_EQ(task.type(v), model::NodeType::BJ);
    }
  }
}

TEST(FaultPlanTest, DescribeAndAccessors) {
  FaultPlan plan(9);
  EXPECT_TRUE(plan.empty());
  EXPECT_NE(describe(plan).find("clean"), std::string::npos);
  NodeFault f;
  f.kind = FaultKind::kThrow;
  plan.set(3, f);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.count(FaultKind::kThrow), 1u);
  EXPECT_NE(describe(plan).find("node 3 throw"), std::string::npos);
  f.kind = FaultKind::kNone;  // setting kNone clears the entry
  plan.set(3, f);
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlanTest, LethalFaultsOnlyTargetComputeNodes) {
  // worker_death / worker_hang fire at node start on a pool worker: only
  // NB and BC nodes are eligible (forks/joins run barrier machinery whose
  // loss the simulation does not model).
  const DagTask task = fig1c_task();
  FaultPlanParams params;
  params.p_worker_death = 1.0;
  const FaultPlan deaths = make_random_fault_plan(task, params, 11);
  EXPECT_GT(deaths.count(FaultKind::kWorkerDeath), 0u);
  params.p_worker_death = 0.0;
  params.p_worker_hang = 1.0;
  const FaultPlan hangs = make_random_fault_plan(task, params, 11);
  EXPECT_GT(hangs.count(FaultKind::kWorkerHang), 0u);
  for (const FaultPlan* plan : {&deaths, &hangs})
    for (const auto& [v, f] : plan->faults())
      EXPECT_TRUE(task.type(v) == model::NodeType::NB ||
                  task.type(v) == model::NodeType::BC)
          << "node " << v;
}

TEST(FaultPlanTest, ForkWithIsDrawOrderIndependent) {
  util::Rng a(42);
  (void)a.uniform(0.0, 1.0);  // advance the parent stream
  (void)a.uniform_int(0, 99);
  const util::Rng b(42);
  // fork_with depends only on (seed, salt), not on draws in between.
  EXPECT_EQ(a.fork_with(7).uniform_int(0, 1 << 30),
            b.fork_with(7).uniform_int(0, 1 << 30));
  EXPECT_NE(util::Rng(42).fork_with(7).uniform_int(0, 1 << 30),
            util::Rng(43).fork_with(7).uniform_int(0, 1 << 30));
}

}  // namespace
}  // namespace rtpool::exec
