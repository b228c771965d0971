// Unit tests for the deadlock-freedom conditions of Section 3
// (Lemmas 1-3 applied through the l̄ lower bound and Eq. (3)).
#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/deadlock.h"
#include "model/builder.h"

namespace rtpool::analysis {
namespace {

using model::DagTask;
using model::DagTaskBuilder;
using model::NodeId;

DagTask one_region_task() {
  DagTaskBuilder b("one");
  const NodeId pre = b.add_node(1.0);
  const auto fj = b.add_blocking_fork_join(2.0, 3.0, {4.0, 5.0});
  b.add_edge(pre, fj.fork);
  b.period(100.0);
  return b.build();
}

struct TwoRegions {
  DagTask task;
  NodeId f1, c1a, c1b, j1;
  NodeId f2, c2a, c2b, j2;
};

TwoRegions two_region_task() {
  DagTaskBuilder b("two");
  const NodeId src = b.add_node(1.0);
  const auto r1 = b.add_blocking_fork_join(1.0, 1.0, {2.0, 2.0});
  const auto r2 = b.add_blocking_fork_join(1.0, 1.0, {2.0, 2.0});
  const NodeId snk = b.add_node(1.0);
  b.add_edge(src, r1.fork);
  b.add_edge(src, r2.fork);
  b.add_edge(r1.join, snk);
  b.add_edge(r2.join, snk);
  b.period(100.0);
  return {b.build(), r1.fork, r1.children[0], r1.children[1], r1.join,
          r2.fork, r2.children[0], r2.children[1], r2.join};
}

TEST(GlobalDeadlockTest, NoBlockingForksAlwaysFree) {
  const DagTask t = model::make_fork_join_task("plain", 3, 1.0, 50.0, false);
  const auto check = check_deadlock_free_global(t, 1);
  EXPECT_TRUE(check.deadlock_free);
  EXPECT_EQ(check.max_forks, 0u);
  EXPECT_EQ(check.concurrency_bound, 1);
}

TEST(GlobalDeadlockTest, OneRegionNeedsTwoThreads) {
  const DagTask t = one_region_task();
  EXPECT_FALSE(check_deadlock_free_global(t, 1).deadlock_free);
  EXPECT_TRUE(check_deadlock_free_global(t, 2).deadlock_free);
  const auto c = check_deadlock_free_global(t, 1);
  EXPECT_EQ(c.concurrency_bound, 0);
  EXPECT_FALSE(c.witness.empty());
}

TEST(GlobalDeadlockTest, TwoConcurrentRegionsNeedThreeThreads) {
  const auto r = two_region_task();
  EXPECT_FALSE(check_deadlock_free_global(r.task, 2).deadlock_free);
  EXPECT_TRUE(check_deadlock_free_global(r.task, 3).deadlock_free);
}

TEST(Eq3Test, DetectsOwnForkColocation) {
  const DagTask t = one_region_task();
  // Everything on thread 0: the BC children share the thread of their fork.
  NodeAssignment all_zero{std::vector<ThreadId>(t.node_count(), 0)};
  const auto violation = find_eq3_violation(t, all_zero);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(t.type(violation->bc_node), model::NodeType::BC);
  EXPECT_EQ(t.type(violation->fork), model::NodeType::BF);
  EXPECT_EQ(violation->thread, 0u);
}

TEST(Eq3Test, AcceptsSegregatedAssignment) {
  const DagTask t = one_region_task();
  // Fork+join on thread 0, everything else on thread 1.
  NodeAssignment asg{std::vector<ThreadId>(t.node_count(), 1)};
  const auto& region = t.blocking_regions()[0];
  asg.thread_of[region.fork] = 0;
  asg.thread_of[region.join] = 0;
  EXPECT_FALSE(find_eq3_violation(t, asg).has_value());
}

TEST(Eq3Test, DetectsConcurrentForkColocation) {
  const auto r = two_region_task();
  const DagTask& t = r.task;
  // Region-1 members share a thread with the *other* region's fork f2.
  NodeAssignment asg{std::vector<ThreadId>(t.node_count(), 0)};
  asg.thread_of[r.f1] = 1;
  asg.thread_of[r.j1] = 1;
  asg.thread_of[r.f2] = 2;
  asg.thread_of[r.j2] = 2;
  asg.thread_of[r.c1a] = 2;  // shares thread 2 with f2: Eq. (3) violated
  asg.thread_of[r.c1b] = 0;
  asg.thread_of[r.c2a] = 0;
  asg.thread_of[r.c2b] = 0;
  const auto violation = find_eq3_violation(t, asg);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->bc_node, r.c1a);
  EXPECT_EQ(violation->fork, r.f2);
}

TEST(Eq3Test, SizeMismatchThrows) {
  const DagTask t = one_region_task();
  NodeAssignment bad{std::vector<ThreadId>(2, 0)};
  EXPECT_THROW(find_eq3_violation(t, bad), std::invalid_argument);
}

TEST(PartitionedDeadlockTest, RequiresBothConditions) {
  const auto r = two_region_task();
  const DagTask& t = r.task;

  // A good segregated assignment on 4 threads: f1@0, f2@1, the rest @2/@3.
  NodeAssignment good{std::vector<ThreadId>(t.node_count(), 2)};
  good.thread_of[r.f1] = 0;
  good.thread_of[r.j1] = 0;
  good.thread_of[r.f2] = 1;
  good.thread_of[r.j2] = 1;
  good.thread_of[r.c2a] = 3;
  good.thread_of[r.c2b] = 3;
  EXPECT_TRUE(check_deadlock_free_partitioned(t, 4, good).deadlock_free);

  // Same assignment but with only 2 pool threads claimed: l̄ = 0 breaks it
  // even though Eq. (3) holds (the lemma needs Eq. (1) excluded too).
  EXPECT_FALSE(check_deadlock_free_partitioned(t, 2, good).deadlock_free);

  // Enough threads but an Eq. (3) violation breaks it.
  NodeAssignment bad = good;
  bad.thread_of[r.c1a] = 1;  // member of region 1 on f2's thread
  const auto check = check_deadlock_free_partitioned(t, 4, bad);
  EXPECT_FALSE(check.deadlock_free);
  EXPECT_NE(check.witness.find("Eq. (3)"), std::string::npos);
}

TEST(WitnessTest, Lemma1BlockingChain) {
  const auto r = two_region_task();
  // b̄ = 2 (each BC sees the other region's fork plus its own): a 2-thread
  // pool can be exhausted, a 3-thread pool cannot.
  const auto witness = find_lemma1_witness(r.task, 2);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(witness->forks.size(), 2u);
  EXPECT_EQ(witness->pool_size, 2u);
  for (const NodeId f : witness->forks)
    EXPECT_EQ(r.task.type(f), model::NodeType::BF);  // X(v) holds forks only
  const std::string text = describe(*witness, r.task.name());
  EXPECT_NE(text.find("suspended BF node"), std::string::npos);
  EXPECT_FALSE(find_lemma1_witness(r.task, 3).has_value());
}

TEST(WitnessTest, WaitForCycleOnConcurrentRegions) {
  const auto r = two_region_task();
  const auto cycle = find_wait_for_cycle(r.task, 2);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->forks.size(), 2u);
  for (const NodeId f : cycle->forks)
    EXPECT_EQ(r.task.type(f), model::NodeType::BF);
  const std::string text = describe(*cycle, r.task.name());
  EXPECT_NE(text.find("wait-for cycle"), std::string::npos);
  EXPECT_NE(text.find("->"), std::string::npos);
  EXPECT_FALSE(find_wait_for_cycle(r.task, 3).has_value());
}

TEST(WitnessTest, WaitForCycleNeedsMutualConcurrency) {
  // Two *sequential* regions plus an NB branch spanning both: b̄ = 2 but
  // the forks are ordered, so no two of them can be suspended together.
  // Lemma 1 (chain) fires on m = 2, the Lemma 2 wait-for cycle does not.
  DagTaskBuilder b("strict");
  const NodeId src = b.add_node(1.0);
  const auto r1 = b.add_blocking_fork_join(1.0, 1.0, {1.0});
  const auto r2 = b.add_blocking_fork_join(1.0, 1.0, {1.0});
  const NodeId spanning = b.add_node(10.0);
  const NodeId snk = b.add_node(1.0);
  b.add_edge(src, r1.fork);
  b.add_edge(r1.join, r2.fork);
  b.add_edge(r2.join, snk);
  b.add_edge(src, spanning);
  b.add_edge(spanning, snk);
  b.period(100.0);
  const DagTask t = b.build();

  EXPECT_TRUE(find_lemma1_witness(t, 2).has_value());
  EXPECT_FALSE(find_wait_for_cycle(t, 2).has_value());
  const auto cycle = find_wait_for_cycle(t, 1);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->forks.size(), 1u);
}

TEST(WitnessTest, Eq3AllViolationsReported) {
  const DagTask t = one_region_task();
  NodeAssignment all_zero{std::vector<ThreadId>(t.node_count(), 0)};
  const auto all = find_eq3_violations(t, all_zero);
  EXPECT_EQ(all.size(), 2u);  // both BC children share the fork's thread
  for (const auto& v : all) {
    EXPECT_EQ(t.type(v.bc_node), model::NodeType::BC);
    EXPECT_EQ(v.thread, 0u);
  }
}

TEST(TaskSetDeadlockTest, AppliesPerTask) {
  // The global limited-concurrency analysis applies Lemma 1 to every task.
  const Analyzer& global = get_analyzer("global-limited");
  model::TaskSet ts(2);
  ts.add(one_region_task().with_priority(0));
  ts.add(model::make_fork_join_task("plain", 2, 1.0, 50.0, false).with_priority(1));
  const Report free = global.analyze(ts);
  ASSERT_EQ(free.per_task.size(), 2u);
  EXPECT_EQ(free.per_task[0].concurrency_bound, 1);
  EXPECT_EQ(free.per_task[1].concurrency_bound, 2);

  model::TaskSet tight(1);
  tight.add(one_region_task());
  const Report stalls = global.analyze(tight);
  EXPECT_EQ(stalls.per_task[0].concurrency_bound, 0);
  EXPECT_FALSE(stalls.schedulable);
}

TEST(TaskSetDeadlockTest, PartitionedWholeSet) {
  const auto r = two_region_task();
  model::TaskSet ts(4);
  ts.add(r.task);

  TaskSetPartition good;
  NodeAssignment asg{std::vector<ThreadId>(r.task.node_count(), 2)};
  asg.thread_of[r.f1] = 0;
  asg.thread_of[r.j1] = 0;
  asg.thread_of[r.f2] = 1;
  asg.thread_of[r.j2] = 1;
  asg.thread_of[r.c2a] = 3;
  asg.thread_of[r.c2b] = 3;
  good.per_task.push_back(asg);
  EXPECT_TRUE(task_set_deadlock_free_partitioned(ts, good));

  TaskSetPartition wrong_size;
  EXPECT_THROW(task_set_deadlock_free_partitioned(ts, wrong_size),
               std::invalid_argument);
}

}  // namespace
}  // namespace rtpool::analysis
