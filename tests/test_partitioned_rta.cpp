// Unit tests for the partitioned segment-based (SPLIT-style) RTA of
// Section 4.2.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/partition.h"
#include "analysis/partitioned_rta.h"
#include "analysis/rta_context.h"
#include "gen/taskset_generator.h"
#include "model/builder.h"

namespace rtpool::analysis {
namespace {

using model::DagTask;
using model::DagTaskBuilder;
using model::NodeId;
using model::TaskSet;

TEST(PartitionedRtaTest, ChainOnOneCore) {
  // src(1) -> a(2) -> b(3): all on core 0, no interference: R = 6.
  DagTaskBuilder b("chain");
  const NodeId n0 = b.add_node(1.0);
  const NodeId n1 = b.add_node(2.0);
  const NodeId n2 = b.add_node(3.0);
  b.add_edge(n0, n1);
  b.add_edge(n1, n2);
  b.period(50.0);
  TaskSet ts(1);
  ts.add(b.build());

  TaskSetPartition partition;
  partition.per_task.push_back({std::vector<ThreadId>(3, 0)});
  const auto result = analyze_partitioned(ts, partition);
  ASSERT_TRUE(result.schedulable);
  EXPECT_NEAR(result.per_task[0].response_time, 6.0, 1e-9);
}

TEST(PartitionedRtaTest, FifoBlockingOnSharedCore) {
  // Fork-join with 2 parallel children, everything on one core:
  // each child's segment includes the other child as FIFO blocking, so the
  // longest path degenerates to the full volume.
  TaskSet ts(1);
  ts.add(model::make_fork_join_task("t", 2, 1.0, 50.0, false));
  TaskSetPartition partition;
  partition.per_task.push_back(
      {std::vector<ThreadId>(ts.task(0).node_count(), 0)});
  const auto result = analyze_partitioned(ts, partition);
  ASSERT_TRUE(result.schedulable);
  // path: fork(1) + child(1 + 1 blocking) + join(1) = 4 = volume.
  EXPECT_NEAR(result.per_task[0].response_time, 4.0, 1e-9);
}

TEST(PartitionedRtaTest, ParallelChildrenOnSeparateCores) {
  TaskSet ts(2);
  ts.add(model::make_fork_join_task("t", 2, 1.0, 50.0, false));
  const DagTask& t = ts.task(0);
  // fork/join on core 0, children split across cores 0 and 1.
  std::vector<ThreadId> asg(t.node_count(), 0);
  // make_fork_join_task builds: fork=0, join=1, children=2,3.
  asg[3] = 1;
  TaskSetPartition partition;
  partition.per_task.push_back({asg});
  const auto result = analyze_partitioned(ts, partition);
  ASSERT_TRUE(result.schedulable);
  // No two concurrent nodes share a core: R = len = 3.
  EXPECT_NEAR(result.per_task[0].response_time, 3.0, 1e-9);
}

TEST(PartitionedRtaTest, HigherPriorityInterferencePerCore) {
  // hp: one node C=2 T=10 on core 0. lp: one node C=3 T=50 on core 0.
  // lp segment: x = 3 + ceil((x + J)/10)*2 with J = R_hp - W = 0.
  TaskSet ts(2);
  {
    DagTaskBuilder b("hp");
    b.add_node(2.0);
    b.period(10.0).priority(0);
    ts.add(b.build());
  }
  {
    DagTaskBuilder b("lp");
    b.add_node(3.0);
    b.period(50.0).priority(1);
    ts.add(b.build());
  }
  TaskSetPartition partition;
  partition.per_task.push_back({std::vector<ThreadId>{0}});
  partition.per_task.push_back({std::vector<ThreadId>{0}});
  const auto result = analyze_partitioned(ts, partition);
  ASSERT_TRUE(result.schedulable);
  EXPECT_NEAR(result.per_task[0].response_time, 2.0, 1e-9);
  EXPECT_NEAR(result.per_task[1].response_time, 5.0, 1e-9);

  // Same tasks on different cores: no interference at all.
  partition.per_task[1].thread_of[0] = 1;
  const auto isolated = analyze_partitioned(ts, partition);
  EXPECT_NEAR(isolated.per_task[1].response_time, 3.0, 1e-9);
}

TEST(PartitionedRtaTest, DeadlockGateControlsVerdict) {
  // A blocking region entirely on one thread: Eq. (3) is violated.
  DagTaskBuilder b("region");
  const NodeId pre = b.add_node(1.0);
  const auto fj = b.add_blocking_fork_join(1.0, 1.0, {1.0, 1.0});
  b.add_edge(pre, fj.fork);
  b.period(100.0);
  TaskSet ts(2);
  ts.add(b.build());

  TaskSetPartition partition;
  partition.per_task.push_back(
      {std::vector<ThreadId>(ts.task(0).node_count(), 0)});

  PartitionedRtaOptions strict;
  strict.require_deadlock_free = true;
  const auto gated = analyze_partitioned(ts, partition, strict);
  EXPECT_FALSE(gated.schedulable);
  EXPECT_FALSE(gated.per_task[0].deadlock_free);

  PartitionedRtaOptions oblivious;
  oblivious.require_deadlock_free = false;
  const auto open = analyze_partitioned(ts, partition, oblivious);
  EXPECT_TRUE(open.schedulable);  // the unsafe baseline verdict
  EXPECT_FALSE(open.per_task[0].deadlock_free);
}

TEST(PartitionedRtaTest, OverloadedCoreDiverges) {
  TaskSet ts(1);
  {
    DagTaskBuilder b("hp");
    b.add_node(10.0);
    b.period(10.0).priority(0);
    ts.add(b.build());
  }
  {
    DagTaskBuilder b("lp");
    b.add_node(1.0);
    b.period(100.0).priority(1);
    ts.add(b.build());
  }
  TaskSetPartition partition;
  partition.per_task.push_back({std::vector<ThreadId>{0}});
  partition.per_task.push_back({std::vector<ThreadId>{0}});
  const auto result = analyze_partitioned(ts, partition);
  EXPECT_FALSE(result.schedulable);
  EXPECT_TRUE(result.per_task[0].schedulable);
  EXPECT_FALSE(result.per_task[1].schedulable);
}

TEST(PartitionedRtaTest, InputValidation) {
  TaskSet ts(2);
  ts.add(model::make_fork_join_task("t", 2, 1.0, 50.0, false));
  TaskSetPartition empty;
  EXPECT_THROW(analyze_partitioned(ts, empty), model::ModelError);

  TaskSetPartition short_assignment;
  short_assignment.per_task.push_back({std::vector<ThreadId>{0}});
  EXPECT_THROW(analyze_partitioned(ts, short_assignment), model::ModelError);

  // Thread ids beyond the core count are rejected up front (the hot loops
  // index raw vectors afterwards).
  TaskSetPartition out_of_range;
  out_of_range.per_task.push_back(
      {std::vector<ThreadId>(ts.task(0).node_count(), 2)});  // m = 2 -> max 1
  EXPECT_THROW(analyze_partitioned(ts, out_of_range), model::ModelError);
}

TEST(PartitionedRtaTest, PublicKernelsMatchHandComputedValues) {
  // Fork-join (fork=0, join=1, children=2,3, all C=1), children on core 1,
  // fork/join on core 0, m = 2.
  TaskSet ts(2);
  ts.add(model::make_fork_join_task("t", 2, 1.0, 50.0, false));
  NodeAssignment a;
  a.thread_of = {0, 0, 1, 1};

  RtaContext ctx(ts);
  ctx.bind_partition(TaskSetPartition{{a}});
  const auto w = ctx.core_workload(0);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_NEAR(w[0], 2.0, 1e-12);  // fork + join
  EXPECT_NEAR(w[1], 2.0, 1e-12);  // both children

  const auto b = fifo_blocking_vector(ts.task(0), a);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_NEAR(b[0], 0.0, 1e-12);  // fork: ordered with everything
  EXPECT_NEAR(b[1], 0.0, 1e-12);  // join: ordered with everything
  EXPECT_NEAR(b[2], 1.0, 1e-12);  // child blocked by its sibling
  EXPECT_NEAR(b[3], 1.0, 1e-12);

  // Siblings on different cores never block each other.
  a.thread_of = {0, 0, 0, 1};
  const auto b2 = fifo_blocking_vector(ts.task(0), a);
  EXPECT_NEAR(b2[2], 0.0, 1e-12);
  EXPECT_NEAR(b2[3], 0.0, 1e-12);

  a.thread_of = {0, 0, 0, 2};  // m = 2 -> max thread id 1
  EXPECT_THROW(ctx.bind_partition(TaskSetPartition{{a}}), model::ModelError);
  NodeAssignment bad;
  bad.thread_of = {0};
  EXPECT_THROW(fifo_blocking_vector(ts.task(0), bad), model::ModelError);
}

TEST(PartitionedRtaTest, HolisticBoundNoHpMatchesSplitBase) {
  // Without higher-priority tasks both bounds reduce to the same
  // B_v-weighted longest path.
  TaskSet ts(1);
  ts.add(model::make_fork_join_task("t", 2, 1.0, 50.0, false));
  TaskSetPartition partition;
  partition.per_task.push_back(
      {std::vector<ThreadId>(ts.task(0).node_count(), 0)});

  PartitionedRtaOptions split;
  PartitionedRtaOptions holistic;
  holistic.bound = PartitionedBound::kHolisticPath;
  const auto a = analyze_partitioned(ts, partition, split);
  const auto b = analyze_partitioned(ts, partition, holistic);
  EXPECT_NEAR(a.per_task[0].response_time, b.per_task[0].response_time, 1e-9);
}

TEST(PartitionedRtaTest, HolisticChargesInterferenceOncePerCore) {
  // lp is a 3-node chain on core 0; hp has one node (C=2, T=10) there.
  // Split charges the hp task once per segment (3x); holistic once.
  TaskSet ts(1);
  {
    DagTaskBuilder b("hp");
    b.add_node(2.0);
    b.period(10.0).priority(0);
    ts.add(b.build());
  }
  {
    DagTaskBuilder b("lp");
    const NodeId n0 = b.add_node(1.0);
    const NodeId n1 = b.add_node(1.0);
    const NodeId n2 = b.add_node(1.0);
    b.add_edge(n0, n1);
    b.add_edge(n1, n2);
    b.period(40.0).priority(1);
    ts.add(b.build());
  }
  TaskSetPartition partition;
  partition.per_task.push_back({std::vector<ThreadId>{0}});
  partition.per_task.push_back({std::vector<ThreadId>(3, 0)});

  PartitionedRtaOptions split;
  const auto a = analyze_partitioned(ts, partition, split);
  // Each segment: x = 1 + ceil(x/10)*2 -> 3; path = 9.
  EXPECT_NEAR(a.per_task[1].response_time, 9.0, 1e-9);

  PartitionedRtaOptions holistic;
  holistic.bound = PartitionedBound::kHolisticPath;
  const auto b = analyze_partitioned(ts, partition, holistic);
  // R = 3 + ceil(R/10)*2 -> 5.
  EXPECT_NEAR(b.per_task[1].response_time, 5.0, 1e-9);
}

TEST(PartitionedRtaTest, HolisticCountsOnlyUsedCores) {
  // hp runs on cores 0 and 1, lp only on core 0: the holistic bound must
  // charge hp's core-0 footprint only (cores the task never uses are free).
  TaskSet ts(2);
  {
    DagTaskBuilder b("hp");
    const NodeId f = b.add_node(2.0);
    const NodeId j = b.add_node(2.0);
    const NodeId c = b.add_node(2.0);
    b.add_edge(f, c);
    b.add_edge(c, j);
    b.period(100.0).priority(0);
    ts.add(b.build());
  }
  {
    DagTaskBuilder b("lp");
    b.add_node(1.0);
    b.period(50.0).priority(1);
    ts.add(b.build());
  }
  TaskSetPartition partition;
  partition.per_task.push_back({std::vector<ThreadId>{0, 1, 0}});  // hp on 0+1
  partition.per_task.push_back({std::vector<ThreadId>{0}});        // lp on 0

  PartitionedRtaOptions split;
  const auto a = analyze_partitioned(ts, partition, split);
  // lp only sees hp's core-0 workload (4): R = 1 + 4 = 5.
  EXPECT_NEAR(a.per_task[1].response_time, 5.0, 1e-9);

  PartitionedRtaOptions holistic;
  holistic.bound = PartitionedBound::kHolisticPath;
  const auto b = analyze_partitioned(ts, partition, holistic);
  EXPECT_NEAR(b.per_task[1].response_time, 5.0, 1e-9);  // lp uses core 0 only
}

/// Property sweep: Algorithm 1 partitions are always deadlock-free per the
/// RTA's own gate, and response bounds dominate the critical path length.
class PartitionedRtaPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionedRtaPropertyTest, BoundsAreSane) {
  util::Rng rng(GetParam());
  gen::TaskSetParams params;
  params.cores = 8;
  params.task_count = 4;
  params.total_utilization = 2.0;
  const TaskSet ts = gen::generate_task_set(params, rng);

  const auto alg1 = partition_algorithm1(ts);
  if (!alg1.success()) return;
  const auto result = analyze_partitioned(ts, *alg1.partition);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_TRUE(result.per_task[i].deadlock_free ||
                !result.per_task[i].schedulable)
        << "seed=" << GetParam();
    const double r = result.per_task[i].response_time;
    if (std::isfinite(r)) {
      EXPECT_GE(r + 1e-9, ts.task(i).critical_path_length())
          << "seed=" << GetParam() << " task=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionedRtaPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace rtpool::analysis
