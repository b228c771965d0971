// Unit tests for src/model: node types, DagTask invariants and blocking
// regions, TaskSet, builder (incl. source/sink normalization).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "model/builder.h"
#include "model/dag_task.h"
#include "model/node.h"
#include "model/task_set.h"

namespace rtpool::model {
namespace {

// Figure 1(a): v0=NB source is implicit here; classic fork-join
//   f(BF) -> c1,c2,c3(BC) -> j(BJ)
DagTask fig1_task(util::Time period = 100.0) {
  DagTaskBuilder b("fig1");
  const NodeId pre = b.add_node(1.0, NodeType::NB);
  const auto fj = b.add_blocking_fork_join(2.0, 3.0, {4.0, 5.0, 6.0});
  const NodeId post = b.add_node(1.0, NodeType::NB);
  b.add_edge(pre, fj.fork);
  b.add_edge(fj.join, post);
  b.period(period);
  return b.build();
}

TEST(NodeTypeTest, RoundTrip) {
  for (NodeType t : {NodeType::NB, NodeType::BF, NodeType::BJ, NodeType::BC})
    EXPECT_EQ(node_type_from_string(to_string(t)), t);
  EXPECT_THROW(node_type_from_string("XX"), std::invalid_argument);
}

TEST(DagTaskTest, BasicProperties) {
  const DagTask t = fig1_task();
  EXPECT_EQ(t.node_count(), 7u);
  EXPECT_DOUBLE_EQ(t.volume(), 22.0);
  // Critical path: pre(1) f(2) c3(6) j(3) post(1) = 13
  EXPECT_DOUBLE_EQ(t.critical_path_length(), 13.0);
  EXPECT_DOUBLE_EQ(t.period(), 100.0);
  EXPECT_DOUBLE_EQ(t.deadline(), 100.0);
  EXPECT_DOUBLE_EQ(t.utilization(), 0.22);
  EXPECT_EQ(t.type(t.source()), NodeType::NB);
  EXPECT_EQ(t.type(t.sink()), NodeType::NB);
}

TEST(DagTaskTest, BlockingRegionStructure) {
  const DagTask t = fig1_task();
  ASSERT_EQ(t.blocking_regions().size(), 1u);
  const BlockingRegion& r = t.blocking_regions()[0];
  EXPECT_EQ(t.type(r.fork), NodeType::BF);
  EXPECT_EQ(t.type(r.join), NodeType::BJ);
  EXPECT_EQ(r.members.count(), 3u);
  EXPECT_EQ(t.join_of(r.fork), r.join);
  r.members.for_each([&](std::size_t v) {
    EXPECT_EQ(t.type(static_cast<NodeId>(v)), NodeType::BC);
    EXPECT_EQ(t.blocking_fork_of(static_cast<NodeId>(v)), r.fork);
    EXPECT_EQ(t.region_of(static_cast<NodeId>(v)), t.region_of(r.fork));
  });
  EXPECT_FALSE(t.region_of(t.source()).has_value());
  EXPECT_EQ(t.blocking_fork_count(), 1u);
}

TEST(DagTaskTest, TypedAccessorsThrowOnWrongType) {
  const DagTask t = fig1_task();
  EXPECT_THROW(t.join_of(t.source()), ModelError);
  EXPECT_THROW(t.blocking_fork_of(t.source()), ModelError);
}

TEST(DagTaskTest, RejectsCycle) {
  graph::Dag d(2);
  d.add_edge(0, 1);
  d.add_edge(1, 0);
  std::vector<Node> nodes{{1.0, NodeType::NB}, {1.0, NodeType::NB}};
  EXPECT_THROW(DagTask("bad", std::move(d), std::move(nodes), 10, 10), ModelError);
}

TEST(DagTaskTest, RejectsMultipleSources) {
  graph::Dag d(3);
  d.add_edge(0, 2);
  d.add_edge(1, 2);
  std::vector<Node> nodes(3, Node{1.0, NodeType::NB});
  EXPECT_THROW(DagTask("bad", std::move(d), std::move(nodes), 10, 10), ModelError);
}

TEST(DagTaskTest, RejectsDisconnected) {
  graph::Dag d(3);
  d.add_edge(0, 1);  // 2 isolated: also means 2 sources and 2 sinks
  std::vector<Node> nodes(3, Node{1.0, NodeType::NB});
  EXPECT_THROW(DagTask("bad", std::move(d), std::move(nodes), 10, 10), ModelError);
}

/// The ModelError text constructing task "bad" from `d` (all nodes NB)
/// raises: the checker's first defect.
std::string first_defect(const graph::Dag& d) {
  try {
    DagTask("bad", d, std::vector<Node>(d.size(), Node{1.0, NodeType::NB}), 10, 10);
  } catch (const ModelError& e) {
    return e.what();
  }
  return "";
}

TEST(DagTaskTest, DisconnectionIsReportedBeforeTheEndCounts) {
  // A 4-node chain without its last edge: nodes 0 and 3 are sources and
  // sinks alike, so the connectivity flood runs and its defect comes first.
  graph::Dag d(4);
  d.add_edge(0, 1);
  d.add_edge(1, 2);
  EXPECT_EQ(first_defect(d),
            "bad: graph is not weakly connected; nodes {3} are disconnected from node 0");
}

TEST(DagTaskTest, ConnectedGraphWithTwoSourcesReportsTheSourceCount) {
  graph::Dag d(3);
  d.add_edge(0, 2);
  d.add_edge(1, 2);
  EXPECT_EQ(first_defect(d), "bad: expected exactly one source node, found 2 {0, 1}");
}

TEST(DagTaskTest, RejectsBadTiming) {
  graph::Dag d(1);
  std::vector<Node> nodes{{1.0, NodeType::NB}};
  EXPECT_THROW(DagTask("bad", d, nodes, 0.0, 0.0), ModelError);
  EXPECT_THROW(DagTask("bad", d, nodes, 10.0, 20.0), ModelError);  // D > T
  EXPECT_THROW(DagTask("bad", d, nodes, 10.0, 0.0), ModelError);
  // Non-finite periods and deadlines: NaN fails every comparison and +inf
  // passes `> 0`, so each needs the finiteness check.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), kInf, -kInf}) {
    EXPECT_THROW(DagTask("bad", d, nodes, bad, 10.0), ModelError) << bad;
    EXPECT_THROW(DagTask("bad", d, nodes, 10.0, bad), ModelError) << bad;
    EXPECT_THROW(DagTask("bad", d, nodes, bad, bad), ModelError) << bad;
  }
}

TEST(DagTaskTest, RejectsNegativeOrAllZeroWcet) {
  graph::Dag d(2);
  d.add_edge(0, 1);
  std::vector<Node> neg{{-1.0, NodeType::NB}, {1.0, NodeType::NB}};
  EXPECT_THROW(DagTask("bad", d, neg, 10, 10), ModelError);
  std::vector<Node> zero{{0.0, NodeType::NB}, {0.0, NodeType::NB}};
  EXPECT_THROW(DagTask("bad", d, zero, 10, 10), ModelError);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), kInf, -kInf}) {
    std::vector<Node> non_finite{{1.0, NodeType::NB}, {bad, NodeType::NB}};
    try {
      DagTask("bad_task", d, non_finite, 10, 10);
      ADD_FAILURE() << "WCET " << bad << " accepted";
    } catch (const ModelError& e) {
      // The message names the task and the node.
      EXPECT_NE(std::string(e.what()).find("bad_task"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("node 1"), std::string::npos);
    }
  }
}

TEST(DagTaskTest, RejectsUnpairedFork) {
  // BF whose flood never reaches a BJ.
  graph::Dag d(3);
  d.add_edge(0, 1);
  d.add_edge(1, 2);
  std::vector<Node> nodes{{1, NodeType::BF}, {1, NodeType::BC}, {1, NodeType::NB}};
  EXPECT_THROW(DagTask("bad", std::move(d), std::move(nodes), 10, 10), ModelError);
}

TEST(DagTaskTest, RejectsOrphanJoinAndChild) {
  {
    graph::Dag d(2);
    d.add_edge(0, 1);
    std::vector<Node> nodes{{1, NodeType::NB}, {1, NodeType::BJ}};
    EXPECT_THROW(DagTask("bad", std::move(d), std::move(nodes), 10, 10), ModelError);
  }
  {
    graph::Dag d(2);
    d.add_edge(0, 1);
    std::vector<Node> nodes{{1, NodeType::NB}, {1, NodeType::BC}};
    EXPECT_THROW(DagTask("bad", std::move(d), std::move(nodes), 10, 10), ModelError);
  }
}

TEST(DagTaskTest, RejectsNestedBlockingRegions) {
  // BF -> BF ... not allowed (inner node of a region typed BF).
  DagTaskBuilder b("nested");
  const NodeId f1 = b.add_node(1, NodeType::BF);
  const NodeId f2 = b.add_node(1, NodeType::BF);
  const NodeId c = b.add_node(1, NodeType::BC);
  const NodeId j2 = b.add_node(1, NodeType::BJ);
  const NodeId j1 = b.add_node(1, NodeType::BJ);
  b.add_edge(f1, f2);
  b.add_edge(f2, c);
  b.add_edge(c, j2);
  b.add_edge(j2, j1);
  b.period(100);
  EXPECT_THROW(b.build(), ModelError);
}

TEST(DagTaskTest, RejectsNbInsideRegion) {
  graph::Dag d(3);
  d.add_edge(0, 1);
  d.add_edge(1, 2);
  std::vector<Node> nodes{{1, NodeType::BF}, {1, NodeType::NB}, {1, NodeType::BJ}};
  EXPECT_THROW(DagTask("bad", std::move(d), std::move(nodes), 10, 10), ModelError);
}

TEST(DagTaskTest, RejectsEdgeIntoRegionInterior) {
  // Restriction (i): an NB node outside feeds a BC member directly.
  DagTaskBuilder b("leak");
  const NodeId pre = b.add_node(1, NodeType::NB);
  const auto fj = b.add_blocking_fork_join(1, 1, {1, 1});
  const NodeId post = b.add_node(1, NodeType::NB);
  b.add_edge(pre, fj.fork);
  b.add_edge(fj.join, post);
  b.add_edge(pre, fj.children[0]);  // illegal crossing edge
  b.period(100);
  EXPECT_THROW(b.build(), ModelError);
}

TEST(DagTaskTest, RejectsEdgeOutOfRegionInterior) {
  // Restriction (i)/(ii): member feeds the outside directly.
  DagTaskBuilder b("leak2");
  const NodeId pre = b.add_node(1, NodeType::NB);
  const auto fj = b.add_blocking_fork_join(1, 1, {1, 1});
  const NodeId post = b.add_node(1, NodeType::NB);
  b.add_edge(pre, fj.fork);
  b.add_edge(fj.join, post);
  b.add_edge(fj.children[0], post);  // illegal crossing edge
  b.period(100);
  EXPECT_THROW(b.build(), ModelError);
}

TEST(DagTaskTest, AllowsDirectForkJoinEdge) {
  DagTaskBuilder b("direct");
  const auto fj = b.add_blocking_fork_join(1, 1, {2});
  b.add_edge(fj.fork, fj.join);  // extra direct edge: still inside the region
  b.period(100);
  const DagTask t = b.build();
  EXPECT_EQ(t.blocking_regions().size(), 1u);
}

TEST(DagTaskTest, WithPriority) {
  const DagTask t = fig1_task();
  const DagTask t2 = t.with_priority(5);
  EXPECT_EQ(t2.priority(), 5);
  EXPECT_EQ(t.priority(), 0);
  EXPECT_EQ(t2.node_count(), t.node_count());
}

TEST(BuilderTest, NormalizesMultipleSourcesAndSinks) {
  DagTaskBuilder b("multi");
  const NodeId a = b.add_node(1);
  const NodeId c = b.add_node(1);
  const NodeId d = b.add_node(1);
  const NodeId e = b.add_node(1);
  b.add_edge(a, d);
  b.add_edge(c, e);
  b.period(10);
  const DagTask t = b.build();
  // 4 original + dummy source + dummy sink
  EXPECT_EQ(t.node_count(), 6u);
  EXPECT_DOUBLE_EQ(t.wcet(t.source()), 0.0);
  EXPECT_DOUBLE_EQ(t.wcet(t.sink()), 0.0);
}

TEST(BuilderTest, DeadlineDefaultsToPeriod) {
  DagTaskBuilder b("t");
  b.add_node(1);
  b.period(42);
  EXPECT_DOUBLE_EQ(b.build().deadline(), 42.0);
}

TEST(BuilderTest, ForkJoinHelpers) {
  const DagTask blocking = make_fork_join_task("b", 3, 2.0, 100.0, true);
  EXPECT_EQ(blocking.blocking_regions().size(), 1u);
  EXPECT_EQ(blocking.node_count(), 5u);

  const DagTask plain = make_fork_join_task("p", 3, 2.0, 100.0, false);
  EXPECT_TRUE(plain.blocking_regions().empty());
  ASSERT_EQ(plain.node_count(), 5u);
  for (NodeId v = 0; v < plain.node_count(); ++v)
    EXPECT_EQ(plain.type(v), NodeType::NB);
}

TEST(BuilderTest, EmptyForkJoinThrows) {
  DagTaskBuilder b("t");
  EXPECT_THROW(b.add_blocking_fork_join(1, 1, {}), ModelError);
  EXPECT_THROW(b.add_fork_join(1, 1, {}), ModelError);
}

TEST(TaskSetTest, BasicAccounting) {
  TaskSet ts(4);
  ts.add(fig1_task(100.0).with_priority(1));
  ts.add(make_fork_join_task("other", 2, 5.0, 50.0, false).with_priority(0));
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.core_count(), 4u);
  // "other" has 4 nodes (fork, join, 2 children) of 5.0 each: U = 20/50.
  EXPECT_NEAR(ts.total_utilization(), 0.22 + 20.0 / 50.0, 1e-12);
  EXPECT_TRUE(ts.priorities_distinct());
  EXPECT_EQ(ts.priority_order(), (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(ts.higher_priority_of(0), (std::vector<std::size_t>{1}));
  EXPECT_TRUE(ts.higher_priority_of(1).empty());
}

TEST(TaskSetTest, RejectsZeroCoresAndDuplicateNames) {
  EXPECT_THROW(TaskSet(0), ModelError);
  TaskSet ts(2);
  ts.add(fig1_task());
  EXPECT_THROW(ts.add(fig1_task()), ModelError);
}

TEST(TaskSetTest, EqualPrioritiesTieBreakByIndex) {
  TaskSet ts(2);
  ts.add(fig1_task().with_priority(3));
  ts.add(make_fork_join_task("o", 2, 1.0, 50.0, false).with_priority(3));
  EXPECT_FALSE(ts.priorities_distinct());
  EXPECT_EQ(ts.priority_order(), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(ts.higher_priority_of(1), (std::vector<std::size_t>{0}));
  EXPECT_TRUE(ts.higher_priority_of(0).empty());
}

TEST(TaskSetTest, DeadlineMonotonic) {
  TaskSet ts(2);
  ts.add(make_fork_join_task("slow", 2, 10.0, 1000.0, false));
  ts.add(make_fork_join_task("fast", 2, 1.0, 10.0, false));
  ts.add(make_fork_join_task("mid", 2, 5.0, 100.0, false));
  const TaskSet dm = assign_deadline_monotonic(TaskSet(ts));
  EXPECT_EQ(dm.task(0).priority(), 2);  // slow = lowest priority
  EXPECT_EQ(dm.task(1).priority(), 0);  // fast = highest
  EXPECT_EQ(dm.task(2).priority(), 1);
  EXPECT_TRUE(dm.priorities_distinct());
}

}  // namespace
}  // namespace rtpool::model
