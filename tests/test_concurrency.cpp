// Unit tests for the concurrency analysis of Section 3.1: C(v), X(v),
// b̄(τ) and the lower bound l̄(τ) on available concurrency.
#include <gtest/gtest.h>

#include "analysis/concurrency.h"
#include "gen/taskset_generator.h"
#include "model/builder.h"

namespace rtpool::analysis {
namespace {

using model::DagTask;
using model::DagTaskBuilder;
using model::NodeId;
using model::NodeType;

/// src -> BF(f) -> {c1,c2,c3} -> BJ(j) -> post (one blocking region).
struct OneRegion {
  DagTask task;
  NodeId fork, join, child0;
};

OneRegion one_region() {
  DagTaskBuilder b("one");
  const NodeId pre = b.add_node(1.0);
  const auto fj = b.add_blocking_fork_join(2.0, 3.0, {4.0, 5.0, 6.0});
  const NodeId post = b.add_node(1.0);
  b.add_edge(pre, fj.fork);
  b.add_edge(fj.join, post);
  b.period(100.0);
  return {b.build(), fj.fork, fj.join, fj.children[0]};
}

/// src -> {region1, region2} in parallel -> sink (two concurrent regions).
struct TwoRegions {
  DagTask task;
  NodeId f1, j1, c1;  // region 1
  NodeId f2, j2, c2;  // region 2
};

TwoRegions two_regions() {
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
  return {b.build(), r1.fork, r1.join, r1.children[0],
          r2.fork, r2.join, r2.children[0]};
}

TEST(ConcurrencyTest, NoBlockingForksMeansFullConcurrency) {
  const DagTask t = model::make_fork_join_task("plain", 4, 1.0, 100.0, false);
  EXPECT_EQ(max_affecting_forks(t), 0u);
  EXPECT_EQ(available_concurrency_lower_bound(t, 8), 8);
  for (NodeId v = 0; v < t.node_count(); ++v)
    EXPECT_TRUE(affecting_blocking_forks(t, v).none());
}

TEST(ConcurrencyTest, SingleRegion) {
  const auto [t, fork, join, child] = one_region();

  // The fork is ordered with every node, so C(v) is empty everywhere and
  // X(v) holds at most the own barrier fork F(v) of a BC node.
  for (NodeId v = 0; v < t.node_count(); ++v) {
    util::DynamicBitset c = affecting_blocking_forks(t, v);
    if (t.type(v) == NodeType::BC) c.reset(t.blocking_fork_of(v));
    EXPECT_TRUE(c.none()) << "v=" << v;
  }

  // X(child) = {F(child)} = {fork}; X elsewhere empty.
  const auto x_child = affecting_blocking_forks(t, child);
  EXPECT_EQ(x_child.count(), 1u);
  EXPECT_TRUE(x_child.test(fork));
  EXPECT_TRUE(affecting_blocking_forks(t, fork).none());
  EXPECT_TRUE(affecting_blocking_forks(t, join).none());
  EXPECT_TRUE(affecting_blocking_forks(t, t.source()).none());

  EXPECT_EQ(max_affecting_forks(t), 1u);
  EXPECT_EQ(available_concurrency_lower_bound(t, 8), 7);
  EXPECT_EQ(available_concurrency_lower_bound(t, 1), 0);
}

TEST(ConcurrencyTest, TwoParallelRegions) {
  const auto r = two_regions();
  const DagTask& t = r.task;

  // The two forks are mutually concurrent (a fork's X(v) is its C(v)).
  const auto c_f1 = affecting_blocking_forks(t, r.f1);
  EXPECT_EQ(c_f1.count(), 1u);
  EXPECT_TRUE(c_f1.test(r.f2));

  // A member of region 1 is endangered by the concurrent fork f2 AND by its
  // own barrier fork f1.
  const auto x_c1 = affecting_blocking_forks(t, r.c1);
  EXPECT_EQ(x_c1.count(), 2u);
  EXPECT_TRUE(x_c1.test(r.f1));
  EXPECT_TRUE(x_c1.test(r.f2));

  // Joins are concurrent with the opposite fork.
  const auto x_j1 = affecting_blocking_forks(t, r.j1);
  EXPECT_EQ(x_j1.count(), 1u);
  EXPECT_TRUE(x_j1.test(r.f2));

  // Source/sink are ordered with everything.
  EXPECT_TRUE(affecting_blocking_forks(t, t.source()).none());
  EXPECT_TRUE(affecting_blocking_forks(t, t.sink()).none());

  EXPECT_EQ(max_affecting_forks(t), 2u);
  EXPECT_EQ(available_concurrency_lower_bound(t, 2), 0);
  EXPECT_EQ(available_concurrency_lower_bound(t, 3), 1);
}

TEST(ConcurrencyTest, NodeNeverConcurrentWithItself) {
  const auto r = two_regions();
  EXPECT_FALSE(affecting_blocking_forks(r.task, r.f1).test(r.f1));
  EXPECT_FALSE(affecting_blocking_forks(r.task, r.f2).test(r.f2));
}

TEST(ConcurrencyTest, AllAffectingForksMatchesPerNode) {
  const auto r = two_regions();
  std::vector<util::DynamicBitset> all;
  all_affecting_forks(r.task, all);
  ASSERT_EQ(all.size(), r.task.node_count());
  for (NodeId v = 0; v < r.task.node_count(); ++v)
    EXPECT_EQ(all[v], affecting_blocking_forks(r.task, v)) << "v=" << v;
}

TEST(ConcurrencyTest, SequentialRegionsDoNotInteract) {
  // Two regions in series: region2 starts after region1's join.
  DagTaskBuilder b("series");
  const auto r1 = b.add_blocking_fork_join(1.0, 1.0, {2.0});
  const auto r2 = b.add_blocking_fork_join(1.0, 1.0, {2.0});
  b.add_edge(r1.join, r2.fork);
  b.period(100.0);
  const DagTask t = b.build();
  EXPECT_EQ(max_affecting_forks(t), 1u);  // only the own-barrier fork
}

/// Property sweep on random generated tasks: X(v) computed by the optimized
/// batch routine must agree with a brute-force reimplementation.
class ConcurrencyPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConcurrencyPropertyTest, BatchMatchesBruteForce) {
  util::Rng rng(GetParam());
  gen::TaskSetParams params;
  params.cores = 8;
  const DagTask t = gen::generate_task(params, 0, 0.5, rng);
  const auto& reach = t.reachability();
  std::vector<util::DynamicBitset> all;
  all_affecting_forks(t, all);

  for (NodeId v = 0; v < t.node_count(); ++v) {
    util::DynamicBitset expect(t.node_count());
    for (NodeId f = 0; f < t.node_count(); ++f) {
      if (t.type(f) != NodeType::BF || f == v) continue;
      if (reach.reaches(f, v) || reach.reaches(v, f)) continue;
      expect.set(f);
    }
    if (t.type(v) == NodeType::BC) expect.set(t.blocking_fork_of(v));
    EXPECT_EQ(all[v], expect) << "seed=" << GetParam() << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrencyPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace rtpool::analysis
