// Unit tests for the NFJ graph / task-set generator of Section 5.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "analysis/concurrency.h"
#include "gen/nfj_generator.h"
#include "gen/taskset_generator.h"

namespace rtpool::gen {
namespace {

using model::NodeType;

TEST(NfjGeneratorTest, ProducesValidModelGraphs) {
  util::Rng rng(7);
  NfjParams params;
  for (int trial = 0; trial < 200; ++trial) {
    GeneratedGraph g = generate_nfj_graph(params, rng);
    // DagTask's constructor enforces every structural restriction of the
    // model; surviving construction is the property under test.
    model::DagTask task("t", std::move(g.dag), std::move(g.nodes), 100.0, 100.0);
    EXPECT_EQ(task.type(task.source()), NodeType::NB);
    EXPECT_EQ(task.type(task.sink()), NodeType::NB);
    EXPECT_GE(task.node_count(), 3u);
  }
}

TEST(NfjGeneratorTest, WcetsWithinRange) {
  util::Rng rng(8);
  NfjParams params;
  params.wcet_min = 5.0;
  params.wcet_max = 9.0;
  const GeneratedGraph g = generate_nfj_graph(params, rng);
  for (const model::Node& n : g.nodes) {
    EXPECT_GE(n.wcet, 5.0);
    EXPECT_LT(n.wcet, 9.0);
  }
  EXPECT_NEAR(g.volume(), [&] {
    double v = 0;
    for (const auto& n : g.nodes) v += n.wcet;
    return v;
  }(), 1e-9);
}

TEST(NfjGeneratorTest, Deterministic) {
  NfjParams params;
  util::Rng a(42);
  util::Rng b(42);
  for (int i = 0; i < 20; ++i) {
    const GeneratedGraph ga = generate_nfj_graph(params, a);
    const GeneratedGraph gb = generate_nfj_graph(params, b);
    ASSERT_EQ(ga.nodes.size(), gb.nodes.size());
    for (std::size_t v = 0; v < ga.nodes.size(); ++v)
      EXPECT_EQ(ga.nodes[v], gb.nodes[v]);
    EXPECT_EQ(ga.dag.edges(), gb.dag.edges());
  }
}

TEST(NfjGeneratorTest, AllowBlockingFalseYieldsPlainDags) {
  util::Rng rng(9);
  NfjParams params;
  params.allow_blocking = false;
  for (int trial = 0; trial < 50; ++trial) {
    const GeneratedGraph g = generate_nfj_graph(params, rng);
    for (const model::Node& n : g.nodes) EXPECT_EQ(n.type, NodeType::NB);
  }
}

TEST(NfjGeneratorTest, BlockingRegionsAppearFrequently) {
  util::Rng rng(10);
  NfjParams params;
  int with_regions = 0;
  const int trials = 100;
  for (int trial = 0; trial < trials; ++trial) {
    GeneratedGraph g = generate_nfj_graph(params, rng);
    model::DagTask task("t", std::move(g.dag), std::move(g.nodes), 100.0, 100.0);
    if (task.blocking_fork_count() > 0) ++with_regions;
  }
  // The outermost fork-join alone is blocking with p = 1/2.
  EXPECT_GT(with_regions, trials / 3);
}

TEST(NfjGeneratorTest, RejectsBadParams) {
  util::Rng rng(1);
  NfjParams p;
  p.max_depth = 0;
  EXPECT_THROW(generate_nfj_graph(p, rng), std::invalid_argument);
  p = NfjParams{};
  p.min_branches = 1;
  EXPECT_THROW(generate_nfj_graph(p, rng), std::invalid_argument);
  p = NfjParams{};
  p.max_branches = 1;
  EXPECT_THROW(generate_nfj_graph(p, rng), std::invalid_argument);
  p = NfjParams{};
  p.max_series = 0;
  EXPECT_THROW(generate_nfj_graph(p, rng), std::invalid_argument);
  p = NfjParams{};
  p.wcet_min = -1.0;
  EXPECT_THROW(generate_nfj_graph(p, rng), std::invalid_argument);
}

TEST(TaskGeneratorTest, PeriodMatchesUtilization) {
  util::Rng rng(3);
  TaskSetParams params;
  for (double u : {0.1, 0.5, 2.0}) {
    const model::DagTask t = generate_task(params, 0, u, rng);
    EXPECT_NEAR(t.utilization(), u, 1e-9);
    EXPECT_DOUBLE_EQ(t.deadline(), t.period());
  }
}

TEST(TaskGeneratorTest, BlockingWindowEnforced) {
  util::Rng rng(4);
  TaskSetParams params;
  params.cores = 8;
  params.blocking_window = BlockingWindow{1, 2};
  for (int trial = 0; trial < 30; ++trial) {
    const model::DagTask t = generate_task(params, 0, 0.5, rng);
    const std::size_t b = analysis::max_affecting_forks(t);
    EXPECT_GE(b, 1u);
    EXPECT_LE(b, 2u);
  }
}

TEST(TaskGeneratorTest, ImpossibleWindowThrows) {
  util::Rng rng(5);
  TaskSetParams params;
  // max_depth = 1 leaves a single (outermost) fork-join sub-graph, so no
  // skeleton can ever host two mutually concurrent blocking regions.
  params.nfj.max_depth = 1;
  params.blocking_window = BlockingWindow{2, 2};
  params.max_graph_attempts = 50;
  EXPECT_THROW(generate_task(params, 0, 0.5, rng), GenerationError);
}

TEST(TaskGeneratorTest, WindowOverridesAllowBlocking) {
  // Targeted typing marks regions even when probabilistic typing is off.
  util::Rng rng(6);
  TaskSetParams params;
  params.cores = 8;
  params.nfj.allow_blocking = false;
  params.blocking_window = BlockingWindow{2, 2};
  const model::DagTask t = generate_task(params, 0, 0.5, rng);
  EXPECT_EQ(analysis::max_affecting_forks(t), 2u);
  EXPECT_EQ(t.blocking_fork_count(), 2u);
}

TEST(TaskGeneratorTest, ExactWindowAcrossRange) {
  // The figure-2 sweeps rely on pinning b̄ exactly for k = 0..7 at m = 8.
  util::Rng rng(7);
  TaskSetParams params;
  params.cores = 8;
  params.nfj.min_branches = 3;
  params.nfj.max_branches = 5;
  for (std::size_t k = 0; k <= 7; ++k) {
    params.blocking_window = BlockingWindow{k, k};
    const model::DagTask t = generate_task(params, 0, 0.5, rng);
    EXPECT_EQ(analysis::max_affecting_forks(t), k) << "k=" << k;
  }
}

TEST(TaskSetGeneratorTest, RespectsCountAndUtilization) {
  util::Rng rng(6);
  TaskSetParams params;
  params.cores = 8;
  params.task_count = 6;
  params.total_utilization = 4.0;
  const model::TaskSet ts = generate_task_set(params, rng);
  EXPECT_EQ(ts.size(), 6u);
  EXPECT_EQ(ts.core_count(), 8u);
  EXPECT_NEAR(ts.total_utilization(), 4.0, 1e-6);
  EXPECT_TRUE(ts.priorities_distinct());

  // Deadline-monotonic: priority order sorted by deadline.
  const auto order = ts.priority_order();
  for (std::size_t k = 1; k < order.size(); ++k)
    EXPECT_LE(ts.task(order[k - 1]).deadline(), ts.task(order[k]).deadline());

  // Unique names.
  std::set<std::string> names;
  for (const auto& t : ts.tasks()) names.insert(t.name());
  EXPECT_EQ(names.size(), ts.size());
}

TEST(TaskSetGeneratorTest, ZeroTasksThrows) {
  util::Rng rng(1);
  TaskSetParams params;
  params.task_count = 0;
  EXPECT_THROW(generate_task_set(params, rng), std::invalid_argument);
}

/// Property sweep over seeds: generated task sets always satisfy the model
/// invariants (validated in DagTask) and l̄ ∈ [m − b_max, m − b_min] when a
/// window is requested — the relation used by the Figure 2(a)/(b) sweeps.
class GeneratorPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorPropertyTest, WindowPinsLowerBound) {
  util::Rng rng(GetParam());
  TaskSetParams params;
  params.cores = 8;
  params.task_count = 3;
  params.total_utilization = 2.0;
  params.blocking_window = BlockingWindow{2, 3};
  const model::TaskSet ts = generate_task_set(params, rng);
  for (const auto& t : ts.tasks()) {
    const long l = analysis::available_concurrency_lower_bound(t, params.cores);
    EXPECT_GE(l, 8 - 3) << "seed=" << GetParam();
    EXPECT_LE(l, 8 - 2) << "seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace rtpool::gen
