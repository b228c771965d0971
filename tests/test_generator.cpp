// Unit tests for the NFJ graph / task-set generator of Section 5.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <ostream>
#include <set>

#include "analysis/concurrency.h"
#include "gen/nfj_generator.h"
#include "gen/taskset_generator.h"
#include "graph/reachability.h"

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

// ---------- closure-free selection vs the transitive closure ----------

/// The closure-based predicates the nesting record replaced: two spans are
/// concurrent iff their forks are mutually unordered, and a span's interior
/// is succ(fork) ∩ pred(join).
bool closure_concurrent(const graph::Reachability& reach, const ForkJoinSpan& a,
                        const ForkJoinSpan& b) {
  return reach.concurrent(a.fork, b.fork);
}

util::DynamicBitset closure_interior(const graph::Reachability& reach,
                                     const ForkJoinSpan& span) {
  util::DynamicBitset interior = reach.descendants(span.fork);
  interior.and_assign(reach.ancestors(span.join));
  return interior;
}

/// The greedy pick as it ran against the closure: size test, shuffle, then
/// accept in shuffled order.
std::optional<std::vector<std::size_t>> closure_pick(const GeneratedGraph& g,
                                                     std::size_t k, util::Rng& rng,
                                                     const graph::Reachability& reach) {
  if (k == 0) return std::vector<std::size_t>{};
  if (g.fork_joins.size() < k) return std::nullopt;
  std::vector<std::size_t> order(g.fork_joins.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<std::size_t> chosen;
  for (std::size_t idx : order) {
    const bool ok = std::all_of(chosen.begin(), chosen.end(), [&](std::size_t c) {
      return closure_concurrent(reach, g.fork_joins[idx], g.fork_joins[c]);
    });
    if (ok) {
      chosen.push_back(idx);
      if (chosen.size() == k) return chosen;
    }
  }
  return std::nullopt;
}

struct SkeletonShape {
  const char* label;
  int max_depth;
  int min_branches;
  int max_branches;
  int max_series;
  int force_outer_branches;
};

void PrintTo(const SkeletonShape& shape, std::ostream* os) { *os << shape.label; }

class SelectionPropertyTest : public ::testing::TestWithParam<SkeletonShape> {};

TEST_P(SelectionPropertyTest, NestingRecordAgreesWithTheClosure) {
  const SkeletonShape& shape = GetParam();
  NfjParams params;
  params.max_depth = shape.max_depth;
  params.min_branches = shape.min_branches;
  params.max_branches = shape.max_branches;
  params.max_series = shape.max_series;
  params.force_outer_branches = shape.force_outer_branches;
  params.allow_blocking = false;  // the skeletons targeted typing retypes
  util::Rng rng(static_cast<std::uint64_t>(shape.max_depth * 1000 +
                                           shape.max_branches * 100 +
                                           shape.max_series * 10 +
                                           shape.force_outer_branches));
  for (int trial = 0; trial < 2000; ++trial) {
    GeneratedGraph g = generate_nfj_graph(params, rng);
    const graph::Reachability reach(g.dag);
    const std::vector<ForkJoinSpan>& spans = g.fork_joins;

    for (std::size_t a = 0; a < spans.size(); ++a)
      for (std::size_t b = 0; b < spans.size(); ++b)
        ASSERT_EQ(fork_joins_concurrent(g, a, b),
                  closure_concurrent(reach, spans[a], spans[b]))
            << "trial " << trial << ", spans " << a << " and " << b;

    for (std::size_t i = 0; i < spans.size(); ++i) {
      apply_blocking_selection(g, {i});
      const util::DynamicBitset interior = closure_interior(reach, spans[i]);
      for (model::NodeId v = 0; v < g.nodes.size(); ++v) {
        const NodeType want = v == spans[i].fork   ? NodeType::BF
                              : v == spans[i].join ? NodeType::BJ
                              : interior.test(v)   ? NodeType::BC
                                                   : NodeType::NB;
        ASSERT_EQ(g.nodes[v].type, want) << "trial " << trial << ", span " << i
                                         << ", node " << v;
      }
    }

    // The greedy: the same selection from the same draws, up to the
    // figure-2 windows' largest k and one past the span count.
    const std::size_t max_k = std::min<std::size_t>(spans.size() + 1, 8);
    for (std::size_t k = 0; k <= max_k; ++k) {
      const auto seed = static_cast<std::uint64_t>(trial) * 16 + k;
      util::Rng nested(seed);
      util::Rng closure(seed);
      ASSERT_EQ(pick_concurrent_fork_joins(g, k, nested),
                closure_pick(g, k, closure, reach))
          << "trial " << trial << ", k " << k;
      ASSERT_TRUE(nested.engine() == closure.engine())
          << "trial " << trial << ", k " << k;
    }
  }
}

// Every max_depth in 1-4, branch count in 2-5 and max_series in 1-3 occurs,
// with and without a forced outermost width (the window generator forces
// 4-6 outer branches for the figure-2 sweeps).
INSTANTIATE_TEST_SUITE_P(
    Shapes, SelectionPropertyTest,
    ::testing::Values(SkeletonShape{"d1_b2to5_s3", 1, 2, 5, 3, 0},
                      SkeletonShape{"d2_b2to5_s3", 2, 2, 5, 3, 0},
                      SkeletonShape{"d2_b3to5_s2_outer4", 2, 3, 5, 2, 4},
                      SkeletonShape{"d3_b2to4_s3_outer5", 3, 2, 4, 3, 5},
                      SkeletonShape{"d3_b2to5_s2_outer6", 3, 2, 5, 2, 6},
                      SkeletonShape{"d4_b2to3_s2", 4, 2, 3, 2, 0},
                      SkeletonShape{"d4_b2_s2_outer5", 4, 2, 2, 2, 5},
                      SkeletonShape{"d4_b2to5_s1_outer4", 4, 2, 5, 1, 4}),
    [](const ::testing::TestParamInfo<SkeletonShape>& param_info) {
      return param_info.param.label;
    });

TEST(SelectionTest, RejectsSpanIndicesOutOfRange) {
  util::Rng rng(12);
  NfjParams params;
  params.allow_blocking = false;
  GeneratedGraph g = generate_nfj_graph(params, rng);
  const std::size_t n = g.fork_joins.size();
  EXPECT_THROW(fork_joins_concurrent(g, 0, n), std::invalid_argument);
  EXPECT_THROW(fork_joins_concurrent(g, n, 0), std::invalid_argument);
  EXPECT_THROW(apply_blocking_selection(g, {n}), std::invalid_argument);
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
