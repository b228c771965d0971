// Unit tests for Audsley's OPA over the deadline-jitter global test.
#include <gtest/gtest.h>

#include "analysis/global_rta.h"
#include "analysis/priority_assignment.h"
#include "gen/taskset_generator.h"
#include "model/builder.h"

namespace rtpool::analysis {
namespace {

using model::DagTaskBuilder;
using model::TaskSet;

TaskSet simple_pair() {
  TaskSet ts(2);
  {
    DagTaskBuilder b("fast");
    b.add_node(2.0);
    b.period(10.0);
    ts.add(b.build());
  }
  {
    DagTaskBuilder b("slow");
    b.add_node(6.0);
    b.period(40.0);
    ts.add(b.build());
  }
  return ts;
}

TEST(AudsleyTest, AssignsDistinctPriorities) {
  const auto assigned = assign_priorities_audsley(simple_pair());
  ASSERT_TRUE(assigned.has_value());
  EXPECT_TRUE(assigned->priorities_distinct());
  // The resulting assignment passes the original (response-jitter) test.
  EXPECT_TRUE(analyze_global(*assigned).schedulable);
}

TEST(AudsleyTest, FailsOnOverload) {
  TaskSet ts(1);
  {
    DagTaskBuilder b("a");
    b.add_node(8.0);
    b.period(10.0);
    ts.add(b.build());
  }
  {
    DagTaskBuilder b("c");
    b.add_node(8.0);
    b.period(10.0);
    ts.add(b.build());
  }
  EXPECT_FALSE(assign_priorities_audsley(ts).has_value());
}

TEST(AudsleyTest, LowestPriorityCheckMatchesIntuition) {
  // Single core: the placement decision is clear-cut.
  TaskSet ts(1);
  {
    DagTaskBuilder b("fast");
    b.add_node(2.0);
    b.period(10.0);
    ts.add(b.build());
  }
  {
    DagTaskBuilder b("slow");
    b.add_node(6.0);
    b.period(40.0);
    ts.add(b.build());
  }
  GlobalRtaOptions options;
  // "slow" at the bottom: R = 6 + ceil((R + 10 - 2)/10)*2 -> 10 <= 40.
  EXPECT_TRUE(schedulable_at_lowest_priority(ts, 1, options));
  // "fast" at the bottom: R = 2 + ceil((R + 40 - 6)/40)*6 -> 14 > 10.
  EXPECT_FALSE(schedulable_at_lowest_priority(ts, 0, options));
}

TEST(AudsleyTest, LimitedConcurrencyGate) {
  // A blocking task with l̄ = 0 can never sit anywhere under the limited
  // test.
  TaskSet ts(1);
  {
    DagTaskBuilder b("blocky");
    const auto fj = b.add_blocking_fork_join(1.0, 1.0, {1.0});
    (void)fj;
    b.period(100.0);
    ts.add(b.build());
  }
  AudsleyOptions options;
  options.base.limited_concurrency = true;
  EXPECT_FALSE(assign_priorities_audsley(ts, options).has_value());
  // The baseline variant is happy.
  EXPECT_TRUE(assign_priorities_audsley(ts).has_value());
}

/// Property: whenever DM passes the deadline-jitter test, OPA must too
/// (OPA is optimal for OPA-compatible tests), and the OPA assignment must
/// pass the original response-jitter analysis.
class AudsleyPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AudsleyPropertyTest, DominatesDeadlineMonotonic) {
  util::Rng rng(GetParam());
  gen::TaskSetParams params;
  params.cores = 8;
  params.task_count = 4;
  params.total_utilization = 2.5;
  const TaskSet ts = gen::generate_task_set(params, rng);

  AudsleyOptions options;
  options.base.limited_concurrency = true;

  // DM under the SAME OPA-compatible test: every task must pass at its DM
  // position, i.e. checking each task at the bottom of its suffix.
  const TaskSet dm = model::assign_deadline_monotonic(TaskSet(ts));
  const auto order = dm.priority_order();
  bool dm_ok = true;
  for (std::size_t k = 0; k < order.size() && dm_ok; ++k) {
    model::TaskSet view(ts.core_count());
    std::size_t candidate = 0;
    for (std::size_t j = k; j < order.size(); ++j) {
      if (order[j] == order[k]) candidate = j - k;
      view.add(dm.task(order[j]));
    }
    dm_ok = schedulable_at_lowest_priority(view, candidate, options.base);
  }

  const auto opa = assign_priorities_audsley(ts, options);
  if (dm_ok) {
    EXPECT_TRUE(opa.has_value()) << "seed=" << GetParam();
  }
  if (opa.has_value()) {
    EXPECT_TRUE(opa->priorities_distinct());
    GlobalRtaOptions verify;
    verify.limited_concurrency = true;
    EXPECT_TRUE(analyze_global(*opa, verify).schedulable)
        << "seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AudsleyPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace rtpool::analysis
