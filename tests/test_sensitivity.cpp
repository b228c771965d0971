// Unit tests for the critical-scaling sensitivity analysis.
#include <gtest/gtest.h>

#include "analysis/antichain.h"
#include "analysis/global_rta.h"
#include "analysis/sensitivity.h"
#include "gen/taskset_generator.h"
#include "model/builder.h"

namespace rtpool::analysis {
namespace {

using model::DagTaskBuilder;
using model::TaskSet;

SchedulabilityTest global_test(bool limited) {
  return [limited](const TaskSet& ts) {
    GlobalRtaOptions opts;
    opts.limited_concurrency = limited;
    return analyze_global(ts, opts).schedulable;
  };
}

TEST(ScaleWcetsTest, ScalesEveryNodeOnly) {
  TaskSet ts(2);
  ts.add(model::make_fork_join_task("t", 2, 3.0, 60.0, true));
  const TaskSet scaled = scale_wcets(ts, 0.5);
  const auto& a = ts.task(0);
  const auto& b = scaled.task(0);
  for (model::NodeId v = 0; v < a.node_count(); ++v) {
    EXPECT_DOUBLE_EQ(b.wcet(v), a.wcet(v) * 0.5);
    EXPECT_EQ(b.type(v), a.type(v));
  }
  EXPECT_DOUBLE_EQ(b.period(), a.period());
  EXPECT_DOUBLE_EQ(b.deadline(), a.deadline());
  EXPECT_THROW(scale_wcets(ts, 0.0), std::invalid_argument);
}

TEST(CriticalScalingTest, ClosedFormSingleTask) {
  // Plain fork-join on m = 2: R(s) = s * (len + (vol-len)/2) = s * 8 (see
  // test_global_rta). Schedulable iff s * 8 <= 100 -> s* = 12.5, clamped
  // by the bracket's hi.
  TaskSet ts(2);
  ts.add(model::make_fork_join_task("t", 3, 2.0, 100.0, false));

  SensitivityOptions options;
  options.hi = 20.0;
  const double s = critical_scaling_factor(ts, global_test(false), options);
  EXPECT_NEAR(s, 12.5, 0.01);
}

TEST(CriticalScalingTest, BracketClamping) {
  TaskSet ts(2);
  ts.add(model::make_fork_join_task("t", 3, 2.0, 100.0, false));
  SensitivityOptions options;
  options.hi = 4.0;  // true s* = 12.5 is beyond the bracket
  EXPECT_DOUBLE_EQ(critical_scaling_factor(ts, global_test(false), options), 4.0);
}

TEST(CriticalScalingTest, InfeasibleReturnsZero) {
  // l̄ = 0: the limited test fails at every scale.
  TaskSet ts(1);
  DagTaskBuilder b("blocky");
  b.add_blocking_fork_join(1.0, 1.0, {1.0});
  b.period(100.0);
  ts.add(b.build());
  EXPECT_DOUBLE_EQ(critical_scaling_factor(ts, global_test(true)), 0.0);
}

TEST(CriticalScalingTest, TighterTestsHaveSmallerMargins) {
  // On random sets: s*(baseline) >= s*(antichain-limited) >= s*(b̄-limited).
  util::Rng rng(31);
  gen::TaskSetParams params;
  params.cores = 8;
  params.task_count = 3;
  params.total_utilization = 2.0;
  for (int trial = 0; trial < 10; ++trial) {
    const TaskSet ts = gen::generate_task_set(params, rng);
    const double s_base = critical_scaling_factor(ts, global_test(false));
    const double s_limited = critical_scaling_factor(ts, global_test(true));
    const double s_antichain = critical_scaling_factor(
        ts, [](const TaskSet& set) {
          GlobalRtaOptions opts;
          opts.limited_concurrency = true;
          opts.concurrency = ConcurrencyBound::kMaxAntichain;
          return analyze_global(set, opts).schedulable;
        });
    EXPECT_GE(s_base + 1e-6, s_antichain) << "trial=" << trial;
    EXPECT_GE(s_antichain + 1e-6, s_limited) << "trial=" << trial;
  }
}

TEST(CriticalScalingTest, FastPathClosedFormSingleTask) {
  // Fast-path mirror of ClosedFormSingleTask: same bracket, same closed
  // form s* = 12.5.
  TaskSet ts(2);
  ts.add(model::make_fork_join_task("t", 3, 2.0, 100.0, false));
  SensitivityOptions options;
  options.hi = 20.0;
  const SensitivityResult r =
      critical_scaling_factor(ts, get_analyzer("global-baseline"), {}, options);
  EXPECT_NEAR(r.factor, 12.5, 0.01);
  EXPECT_GT(r.probes, 0);
}

TEST(CriticalScalingTest, FastPathBracketClamping) {
  TaskSet ts(2);
  ts.add(model::make_fork_join_task("t", 3, 2.0, 100.0, false));
  SensitivityOptions options;
  options.hi = 4.0;  // true s* = 12.5 is beyond the bracket
  EXPECT_DOUBLE_EQ(
      critical_scaling_factor(ts, get_analyzer("global-baseline"), {}, options).factor,
      4.0);
}

TEST(CriticalScalingTest, FastPathInfeasibleReturnsZero) {
  TaskSet ts(1);
  DagTaskBuilder b("blocky");
  b.add_blocking_fork_join(1.0, 1.0, {1.0});
  b.period(100.0);
  ts.add(b.build());
  EXPECT_DOUBLE_EQ(
      critical_scaling_factor(ts, get_analyzer("global-limited")).factor, 0.0);
}

TEST(CriticalScalingTest, FastPathBadBracketThrows) {
  TaskSet ts(2);
  ts.add(model::make_fork_join_task("t", 2, 1.0, 50.0, false));
  SensitivityOptions bad;
  bad.lo = 2.0;
  bad.hi = 1.0;
  EXPECT_THROW(critical_scaling_factor(ts, get_analyzer("global-baseline"), {}, bad),
               std::invalid_argument);
}

TEST(CriticalScalingTest, CutoffProbesAreVerdictSafe) {
  // With a huge critical path relative to the deadline the cutoff decides
  // most failing probes; factor must match the cutoff-free search exactly.
  TaskSet ts(2);
  ts.add(model::make_fork_join_task("t", 3, 2.0, 100.0, false));
  SensitivityOptions with_cutoff;
  with_cutoff.hi = 20.0;
  SensitivityOptions without_cutoff = with_cutoff;
  without_cutoff.critical_path_cutoff = false;
  const SensitivityResult a =
      critical_scaling_factor(ts, get_analyzer("global-baseline"), {}, with_cutoff);
  const SensitivityResult b =
      critical_scaling_factor(ts, get_analyzer("global-baseline"), {}, without_cutoff);
  EXPECT_EQ(a.factor, b.factor);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(b.cutoff_probes, 0);
}

TEST(CriticalScalingTest, BadBracketThrows) {
  TaskSet ts(2);
  ts.add(model::make_fork_join_task("t", 2, 1.0, 50.0, false));
  SensitivityOptions bad;
  bad.lo = 2.0;
  bad.hi = 1.0;
  EXPECT_THROW(critical_scaling_factor(ts, global_test(false), bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace rtpool::analysis
