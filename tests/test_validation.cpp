// Cross-module validation: the discrete-event simulator versus the formal
// results of the paper.
//
//  * Lemmas 1+2 (global): a task with l̄(τ) > 0 never deadlocks in
//    simulation; the observed min available concurrency never drops below
//    l̄(τ) (Section 3.1 lower bound is sound).
//  * Lemma 3 (partitioned): Algorithm 1 partitions never deadlock.
//  * Section 4 analyses: simulated response times never exceed the
//    analytical bounds for task sets the analyses accept.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/concurrency.h"
#include "analysis/deadlock.h"
#include "analysis/global_rta.h"
#include "analysis/partition.h"
#include "analysis/partitioned_rta.h"
#include "gen/taskset_generator.h"
#include "sim/engine.h"

namespace rtpool {
namespace {

using model::TaskSet;

/// Simulate a handful of hyper-ish periods.
sim::SimConfig sim_config(const TaskSet& ts, sim::SchedulingPolicy policy) {
  sim::SimConfig cfg;
  cfg.policy = policy;
  double max_period = 0.0;
  for (const auto& t : ts.tasks()) max_period = std::max(max_period, t.period());
  cfg.horizon = 12.0 * max_period;
  return cfg;
}

gen::TaskSetParams default_params(std::uint64_t /*seed*/) {
  gen::TaskSetParams params;
  params.cores = 4;
  params.task_count = 3;
  params.total_utilization = 1.6;
  return params;
}

/// Lemmas 1+2 for every task of the set on its m cores.
bool deadlock_free_global(const TaskSet& ts) {
  return std::all_of(ts.tasks().begin(), ts.tasks().end(),
                     [&](const model::DagTask& task) {
                       return analysis::check_deadlock_free_global(
                                  task, ts.core_count())
                           .deadlock_free;
                     });
}

class ValidationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ValidationTest, GlobalLowerBoundOnConcurrencyIsSound) {
  util::Rng rng(GetParam());
  const TaskSet ts = gen::generate_task_set(default_params(GetParam()), rng);
  const auto result = sim::simulate(ts, sim_config(ts, sim::SchedulingPolicy::kGlobal));

  for (std::size_t i = 0; i < ts.size(); ++i) {
    const long lbar =
        analysis::available_concurrency_lower_bound(ts.task(i), ts.core_count());
    EXPECT_GE(result.per_task[i].min_available_concurrency, lbar)
        << "seed=" << GetParam() << " task=" << i;
  }
  // Lemmas 1+2: deadlock-free guarantee must hold in the simulated run.
  if (deadlock_free_global(ts)) {
    EXPECT_FALSE(result.deadlock.has_value()) << "seed=" << GetParam();
  }
}

TEST_P(ValidationTest, GlobalResponseBoundsDominateSimulation) {
  util::Rng rng(GetParam() + 1000);
  const TaskSet ts = gen::generate_task_set(default_params(GetParam()), rng);

  analysis::GlobalRtaOptions limited;
  limited.limited_concurrency = true;
  const auto rta = analysis::analyze_global(ts, limited);
  if (!rta.schedulable) return;  // only accepted sets carry a guarantee

  const auto result =
      sim::simulate(ts, sim_config(ts, sim::SchedulingPolicy::kGlobal));
  ASSERT_FALSE(result.deadlock.has_value()) << "seed=" << GetParam();
  EXPECT_FALSE(result.any_deadline_miss) << "seed=" << GetParam();
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_LE(result.per_task[i].max_response,
              rta.per_task[i].response_time + 1e-6)
        << "seed=" << GetParam() << " task=" << i;
  }
}

TEST_P(ValidationTest, Algorithm1PartitionsNeverDeadlockInSimulation) {
  util::Rng rng(GetParam() + 2000);
  const TaskSet ts = gen::generate_task_set(default_params(GetParam()), rng);
  const auto alg1 = analysis::partition_algorithm1(ts);
  if (!alg1.success()) return;
  // Lemma 3 needs l̄ > 0 as well; Algorithm 1 alone does not enforce it.
  if (!analysis::task_set_deadlock_free_partitioned(ts, *alg1.partition)) return;

  auto cfg = sim_config(ts, sim::SchedulingPolicy::kPartitioned);
  cfg.partition = *alg1.partition;
  const auto result = sim::simulate(ts, cfg);
  EXPECT_FALSE(result.deadlock.has_value()) << "seed=" << GetParam();
}

TEST_P(ValidationTest, PartitionedResponseBoundsDominateSimulation) {
  util::Rng rng(GetParam() + 3000);
  const TaskSet ts = gen::generate_task_set(default_params(GetParam()), rng);
  const auto alg1 = analysis::partition_algorithm1(ts);
  if (!alg1.success()) return;
  const auto rta = analysis::analyze_partitioned(ts, *alg1.partition);
  if (!rta.schedulable) return;

  auto cfg = sim_config(ts, sim::SchedulingPolicy::kPartitioned);
  cfg.partition = *alg1.partition;
  const auto result = sim::simulate(ts, cfg);
  ASSERT_FALSE(result.deadlock.has_value()) << "seed=" << GetParam();
  EXPECT_FALSE(result.any_deadline_miss) << "seed=" << GetParam();
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_LE(result.per_task[i].max_response,
              rta.per_task[i].response_time + 1e-6)
        << "seed=" << GetParam() << " task=" << i;
  }
}

TEST_P(ValidationTest, SporadicReleasesStayWithinPeriodicBounds) {
  // Response-time bounds hold for sporadic arrivals too (minimum
  // inter-arrival = T): check against the limited-concurrency global test.
  util::Rng rng(GetParam() + 4000);
  const TaskSet ts = gen::generate_task_set(default_params(GetParam()), rng);
  analysis::GlobalRtaOptions limited;
  limited.limited_concurrency = true;
  const auto rta = analysis::analyze_global(ts, limited);
  if (!rta.schedulable) return;

  auto cfg = sim_config(ts, sim::SchedulingPolicy::kGlobal);
  cfg.release_jitter_frac = 0.4;
  cfg.seed = GetParam();
  const auto result = sim::simulate(ts, cfg);
  EXPECT_FALSE(result.any_deadline_miss) << "seed=" << GetParam();
}

TEST_P(ValidationTest, TraceInvariantsHold) {
  // Structural invariants of simulator traces on random task sets:
  // (a) intervals on one core never overlap;
  // (b) every interval carries valid task/node ids and positive length
  //     within [0, horizon];
  // (c) the per-task executed time never exceeds vol * jobs_released and
  //     reaches vol * jobs_completed.
  util::Rng rng(GetParam() + 5000);
  const TaskSet ts = gen::generate_task_set(default_params(GetParam()), rng);
  auto cfg = sim_config(ts, sim::SchedulingPolicy::kGlobal);
  cfg.collect_trace = true;
  const auto result = sim::simulate(ts, cfg);

  std::vector<std::vector<std::pair<double, double>>> per_core(ts.core_count());
  std::vector<double> executed(ts.size(), 0.0);
  for (const auto& iv : result.trace) {
    ASSERT_LT(iv.core, ts.core_count());
    ASSERT_LT(iv.task_index, ts.size());
    ASSERT_LT(iv.node, ts.task(iv.task_index).node_count());
    EXPECT_GT(iv.end, iv.start);
    EXPECT_GE(iv.start, -1e-9);
    EXPECT_LE(iv.end, cfg.horizon + 1e-6);
    per_core[iv.core].emplace_back(iv.start, iv.end);
    executed[iv.task_index] += iv.end - iv.start;
  }
  for (auto& intervals : per_core) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t k = 1; k < intervals.size(); ++k)
      EXPECT_LE(intervals[k - 1].second, intervals[k].first + 1e-9)
          << "seed=" << GetParam();
  }
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const double vol = ts.task(i).volume();
    const auto& stats = result.per_task[i];
    // Relative slack: completion tolerances scale with simulated time, so
    // long traces accumulate O(eps * t) rounding per job.
    const double hi = vol * static_cast<double>(stats.jobs_released);
    const double lo = vol * static_cast<double>(stats.jobs_completed);
    EXPECT_LE(executed[i], hi * (1.0 + 1e-6) + 1e-6) << "seed=" << GetParam();
    EXPECT_GE(executed[i], lo * (1.0 - 1e-6) - 1e-6) << "seed=" << GetParam();
  }
}

TEST_P(ValidationTest, StealingNeverDeadlocksWhenGlobalDoesNot) {
  // Footnote 1 as a property: with per-thread queues + stealing, any
  // placement is rescued whenever the global-queue run makes progress
  // (both stall only if l(t) = 0, which l̄ > 0 excludes).
  util::Rng rng(GetParam() + 6000);
  const TaskSet ts = gen::generate_task_set(default_params(GetParam()), rng);
  if (!deadlock_free_global(ts)) return;

  // Adversarial placement: every node on thread 0.
  analysis::TaskSetPartition partition;
  for (const auto& t : ts.tasks())
    partition.per_task.push_back(
        {std::vector<analysis::ThreadId>(t.node_count(), 0)});

  auto cfg = sim_config(ts, sim::SchedulingPolicy::kPartitioned);
  cfg.partition = partition;
  cfg.work_stealing = true;
  const auto run = sim::simulate(ts, cfg);
  EXPECT_FALSE(run.deadlock.has_value()) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidationTest,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace rtpool
