// Unit tests for the experiment harness (src/exp).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/analyzer.h"
#include "analysis/partition.h"
#include "exp/report_json.h"
#include "exp/schedulability.h"
#include "model/builder.h"
#include "sim/engine.h"
#include "util/json.h"

namespace rtpool::exp {
namespace {

using model::DagTaskBuilder;
using model::NodeId;
using model::TaskSet;

/// A trivially schedulable set: one tiny task on many cores.
TaskSet easy_set() {
  TaskSet ts(8);
  DagTaskBuilder b("t");
  b.add_node(1.0);
  b.period(1000.0);
  ts.add(b.build());
  return ts;
}

/// A set only the baseline accepts: a blocking region with l̄ = 0.
TaskSet limited_only_set() {
  TaskSet ts(1);
  DagTaskBuilder b("t");
  const NodeId pre = b.add_node(1.0);
  const auto fj = b.add_blocking_fork_join(1.0, 1.0, {1.0});
  b.add_edge(pre, fj.fork);
  b.period(1000.0);
  ts.add(b.build());
  return ts;
}

/// The paper's two baseline/proposed pairs.
AnalyzerPair global_pair() {
  return {&analysis::get_analyzer("global-baseline"),
          &analysis::get_analyzer("global-limited")};
}
AnalyzerPair partitioned_pair() {
  return {&analysis::get_analyzer("partitioned-baseline"),
          &analysis::get_analyzer("partitioned-proposed")};
}

/// Both verdicts of a pair on one set, as an experiment point records them.
SetVerdict verdicts(const AnalyzerPair& pair, const TaskSet& ts) {
  return {pair.baseline->analyze(ts).schedulable,
          pair.proposed->analyze(ts).schedulable};
}

/// One point on the inline (single-thread) engine.
PointResult evaluate_point(const AnalyzerPair& pair, const PointConfig& config,
                           const util::Rng& rng) {
  ExperimentEngine engine(1);
  return engine.evaluate_point(pair, config, rng);
}

TEST(EvaluateTaskSetTest, GlobalVerdicts) {
  const auto easy = verdicts(global_pair(), easy_set());
  EXPECT_TRUE(easy.baseline);
  EXPECT_TRUE(easy.proposed);

  const auto limited = verdicts(global_pair(), limited_only_set());
  EXPECT_TRUE(limited.baseline);   // [14] ignores the blocked thread
  EXPECT_FALSE(limited.proposed);  // Section 4.1 rejects (l̄ = 0)
}

TEST(EvaluateTaskSetTest, PartitionedVerdicts) {
  const auto easy = verdicts(partitioned_pair(), easy_set());
  EXPECT_TRUE(easy.baseline);
  EXPECT_TRUE(easy.proposed);

  // With m = 1 Algorithm 1 cannot segregate the BF from its children.
  const auto limited = verdicts(partitioned_pair(), limited_only_set());
  EXPECT_TRUE(limited.baseline);
  EXPECT_FALSE(limited.proposed);
}

TEST(EvaluatePointTest, CountsAreConsistent) {
  PointConfig config;
  config.gen.cores = 8;
  config.gen.task_count = 3;
  config.gen.total_utilization = 2.0;
  config.trials = 25;
  util::Rng rng(1);
  const PointResult r = evaluate_point(global_pair(), config, rng);
  EXPECT_EQ(r.accepted, 25u);
  EXPECT_LE(r.baseline_schedulable, r.accepted);
  EXPECT_LE(r.proposed_schedulable, r.accepted);
  // The proposed test can never accept a set the baseline rejects.
  EXPECT_LE(r.proposed_schedulable, r.baseline_schedulable);
  EXPECT_GE(r.baseline_ratio(), r.proposed_ratio());
  EXPECT_FALSE(r.attempts_exhausted);
}

TEST(EvaluatePointTest, FilterMakesBaselineExact) {
  PointConfig config;
  config.gen.cores = 8;
  config.gen.task_count = 3;
  config.gen.total_utilization = 2.0;
  config.filter_baseline = true;
  config.trials = 20;
  util::Rng rng(2);
  const PointResult r = evaluate_point(global_pair(), config, rng);
  EXPECT_EQ(r.accepted, 20u);
  EXPECT_EQ(r.baseline_schedulable, 20u);  // by construction of the filter
  EXPECT_DOUBLE_EQ(r.baseline_ratio(), 1.0);
}

TEST(EvaluatePointTest, AttemptBudgetRespected) {
  PointConfig config;
  config.gen.cores = 2;
  config.gen.task_count = 2;
  config.gen.total_utilization = 3.9;  // mostly unschedulable
  config.filter_baseline = true;
  config.trials = 1000;
  config.max_attempts = 50;
  util::Rng rng(3);
  const PointResult r = evaluate_point(global_pair(), config, rng);
  EXPECT_TRUE(r.attempts_exhausted);
  EXPECT_LE(r.accepted + r.discarded + r.generation_errors, 50u);
}

TEST(EvaluatePointTest, EmptyRatioIsZero) {
  PointResult r;
  EXPECT_DOUBLE_EQ(r.baseline_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(r.proposed_ratio(), 0.0);
}

// ---------- ExperimentEngine: parallel determinism & accounting ----------
//
// NOTE for these tests: the build/CI box may have a single core, so they
// assert bit-identical *results* across thread counts, never any speedup.

TEST(ExperimentEngineTest, ResultsAreThreadCountInvariant) {
  for (const bool filter : {false, true}) {
    PointConfig config;
    config.gen.cores = 8;
    config.gen.task_count = 3;
    config.gen.total_utilization = 2.0;
    config.filter_baseline = filter;
    config.trials = 30;
    config.certify_sample = 10;
    const util::Rng rng(7);

    ExperimentEngine sequential(1);
    ExperimentEngine parallel4(4, /*clamp_to_hardware=*/false);
    const PointResult a = sequential.evaluate_point(global_pair(), config, rng);
    const PointResult b = parallel4.evaluate_point(global_pair(), config, rng);
    EXPECT_EQ(a.accepted, 30u);
    // The sampled certificates all pass the independent checker; a == b
    // also pins the sampled counts across thread counts.
    EXPECT_GT(a.certified, 0u);
    EXPECT_EQ(a.cert_failures, 0u);
    EXPECT_TRUE(a == b) << "filter=" << filter;
    ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
    for (std::size_t i = 0; i < a.verdicts.size(); ++i)
      EXPECT_TRUE(a.verdicts[i] == b.verdicts[i]) << "set " << i;

    // The pool is reused across points inside one engine: a second identical
    // point gives the same result again (per-attempt seeding, no state).
    const PointResult c = parallel4.evaluate_point(global_pair(), config, rng);
    EXPECT_TRUE(a == c);
  }
}

TEST(ExperimentEngineTest, PartitionedArmIsThreadCountInvariant) {
  PointConfig config;
  config.gen.cores = 4;
  config.gen.task_count = 2;
  config.gen.total_utilization = 1.0;
  config.trials = 10;
  config.certify_sample = 5;
  const util::Rng rng(11);
  ExperimentEngine sequential(1);
  ExperimentEngine parallel3(3, /*clamp_to_hardware=*/false);
  const PointResult a =
      sequential.evaluate_point(partitioned_pair(), config, rng);
  const PointResult b =
      parallel3.evaluate_point(partitioned_pair(), config, rng);
  EXPECT_GT(a.certified, 0u);
  EXPECT_EQ(a.cert_failures, 0u);
  EXPECT_TRUE(a == b);
}

TEST(ExperimentEngineTest, ParallelAttemptAccountingMatchesSequential) {
  // A nearly-unschedulable filtered point: the budget runs out, and every
  // consumed attempt must be accounted as accepted, discarded, or a
  // generation error — identically for any thread count.
  PointConfig config;
  config.gen.cores = 2;
  config.gen.task_count = 2;
  config.gen.total_utilization = 3.9;
  config.filter_baseline = true;
  config.trials = 1000;
  config.max_attempts = 50;
  const util::Rng rng(3);

  ExperimentEngine sequential(1);
  ExperimentEngine parallel4(4, /*clamp_to_hardware=*/false);
  const PointResult a = sequential.evaluate_point(global_pair(), config, rng);
  const PointResult b = parallel4.evaluate_point(global_pair(), config, rng);
  EXPECT_TRUE(a.attempts_exhausted);
  EXPECT_EQ(a.accepted + a.discarded + a.generation_errors, 50u);
  EXPECT_TRUE(a == b);
}

TEST(ExperimentEngineTest, GenerationErrorsCountedUnderParallelPath) {
  // A blocking window wider than the small graphs can host: generation
  // fails for some attempts, which must be counted, not dropped, by the
  // speculative path.
  PointConfig config;
  config.gen.cores = 8;
  config.gen.task_count = 2;
  config.gen.total_utilization = 1.0;
  config.gen.nfj.min_branches = 2;
  config.gen.nfj.max_branches = 3;
  config.gen.blocking_window = gen::BlockingWindow{6, 6};
  config.trials = 20;
  config.max_attempts = 200;
  const util::Rng rng(17);

  ExperimentEngine sequential(1);
  ExperimentEngine parallel4(4, /*clamp_to_hardware=*/false);
  const PointResult a = sequential.evaluate_point(global_pair(), config, rng);
  const PointResult b = parallel4.evaluate_point(global_pair(), config, rng);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.generation_errors, b.generation_errors);
}

// ---------- ShardedRunner: the attempt loop and the worker clamp ----------

TEST(ShardedRunnerTest, MapTrialsFoldsInTrialOrder) {
  ShardedRunner runner(4, /*clamp_to_hardware=*/false);
  std::vector<std::size_t> order;
  std::vector<double> parallel_draws(20, 0.0);
  runner.map_trials(
      20, util::Rng(5),
      [](std::size_t /*i*/, util::Rng& r) { return r.uniform(0.0, 1.0); },
      [&](std::size_t i, double v) {
        order.push_back(i);
        parallel_draws[i] = v;
      });
  ASSERT_EQ(order.size(), 20u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);

  ShardedRunner sequential(1);
  std::vector<double> sequential_draws(20, 0.0);
  sequential.map_trials(
      20, util::Rng(5),
      [](std::size_t /*i*/, util::Rng& r) { return r.uniform(0.0, 1.0); },
      [&](std::size_t i, double v) { sequential_draws[i] = v; });
  EXPECT_EQ(parallel_draws, sequential_draws);
}

TEST(ShardedRunnerTest, EvalExceptionRethrownAtItsAttemptIndex) {
  // A worker-side exception surfaces on the calling thread, after the
  // commits of every earlier attempt and none of the later ones — the same
  // observable order as the sequential loop.
  for (const int threads : {1, 4}) {
    ShardedRunner runner(threads, /*clamp_to_hardware=*/false);
    std::vector<std::size_t> folded;
    EXPECT_THROW(
        runner.map_trials(
            8, util::Rng(1),
            [](std::size_t i, util::Rng&) -> int {
              if (i == 3) throw std::runtime_error("attempt 3 failed");
              return static_cast<int>(i);
            },
            [&](std::size_t i, int) { folded.push_back(i); }),
        std::runtime_error);
    EXPECT_EQ(folded, (std::vector<std::size_t>{0, 1, 2})) << threads;
  }
}

TEST(ShardedRunnerTest, RunAttemptsStopsAtNeededCommits) {
  // Commit every other attempt: 10 commits need exactly 19 attempts, and
  // the attempt-ordered stop discards any over-speculated evaluations.
  ShardedRunner runner(4, /*clamp_to_hardware=*/false);
  std::vector<std::size_t> committed;
  const AttemptLoopStats stats = runner.run_attempts(
      10, 1000, util::Rng(2),
      [](std::size_t i, util::Rng&) { return i; },
      [&](std::size_t i, std::size_t) {
        if (i % 2 != 0) return false;
        committed.push_back(i);
        return true;
      });
  EXPECT_FALSE(stats.exhausted);
  EXPECT_EQ(stats.attempts, 19u);
  EXPECT_EQ(committed.size(), 10u);
  for (std::size_t i = 0; i < committed.size(); ++i)
    EXPECT_EQ(committed[i], 2 * i);
}

TEST(ShardedRunnerTest, WorkerCountClampsToHardware) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int hw_threads = hw == 0 ? 1 : static_cast<int>(hw);

  ShardedRunner clamped(1000);
  EXPECT_EQ(clamped.threads(), 1000);          // requested value is reported
  EXPECT_EQ(clamped.workers(), std::min(1000, hw_threads));

  ShardedRunner unclamped(3, /*clamp_to_hardware=*/false);
  EXPECT_EQ(unclamped.threads(), 3);
  EXPECT_EQ(unclamped.workers(), 3);

  // Clamped and unclamped engines agree bit-for-bit (thread-count
  // invariance covers the effective worker count too).
  ExperimentEngine clamped_engine(1000);
  ExperimentEngine unclamped_engine(3, /*clamp_to_hardware=*/false);
  EXPECT_EQ(clamped_engine.workers(), clamped.workers());
  PointConfig config;
  config.gen.cores = 4;
  config.gen.task_count = 2;
  config.gen.total_utilization = 1.0;
  config.trials = 10;
  const util::Rng rng(23);
  const PointResult a = clamped_engine.evaluate_point(global_pair(), config, rng);
  const PointResult b = unclamped_engine.evaluate_point(global_pair(), config, rng);
  EXPECT_TRUE(a == b);
}

TEST(NecessityTest, PartitionedRequiresPartition) {
  // The simulation oracle behind the sweeps' sim columns: a partitioned run
  // needs a placement, and the worst-fit one of a trivial set is clean.
  sim::OracleOptions options;
  options.policy = sim::SchedulingPolicy::kPartitioned;
  EXPECT_THROW(sim::oracle_verdict(easy_set(), options), std::invalid_argument);

  const TaskSet ts = easy_set();
  const auto wf = analysis::partition_worst_fit(ts);
  ASSERT_TRUE(wf.success());
  options.partition = *wf.partition;
  EXPECT_TRUE(sim::oracle_verdict(ts, options).safe());
}

TEST(ReportJsonTest, ContainsEveryAnalysis) {
  std::ostringstream os;
  write_analysis_report(os, limited_only_set());
  const std::string out = os.str();
  EXPECT_EQ(out.front(), '{');
  EXPECT_EQ(out.back(), '}');
  for (const char* section :
       {"\"tasks\":[", "\"global_baseline\":", "\"global_limited\":",
        "\"global_limited_antichain\":", "\"partitioned_worst_fit\":",
        "\"partitioned_algorithm1\":", "\"federated_classic\":",
        "\"federated_limited\":", "\"concurrency_lower_bound\":",
        "\"max_affecting_forks\":"}) {
    EXPECT_NE(out.find(section), std::string::npos) << section;
  }
  // The limited-only set: baseline accepts, limited rejects with inf bound.
  EXPECT_NE(out.find("\"response_time\":\"inf\""), std::string::npos);
}

TEST(ReportJsonTest, RoundTripsThroughJsonParser) {
  // write → util::parse_json → compare: the exported report is valid JSON
  // whose parsed content matches the analyses it claims to contain.
  std::ostringstream os;
  write_analysis_report(os, easy_set());
  const util::JsonValue doc = util::parse_json(os.str());
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.contains("tasks"));
  EXPECT_EQ(doc.at("tasks").as_array().size(), 1u);
  EXPECT_TRUE(doc.at("global_baseline").at("schedulable").as_bool());
  EXPECT_TRUE(doc.at("global_limited").at("schedulable").as_bool());

  // The writer is deterministic: a second export of the same set is
  // byte-identical (what lets CI diff committed reports).
  std::ostringstream os2;
  write_analysis_report(os2, easy_set());
  EXPECT_EQ(os.str(), os2.str());

  // Non-finite bounds survive the trip as the writer's "inf" strings.
  std::ostringstream os3;
  write_analysis_report(os3, limited_only_set());
  const util::JsonValue limited = util::parse_json(os3.str());
  ASSERT_TRUE(limited.is_object());
  EXPECT_FALSE(limited.at("global_limited").at("schedulable").as_bool());
}

TEST(ReportJsonTest, ReportsAlgorithm1Failure) {
  // Single-core blocking task: Algorithm 1 must fail, and the report says
  // why instead of omitting the section.
  std::ostringstream os;
  write_analysis_report(os, limited_only_set());
  const std::string out = os.str();
  EXPECT_NE(out.find("\"partition_found\":false"), std::string::npos);
  EXPECT_NE(out.find("\"failure\":"), std::string::npos);
}

}  // namespace
}  // namespace rtpool::exp
