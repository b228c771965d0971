// End-to-end integration tests: whole pipelines across modules.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "analysis/analyzer.h"
#include "analysis/deadlock.h"
#include "analysis/global_rta.h"
#include "analysis/partition.h"
#include "analysis/partitioned_rta.h"
#include "exec/graph_executor.h"
#include "exec/thread_pool.h"
#include "exp/report_json.h"
#include "gen/taskset_generator.h"
#include "model/io.h"
#include "sim/engine.h"
#include "sim/trace_json.h"

namespace rtpool {
namespace {

/// generate -> save -> load -> analyze: the round trip must preserve every
/// analysis verdict bit-for-bit (the text format stores full precision).
TEST(PipelineTest, SerializationPreservesVerdicts) {
  util::Rng rng(2019);
  gen::TaskSetParams params;
  params.cores = 8;
  params.task_count = 5;
  params.total_utilization = 3.0;
  const model::TaskSet original = gen::generate_task_set(params, rng);

  std::stringstream ss;
  model::write_task_set(ss, original);
  const model::TaskSet loaded = model::read_task_set(ss);

  for (const char* name : {"global-baseline", "global-limited",
                           "partitioned-baseline", "partitioned-proposed"}) {
    const analysis::Analyzer& a = analysis::get_analyzer(name);
    EXPECT_EQ(a.analyze(original).schedulable, a.analyze(loaded).schedulable)
        << name;
  }

  analysis::GlobalRtaOptions limited;
  limited.limited_concurrency = true;
  const auto ra = analysis::analyze_global(original, limited);
  const auto rb = analysis::analyze_global(loaded, limited);
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_DOUBLE_EQ(ra.per_task[i].response_time, rb.per_task[i].response_time);
}

/// generate -> Algorithm 1 -> RTA-accepted -> simulate with the SAME
/// partition, including sporadic arrivals: no miss, no deadlock, and the
/// chrome trace of the run is well formed.
TEST(PipelineTest, AnalyzedPartitionSurvivesSimulationAndExports) {
  util::Rng rng(7);
  gen::TaskSetParams params;
  params.cores = 4;
  params.task_count = 3;
  params.total_utilization = 1.2;

  int checked = 0;
  for (int trial = 0; trial < 20 && checked < 5; ++trial) {
    const model::TaskSet ts = gen::generate_task_set(params, rng);
    const auto alg1 = analysis::partition_algorithm1(ts);
    if (!alg1.success()) continue;
    const auto rta = analysis::analyze_partitioned(ts, *alg1.partition);
    if (!rta.schedulable) continue;
    ++checked;

    sim::SimConfig cfg;
    cfg.policy = sim::SchedulingPolicy::kPartitioned;
    cfg.partition = *alg1.partition;
    cfg.collect_trace = true;
    cfg.release_jitter_frac = 0.3;
    cfg.seed = static_cast<std::uint64_t>(trial);
    double max_period = 0.0;
    for (const auto& t : ts.tasks()) max_period = std::max(max_period, t.period());
    cfg.horizon = 6.0 * max_period;

    const auto run = sim::simulate(ts, cfg);
    EXPECT_FALSE(run.deadlock.has_value()) << "trial=" << trial;
    EXPECT_FALSE(run.any_deadline_miss) << "trial=" << trial;

    std::ostringstream os;
    sim::write_chrome_trace(os, ts, run);
    EXPECT_EQ(os.str().front(), '{');
    EXPECT_EQ(os.str().back(), '}');
  }
  EXPECT_GE(checked, 1);
}

/// The analysis report of a generated set agrees with direct analysis calls
/// on headline verdicts (spot-check via substring matching).
TEST(PipelineTest, JsonReportMatchesDirectAnalysis) {
  util::Rng rng(99);
  gen::TaskSetParams params;
  params.cores = 8;
  params.task_count = 4;
  params.total_utilization = 2.0;
  const model::TaskSet ts = gen::generate_task_set(params, rng);

  std::ostringstream os;
  exp::write_analysis_report(os, ts);
  const std::string report = os.str();

  analysis::GlobalRtaOptions baseline;
  const bool base_ok = analysis::analyze_global(ts, baseline).schedulable;
  const std::string needle = std::string("\"global_baseline\":{\"schedulable\":") +
                             (base_ok ? "true" : "false");
  EXPECT_NE(report.find(needle), std::string::npos) << report.substr(0, 400);
}

/// Analysis-accepted task executed on REAL threads: generate until the
/// limited-concurrency test accepts a single-task set on m workers, then
/// run it with blocking semantics on an m-worker pool — it must finish.
TEST(PipelineTest, AnalysisAcceptedTaskRunsOnRealPool) {
  util::Rng rng(5);
  gen::TaskSetParams params;
  params.cores = 4;
  params.task_count = 1;
  params.total_utilization = 0.5;

  for (int trial = 0; trial < 5; ++trial) {
    const model::TaskSet ts = gen::generate_task_set(params, rng);
    analysis::GlobalRtaOptions limited;
    limited.limited_concurrency = true;
    if (!analysis::analyze_global(ts, limited).schedulable) continue;

    exec::ThreadPool pool(ts.core_count());
    exec::GraphExecutor executor(pool, ts.task(0));
    exec::ExecOptions options;
    options.watchdog = std::chrono::seconds(10);
    const auto report = executor.run_blocking(options);
    EXPECT_TRUE(report.completed) << "trial=" << trial;
    EXPECT_EQ(report.nodes_executed, ts.task(0).node_count());
  }
}

/// Robustness: random single-character mutations of a valid .taskset file
/// must either parse into a valid set or throw ParseError/ModelError —
/// never crash or produce an invalid task object.
class IoMutationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoMutationTest, MutatedInputNeverCrashes) {
  util::Rng rng(GetParam());
  gen::TaskSetParams params;
  params.cores = 4;
  params.task_count = 2;
  params.total_utilization = 1.0;
  const model::TaskSet ts = gen::generate_task_set(params, rng);
  std::stringstream ss;
  model::write_task_set(ss, ts);
  std::string text = ss.str();

  for (int mutation = 0; mutation < 50; ++mutation) {
    std::string mutated = text;
    const std::size_t pos = rng.index(mutated.size());
    const char replacement = static_cast<char>(rng.uniform_int(32, 126));
    mutated[pos] = replacement;
    std::stringstream in(mutated);
    try {
      const model::TaskSet parsed = model::read_task_set(in);
      // If it parsed, the resulting tasks are fully validated objects:
      // exercising an analysis must not blow up.
      for (const model::DagTask& task : parsed.tasks())
        (void)analysis::check_deadlock_free_global(task, parsed.core_count());
    } catch (const model::ParseError&) {
    } catch (const model::ModelError&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoMutationTest,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace rtpool
