// Unit tests for the discrete-event thread-pool simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/analyzer.h"
#include "analysis/partition.h"
#include "gen/scenario_space.h"
#include "gen/taskset_generator.h"
#include "model/builder.h"
#include "sim/engine.h"
#include "sim/gantt.h"
#include "sim/trace_json.h"

namespace rtpool::sim {
namespace {

using analysis::NodeAssignment;
using analysis::TaskSetPartition;
using analysis::ThreadId;
using model::DagTask;
using model::DagTaskBuilder;
using model::NodeId;
using model::TaskSet;

/// pre(1) BF(2) {4,5,6}(BC) BJ(3) post(1): the Figure 1(a) shape.
DagTask fig1_task(const std::string& name = "fig1", util::Time period = 100.0) {
  DagTaskBuilder b(name);
  const NodeId pre = b.add_node(1.0);
  const auto fj = b.add_blocking_fork_join(2.0, 3.0, {4.0, 5.0, 6.0});
  const NodeId post = b.add_node(1.0);
  b.add_edge(pre, fj.fork);
  b.add_edge(fj.join, post);
  b.period(period);
  return b.build();
}

/// Same DAG with non-blocking typing.
DagTask fig1_nonblocking(const std::string& name = "fig1nb",
                         util::Time period = 100.0) {
  DagTaskBuilder b(name);
  const NodeId pre = b.add_node(1.0);
  const auto fj = b.add_fork_join(2.0, 3.0, {4.0, 5.0, 6.0});
  const NodeId post = b.add_node(1.0);
  b.add_edge(pre, fj.fork);
  b.add_edge(fj.join, post);
  b.period(period);
  return b.build();
}

/// Two concurrent blocking regions (deadlocks on m = 2): Figure 1(c).
DagTask two_region_task(util::Time period = 100.0) {
  DagTaskBuilder b("replicas");
  const NodeId src = b.add_node(1.0);
  const auto r1 = b.add_blocking_fork_join(1.0, 1.0, {2.0, 2.0});
  const auto r2 = b.add_blocking_fork_join(1.0, 1.0, {2.0, 2.0});
  const NodeId snk = b.add_node(1.0);
  b.add_edge(src, r1.fork);
  b.add_edge(src, r2.fork);
  b.add_edge(r1.join, snk);
  b.add_edge(r2.join, snk);
  b.period(period);
  return b.build();
}

SimConfig global_config(util::Time horizon) {
  SimConfig cfg;
  cfg.policy = SchedulingPolicy::kGlobal;
  cfg.horizon = horizon;
  return cfg;
}

TEST(SimTest, SequentialChain) {
  DagTaskBuilder b("chain");
  const NodeId n0 = b.add_node(1.0);
  const NodeId n1 = b.add_node(2.0);
  const NodeId n2 = b.add_node(3.0);
  b.add_edge(n0, n1);
  b.add_edge(n1, n2);
  b.period(50.0);
  TaskSet ts(2);
  ts.add(b.build());

  const SimResult r = simulate(ts, global_config(50.0));
  ASSERT_FALSE(r.deadlock.has_value());
  ASSERT_EQ(r.per_task[0].jobs_completed, 1u);
  EXPECT_NEAR(r.max_response(0), 6.0, 1e-9);
  EXPECT_FALSE(r.any_deadline_miss);
  EXPECT_EQ(r.per_task[0].min_available_concurrency, 2);
}

TEST(SimTest, NonBlockingForkJoinRunsInParallel) {
  TaskSet ts(2);
  ts.add(fig1_nonblocking());
  const SimResult r = simulate(ts, global_config(100.0));
  ASSERT_EQ(r.per_task[0].jobs_completed, 1u);
  // pre@1, fork@3; children on 2 threads: {4,6} on A, {5} then idle... FIFO:
  // c4 and c5 start at 3 (two threads), c4 ends 7, c6 runs 7..13, c5 ends 8.
  // join ready at 13, ends 16; post ends 17.
  EXPECT_NEAR(r.max_response(0), 17.0, 1e-9);
  EXPECT_EQ(r.per_task[0].min_available_concurrency, 2);
}

TEST(SimTest, BlockingForkJoinLosesAThread) {
  TaskSet ts(2);
  ts.add(fig1_task());
  const SimResult r = simulate(ts, global_config(100.0));
  ASSERT_FALSE(r.deadlock.has_value());
  ASSERT_EQ(r.per_task[0].jobs_completed, 1u);
  // Children serialize on the single remaining thread: 4+5+6 after t=3,
  // join 18..21, post 21..22 (Figure 1(b)).
  EXPECT_NEAR(r.max_response(0), 22.0, 1e-9);
  // While the fork is suspended only one thread remains available.
  EXPECT_EQ(r.per_task[0].min_available_concurrency, 1);
}

TEST(SimTest, TwoConcurrentRegionsDeadlockOnTwoThreads) {
  TaskSet ts(2);
  ts.add(two_region_task());
  const SimResult r = simulate(ts, global_config(100.0));
  ASSERT_TRUE(r.deadlock.has_value());
  EXPECT_EQ(r.deadlock->task_index, 0u);
  // Both forks executed (1 each after src@1), then both threads suspended.
  EXPECT_NEAR(r.deadlock->time, 2.0, 1e-9);
  EXPECT_EQ(r.per_task[0].min_available_concurrency, 0);
  EXPECT_TRUE(r.any_deadline_miss);
}

TEST(SimTest, TwoConcurrentRegionsFineOnThreeThreads) {
  TaskSet ts(3);
  ts.add(two_region_task());
  const SimResult r = simulate(ts, global_config(100.0));
  EXPECT_FALSE(r.deadlock.has_value());
  EXPECT_EQ(r.per_task[0].jobs_completed, 1u);
  EXPECT_GE(r.per_task[0].min_available_concurrency, 1);
}

TEST(SimTest, PeriodicJobsAndDeadlineMisses) {
  // C=6 chain, T=D=8, m=1, two tasks -> the lp task misses.
  TaskSet ts(1);
  {
    DagTaskBuilder b("hp");
    b.add_node(6.0);
    b.period(8.0).priority(0);
    ts.add(b.build());
  }
  {
    DagTaskBuilder b("lp");
    b.add_node(5.0);  // U = 6/8 + 5/16 > 1: the lp task must miss
    b.period(16.0).priority(1);
    ts.add(b.build());
  }
  const SimResult r = simulate(ts, global_config(64.0));
  EXPECT_EQ(r.per_task[0].jobs_released, 8u);
  EXPECT_EQ(r.per_task[0].deadline_misses, 0u);
  EXPECT_TRUE(r.any_deadline_miss);
  EXPECT_GT(r.per_task[1].deadline_misses, 0u);
}

TEST(SimTest, PreemptionByHigherPriority) {
  // lp starts first epoch alone? No: synchronous release at 0; hp (prio 0)
  // takes the core; lp C=3 runs after hp C=2: R_lp = 5 on m=1.
  TaskSet ts(1);
  {
    DagTaskBuilder b("hp");
    b.add_node(2.0);
    b.period(10.0).priority(0);
    ts.add(b.build());
  }
  {
    DagTaskBuilder b("lp");
    b.add_node(3.0);
    b.period(20.0).priority(1);
    ts.add(b.build());
  }
  const SimResult r = simulate(ts, global_config(20.0));
  EXPECT_NEAR(r.max_response(1), 5.0, 1e-9);
  EXPECT_NEAR(r.max_response(0), 2.0, 1e-9);
}

TEST(SimTest, TraceCoversExecution) {
  TaskSet ts(2);
  ts.add(fig1_task());
  SimConfig cfg = global_config(100.0);
  cfg.collect_trace = true;
  const SimResult r = simulate(ts, cfg);
  ASSERT_FALSE(r.trace.empty());
  double busy_time = 0.0;
  for (const ExecutionInterval& iv : r.trace) {
    EXPECT_LT(iv.start, iv.end);
    EXPECT_LT(iv.core, 2u);
    busy_time += iv.end - iv.start;
  }
  EXPECT_NEAR(busy_time, ts.task(0).volume(), 1e-6);
}

TEST(GanttTest, RendersRowsPerCoreWithLegend) {
  TaskSet ts(2);
  ts.add(fig1_task());
  SimConfig cfg = global_config(100.0);
  cfg.collect_trace = true;
  const SimResult r = simulate(ts, cfg);

  GanttOptions opts;
  opts.width = 40;
  const std::string art = render_ascii_gantt(ts, r.trace, opts);
  ASSERT_FALSE(art.empty());
  EXPECT_NE(art.find("core  0 |"), std::string::npos);
  EXPECT_NE(art.find("core  1 |"), std::string::npos);
  EXPECT_NE(art.find("A=fig1"), std::string::npos);
  EXPECT_NE(art.find('A'), std::string::npos);  // some execution is drawn
  // Two core rows of exactly `width` cells between the pipes.
  const auto row_start = art.find("core  0 |") + 9;
  const auto row_end = art.find('|', row_start);
  EXPECT_EQ(row_end - row_start, 40u);
}

TEST(GanttTest, EmptyTraceAndWindowEdgeCases) {
  TaskSet ts(1);
  ts.add(fig1_task());
  EXPECT_EQ(render_ascii_gantt(ts, {}), "");

  std::vector<ExecutionInterval> trace{{0, 0, 0, 1.0, 2.0}};
  GanttOptions opts;
  opts.start = 5.0;
  opts.end = 5.0;  // empty window
  EXPECT_EQ(render_ascii_gantt(ts, trace, opts), "");

  opts.end = 10.0;  // interval entirely left of the window: all idle
  const std::string art = render_ascii_gantt(ts, trace, opts);
  const auto row_start = art.find("core  0 |") + 9;
  const auto row_end = art.find('|', row_start);
  const std::string row = art.substr(row_start, row_end - row_start);
  EXPECT_EQ(row.find('A'), std::string::npos);
  EXPECT_EQ(row, std::string(row.size(), '.'));
}

TEST(SimTest, StopOnMiss) {
  TaskSet ts(1);
  DagTaskBuilder b("t");
  b.add_node(5.0);
  b.period(4.0).deadline(4.0);
  ts.add(b.build());
  SimConfig cfg = global_config(40.0);
  cfg.stop_on_miss = true;
  const SimResult r = simulate(ts, cfg);
  EXPECT_TRUE(r.any_deadline_miss);
  // Halted after the very first completion (which missed).
  EXPECT_LE(r.jobs.size(), 3u);
}

TEST(SimTest, SporadicJitterDelaysReleases) {
  TaskSet ts(1);
  DagTaskBuilder b("t");
  b.add_node(1.0);
  b.period(10.0);
  ts.add(b.build());
  SimConfig cfg = global_config(100.0);
  cfg.release_jitter_frac = 0.5;
  cfg.seed = 99;
  const SimResult r = simulate(ts, cfg);
  // Strictly periodic would fit 10 jobs; jitter must reduce that.
  EXPECT_LT(r.per_task[0].jobs_released, 10u);
  EXPECT_GE(r.per_task[0].jobs_released, 6u);
  EXPECT_FALSE(r.any_deadline_miss);
}

TEST(SimTest, PartitionedQueueBehindSuspendedThreadDelays) {
  // Blocking region with both children on the *fork's* thread: the children
  // can never run -> deadlock (the reduced-concurrency hazard, Lemma 3).
  TaskSet ts(2);
  ts.add(fig1_task());
  const DagTask& t = ts.task(0);
  const auto& region = t.blocking_regions()[0];

  NodeAssignment bad{std::vector<ThreadId>(t.node_count(), 0)};
  SimConfig cfg;
  cfg.policy = SchedulingPolicy::kPartitioned;
  cfg.horizon = 100.0;
  cfg.partition = TaskSetPartition{{bad}};
  const SimResult r = simulate(ts, cfg);
  ASSERT_TRUE(r.deadlock.has_value());

  // Segregating the members on the other thread resolves it.
  NodeAssignment good = bad;
  region.members.for_each([&](std::size_t v) { good.thread_of[v] = 1; });
  cfg.partition = TaskSetPartition{{good}};
  const SimResult ok = simulate(ts, cfg);
  EXPECT_FALSE(ok.deadlock.has_value());
  EXPECT_EQ(ok.per_task[0].jobs_completed, 1u);
  // Children serialized on thread 1: same 22 as the global 2-thread case.
  EXPECT_NEAR(ok.max_response(0), 22.0, 1e-9);
}

TEST(SimTest, WorkStealingRescuesBadPartition) {
  // All nodes on the fork's thread deadlocks under strict per-thread FIFO
  // (see PartitionedQueueBehindSuspendedThreadDelays); with work stealing
  // the idle sibling steals the stranded children (footnote 1 behaviour).
  TaskSet ts(2);
  ts.add(fig1_task());
  SimConfig cfg;
  cfg.policy = SchedulingPolicy::kPartitioned;
  cfg.horizon = 100.0;
  cfg.partition = TaskSetPartition{
      {NodeAssignment{std::vector<ThreadId>(ts.task(0).node_count(), 0)}}};

  const SimResult strict = simulate(ts, cfg);
  ASSERT_TRUE(strict.deadlock.has_value());

  cfg.work_stealing = true;
  const SimResult stealing = simulate(ts, cfg);
  EXPECT_FALSE(stealing.deadlock.has_value());
  EXPECT_EQ(stealing.per_task[0].jobs_completed, 1u);
  // Thread 1 serializes the stolen children, like the global schedule.
  EXPECT_NEAR(stealing.max_response(0), 22.0, 1e-9);
}

TEST(SimTest, WorkStealingMatchesGlobalBehaviour) {
  // Footnote 1: per-thread queues + stealing replicate global scheduling.
  TaskSet ts(3);
  ts.add(two_region_task());

  SimConfig global_cfg = global_config(200.0);
  const SimResult global_run = simulate(ts, global_cfg);

  SimConfig stealing_cfg;
  stealing_cfg.policy = SchedulingPolicy::kPartitioned;
  stealing_cfg.horizon = 200.0;
  stealing_cfg.work_stealing = true;
  // Pathological static assignment: everything on thread 0.
  stealing_cfg.partition = TaskSetPartition{
      {NodeAssignment{std::vector<ThreadId>(ts.task(0).node_count(), 0)}}};
  const SimResult stealing_run = simulate(ts, stealing_cfg);

  ASSERT_FALSE(global_run.deadlock.has_value());
  ASSERT_FALSE(stealing_run.deadlock.has_value());
  EXPECT_EQ(stealing_run.per_task[0].jobs_completed,
            global_run.per_task[0].jobs_completed);
}

TEST(TraceJsonTest, EmitsValidChromeTrace) {
  TaskSet ts(2);
  ts.add(fig1_task());
  SimConfig cfg = global_config(100.0);
  cfg.collect_trace = true;
  const SimResult r = simulate(ts, cfg);

  std::ostringstream os;
  write_chrome_trace(os, ts, r);
  const std::string out = os.str();
  EXPECT_EQ(out.front(), '{');
  EXPECT_EQ(out.back(), '}');
  EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("fig1/v"), std::string::npos);
  EXPECT_NE(out.find("\"cat\":\"BF\""), std::string::npos);
  EXPECT_EQ(out.find("DEADLOCK"), std::string::npos);
}

TEST(TraceJsonTest, MarksDeadlocks) {
  TaskSet ts(2);
  ts.add(two_region_task());
  SimConfig cfg = global_config(100.0);
  cfg.collect_trace = true;
  const SimResult r = simulate(ts, cfg);
  ASSERT_TRUE(r.deadlock.has_value());

  std::ostringstream os;
  write_chrome_trace(os, ts, r);
  EXPECT_NE(os.str().find("DEADLOCK"), std::string::npos);
}

TEST(SimTest, ConfigValidation) {
  TaskSet ts(2);
  ts.add(fig1_task());
  SimConfig cfg;
  cfg.horizon = 0.0;
  EXPECT_THROW(simulate(ts, cfg), std::invalid_argument);

  cfg.horizon = 10.0;
  cfg.policy = SchedulingPolicy::kPartitioned;
  EXPECT_THROW(simulate(ts, cfg), std::invalid_argument);  // no partition

  cfg.partition = TaskSetPartition{};  // wrong size
  EXPECT_THROW(simulate(ts, cfg), std::invalid_argument);

  cfg.partition = TaskSetPartition{{NodeAssignment{
      std::vector<ThreadId>(ts.task(0).node_count(), 5)}}};  // bad thread id
  EXPECT_THROW(simulate(ts, cfg), std::invalid_argument);
}

TEST(SimTest, RepeatedRunsAreBitIdentical) {
  // The simulator is a pure function of (task set, config): every field of
  // SimResult — job records, per-task stats, the full trace — must be
  // bit-identical across repeated runs, under both policies and across
  // pool sizes.
  for (const std::size_t m : {2u, 3u, 5u}) {
    TaskSet ts(m);
    ts.add(fig1_task("a", 40.0));
    ts.add(fig1_nonblocking("b", 60.0));
    SimConfig cfg = global_config(120.0);
    cfg.collect_trace = true;
    EXPECT_EQ(simulate(ts, cfg), simulate(ts, cfg)) << "global m=" << m;

    TaskSetPartition partition;
    for (std::size_t t = 0; t < ts.size(); ++t)
      partition.per_task.push_back(NodeAssignment{std::vector<ThreadId>(
          ts.task(t).node_count(), static_cast<ThreadId>(t % m))});
    cfg.policy = SchedulingPolicy::kPartitioned;
    cfg.partition = partition;
    EXPECT_EQ(simulate(ts, cfg), simulate(ts, cfg)) << "partitioned m=" << m;
  }
}

TEST(SimTest, JitterIsDeterministicPerSeed) {
  TaskSet ts(2);
  ts.add(fig1_task("a", 25.0));
  SimConfig cfg = global_config(200.0);
  cfg.release_jitter_frac = 0.2;
  cfg.seed = 7;
  EXPECT_EQ(simulate(ts, cfg), simulate(ts, cfg));
  SimConfig other = cfg;
  other.seed = 8;
  EXPECT_NE(simulate(ts, cfg), simulate(ts, other));
}

TEST(OracleVerdictTest, ClassifiesOutcomes) {
  // Clean horizon.
  TaskSet easy(2);
  easy.add(fig1_task("easy", 100.0));
  OracleOptions options;
  const SimVerdict ok = oracle_verdict(easy, options);
  EXPECT_TRUE(ok.safe());
  EXPECT_EQ(ok.outcome, SimOutcome::kOk);
  EXPECT_DOUBLE_EQ(ok.horizon, 400.0);  // 4 windows x max period
  ASSERT_NE(ok.result, nullptr);
  EXPECT_GT(ok.result->per_task[0].jobs_completed, 0u);

  // Deadline miss: fig1 needs 22 time units sequentialized on m=2.
  TaskSet miss(2);
  miss.add(fig1_task("tight", 20.0));
  const SimVerdict missed = oracle_verdict(miss, options);
  EXPECT_EQ(missed.outcome, SimOutcome::kDeadlineMiss);
  EXPECT_EQ(missed.first_violation_task, 0u);
  EXPECT_NE(missed.description.find("tight"), std::string::npos);

  // Deadlock outranks the misses it causes.
  TaskSet dead(2);
  dead.add(two_region_task(100.0));
  const SimVerdict stalled = oracle_verdict(dead, options);
  EXPECT_EQ(stalled.outcome, SimOutcome::kDeadlock);
  EXPECT_FALSE(stalled.safe());
}

TEST(OracleVerdictTest, OutcomeNamesRoundTrip) {
  for (const SimOutcome outcome :
       {SimOutcome::kOk, SimOutcome::kDeadlineMiss, SimOutcome::kDeadlock})
    EXPECT_EQ(parse_sim_outcome(to_string(outcome)), outcome);
  EXPECT_THROW(parse_sim_outcome("livelock"), std::invalid_argument);
}

/// The fixed fig1-on-two-cores trace both golden renders below lock in.
SimResult golden_result(TaskSet& ts) {
  ts.add(fig1_task("fig1", 100.0));
  SimConfig cfg = global_config(30.0);
  cfg.collect_trace = true;
  return simulate(ts, cfg);
}

TEST(GanttTest, GoldenRender) {
  TaskSet ts(2);
  const SimResult r = golden_result(ts);
  GanttOptions options;
  options.width = 40;
  // The blocking fork suspends one worker, so the whole 22-unit job runs
  // on core 0 while core 1 idles — the render is locked byte-for-byte.
  EXPECT_EQ(render_ascii_gantt(ts, r.trace, options),
            "        t=0                                   22\n"
            "core  0 |AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA|\n"
            "core  1 |........................................|\n"
            "legend: A=fig1\n");
}

TEST(TraceJsonTest, GoldenRender) {
  TaskSet ts(2);
  const SimResult r = golden_result(ts);
  std::ostringstream os;
  write_chrome_trace(os, ts, r);
  EXPECT_EQ(
      os.str(),
      R"({"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"core 0"}},)"
      R"({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"core 1"}},)"
      R"({"name":"fig1/v0","cat":"NB","ph":"X","pid":1,"tid":0,"ts":0,"dur":1,"args":{"task":"fig1","node":0,"type":"NB"}},)"
      R"({"name":"fig1/v1","cat":"BF","ph":"X","pid":1,"tid":0,"ts":1,"dur":2,"args":{"task":"fig1","node":1,"type":"BF"}},)"
      R"({"name":"fig1/v3","cat":"BC","ph":"X","pid":1,"tid":0,"ts":3,"dur":4,"args":{"task":"fig1","node":3,"type":"BC"}},)"
      R"({"name":"fig1/v4","cat":"BC","ph":"X","pid":1,"tid":0,"ts":7,"dur":5,"args":{"task":"fig1","node":4,"type":"BC"}},)"
      R"({"name":"fig1/v5","cat":"BC","ph":"X","pid":1,"tid":0,"ts":12,"dur":6,"args":{"task":"fig1","node":5,"type":"BC"}},)"
      R"({"name":"fig1/v2","cat":"BJ","ph":"X","pid":1,"tid":0,"ts":18,"dur":3,"args":{"task":"fig1","node":2,"type":"BJ"}},)"
      R"({"name":"fig1/v6","cat":"NB","ph":"X","pid":1,"tid":0,"ts":21,"dur":1,"args":{"task":"fig1","node":6,"type":"NB"}}],)"
      R"("displayTimeUnit":"ms"})");
}

TEST(SimTest, BacklogPreservesReleaseTimes) {
  // One task, C=7, T=5: every job overruns; the backlog grows and response
  // times accumulate: job k completes at 7(k+1), released at 5k.
  TaskSet ts(1);
  DagTaskBuilder b("t");
  b.add_node(7.0);
  b.period(5.0);
  ts.add(b.build());
  const SimResult r = simulate(ts, global_config(20.0));
  ASSERT_GE(r.jobs.size(), 2u);
  EXPECT_NEAR(r.jobs[0].response, 7.0, 1e-9);
  EXPECT_NEAR(r.jobs[1].response, 9.0, 1e-9);  // released 5, done 14
  EXPECT_TRUE(r.jobs[1].deadline_miss);
}

TEST(SimTest, CutOffJobEndsAtHorizonNotAtLastEvent) {
  // m = 1: hp runs 0..5, then lp needs 5..15 but its deadline is 12. The
  // next event (lp's completion at 15) lies past the horizon 14, so lp is
  // cut off — at the horizon, after its deadline: a miss.
  TaskSet ts(1);
  {
    DagTaskBuilder b("hp");
    b.add_node(5.0);
    b.period(20.0).priority(0);
    ts.add(b.build());
  }
  {
    DagTaskBuilder b("lp");
    b.add_node(10.0);
    b.period(20.0).deadline(12.0).priority(1);
    ts.add(b.build());
  }
  const SimResult r = simulate(ts, global_config(14.0));
  EXPECT_TRUE(r.any_deadline_miss);
  ASSERT_EQ(r.jobs.size(), 2u);
  const JobRecord& lp = r.jobs[1];
  EXPECT_EQ(lp.task_index, 1u);
  EXPECT_FALSE(lp.completed);
  EXPECT_TRUE(lp.deadline_miss);
  EXPECT_DOUBLE_EQ(lp.completion, 14.0);
  EXPECT_DOUBLE_EQ(lp.response, 14.0);

  OracleOptions options;
  options.windows = 0.7;  // horizon 0.7 x 20 = 14
  const SimVerdict verdict = oracle_verdict(ts, options);
  EXPECT_EQ(verdict.outcome, SimOutcome::kDeadlineMiss);
  EXPECT_EQ(verdict.first_violation_task, 1u);
}

/// FNV-1a over a text rendering of every SimResult field (doubles as %.17g).
void fold_result(std::uint64_t& hash, const SimResult& r) {
  std::string text;
  char buf[64];
  const auto num = [&](double x) {
    std::snprintf(buf, sizeof buf, "%.17g,", x);
    text += buf;
  };
  const auto integer = [&](long long x) { text += std::to_string(x) + ','; };
  for (const JobRecord& j : r.jobs) {
    integer(static_cast<long long>(j.task_index));
    integer(static_cast<long long>(j.job_number));
    num(j.release);
    num(j.completion);
    num(j.response);
    integer(j.completed);
    integer(j.deadline_miss);
  }
  text += '|';
  for (const TaskStats& s : r.per_task) {
    integer(static_cast<long long>(s.jobs_released));
    integer(static_cast<long long>(s.jobs_completed));
    integer(static_cast<long long>(s.deadline_misses));
    num(s.max_response);
    integer(s.min_available_concurrency);
  }
  text += '|';
  if (r.deadlock.has_value()) {
    integer(static_cast<long long>(r.deadlock->task_index));
    num(r.deadlock->time);
    text += r.deadlock->description;
  }
  text += '|';
  for (const ExecutionInterval& iv : r.trace) {
    integer(static_cast<long long>(iv.core));
    integer(static_cast<long long>(iv.task_index));
    integer(static_cast<long long>(iv.node));
    num(iv.start);
    num(iv.end);
  }
  integer(r.any_deadline_miss);
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
}

TEST(SimGoldenTest, CorpusSetDigests) {
  // Whole-SimResult digests over about 100 corpus sets (m = 4, one window
  // of the longest period) under five configurations. Any change to a job
  // record, a statistic, a deadlock report or a trace interval moves them.
  const gen::ScenarioSpace space = gen::ScenarioSpace::corpus_default();
  const std::size_t cores = 4;
  const double max_node_releases = 6000.0;  // keeps the case fast

  constexpr std::size_t kConfigs = 5;
  std::uint64_t digest[kConfigs];
  std::size_t runs[kConfigs] = {};
  for (std::uint64_t& h : digest) h = 14695981039346656037ULL;
  const auto run = [&](std::size_t k, const TaskSet& ts, const SimConfig& cfg) {
    fold_result(digest[k], simulate(ts, cfg));
    ++runs[k];
  };

  std::size_t sets = 0;
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    util::Rng rng(seed);
    std::optional<TaskSet> ts;
    try {
      ts.emplace(space.pick(seed).make(cores, rng));
    } catch (const gen::GenerationError&) {
      continue;
    }
    util::Time horizon = 0.0;
    for (const DagTask& t : ts->tasks()) horizon = std::max(horizon, t.period());
    double node_releases = 0.0;
    for (const DagTask& t : ts->tasks())
      node_releases += std::ceil(horizon / t.period()) *
                       static_cast<double>(t.node_count());
    if (node_releases > max_node_releases) continue;
    ++sets;

    const SimConfig global = global_config(horizon);
    run(0, *ts, global);

    const analysis::PartitionResult proposed =
        analysis::get_analyzer("partitioned-proposed").make_partition(*ts);
    if (proposed.success()) {
      SimConfig cfg = global;
      cfg.policy = SchedulingPolicy::kPartitioned;
      cfg.partition = proposed.partition;
      run(1, *ts, cfg);
    }

    const analysis::PartitionResult worst_fit = analysis::partition_worst_fit(*ts);
    if (worst_fit.success()) {
      SimConfig cfg = global;
      cfg.policy = SchedulingPolicy::kPartitioned;
      cfg.partition = worst_fit.partition;
      cfg.work_stealing = true;
      run(2, *ts, cfg);
    }

    SimConfig jitter = global;
    jitter.release_jitter_frac = 0.3;
    jitter.seed = seed;
    run(3, *ts, jitter);

    SimConfig traced = global;
    traced.collect_trace = true;
    run(4, *ts, traced);
  }

  const std::size_t expected_runs[kConfigs] = {103, 84, 103, 103, 103};
  const std::uint64_t expected[kConfigs] = {
      0x89de7d7c849a9e1eULL, 0x6ca2a07b9c43fc2aULL, 0xb790988e7cd812b2ULL,
      0xeff3b2d678993833ULL, 0x6affadae3b1a86edULL};
  const char* const names[kConfigs] = {"global", "partitioned-proposed",
                                       "worst-fit+stealing", "jitter",
                                       "trace"};
  EXPECT_EQ(sets, 103u);
  for (std::size_t k = 0; k < kConfigs; ++k) {
    EXPECT_EQ(runs[k], expected_runs[k]) << names[k];
    EXPECT_EQ(digest[k], expected[k])
        << names[k] << ": 0x" << std::hex << digest[k];
  }
}

}  // namespace
}  // namespace rtpool::sim
