// Unit tests for the structured topology builder (gen/topologies.h).
#include <gtest/gtest.h>

#include "analysis/antichain.h"
#include "analysis/concurrency.h"
#include "gen/topologies.h"
#include "sim/engine.h"

namespace rtpool::gen {
namespace {

TopologyOptions opts(bool blocking, util::Time period = 10000.0) {
  TopologyOptions o;
  o.blocking = blocking;
  o.period = period;
  return o;
}

TEST(TopologyTest, DnnStructure) {
  util::Rng rng(1);
  const auto t = make_dnn_task("dnn", 3, 2, 4, opts(true), rng);
  // Nodes: 1 input + 3 layer barriers + 3*2 regions of (2 + 4) nodes.
  EXPECT_EQ(t.node_count(), 1u + 3u + 6u * 6u);
  EXPECT_EQ(t.blocking_fork_count(), 6u);
  // Only the operators of one layer are concurrent: b̄ = ops_per_layer.
  EXPECT_EQ(analysis::max_affecting_forks(t), 2u);
  EXPECT_EQ(analysis::max_simultaneous_suspensions(t), 2u);
}

TEST(TopologyTest, DnnNonBlockingHasNoRegions) {
  util::Rng rng(1);
  const auto t = make_dnn_task("dnn", 3, 2, 4, opts(false), rng);
  EXPECT_EQ(t.blocking_fork_count(), 0u);
  EXPECT_EQ(analysis::max_affecting_forks(t), 0u);
}

TEST(TopologyTest, PipelineRegionsNeverOverlap) {
  // One operator per layer is a software pipeline: 5 barrier-separated
  // stages, each a parallel-for over 6 kernels.
  util::Rng rng(3);
  const auto t = make_dnn_task("pipe", 5, 1, 6, opts(true), rng);
  EXPECT_EQ(t.blocking_fork_count(), 5u);
  // Stages are barrier-separated: only one region live at a time.
  EXPECT_EQ(analysis::max_simultaneous_suspensions(t), 1u);
  EXPECT_EQ(analysis::max_affecting_forks(t), 1u);
}

TEST(TopologyTest, ValidationErrors) {
  util::Rng rng(6);
  TopologyOptions bad = opts(true);
  bad.period = 0.0;
  EXPECT_THROW(make_dnn_task("x", 1, 1, 1, bad, rng), std::invalid_argument);
  EXPECT_THROW(make_dnn_task("x", 0, 1, 1, opts(true), rng), std::invalid_argument);
  EXPECT_THROW(make_dnn_task("x", 1, 0, 1, opts(true), rng), std::invalid_argument);
  EXPECT_THROW(make_dnn_task("x", 1, 1, 0, opts(true), rng), std::invalid_argument);
  TopologyOptions bad_wcet = opts(true);
  bad_wcet.wcet_max = 0.5;  // < wcet_min
  EXPECT_THROW(make_dnn_task("x", 1, 1, 1, bad_wcet, rng), std::invalid_argument);
}

/// The topology simulates cleanly on a big-enough pool in both typings:
/// construction produced executable, deadlock-free structures.
TEST(TopologyTest, AllTopologiesSimulate) {
  util::Rng rng(7);
  std::vector<model::DagTask> tasks;
  tasks.push_back(make_dnn_task("dnn", 2, 2, 3, opts(true), rng));
  tasks.push_back(make_dnn_task("wide", 3, 4, 2, opts(true), rng));
  tasks.push_back(make_dnn_task("plain", 2, 3, 3, opts(false), rng));

  for (auto& task : tasks) {
    const std::size_t m =
        analysis::max_simultaneous_suspensions(task) + 2;  // l̄ >= 2
    model::TaskSet ts(m);
    const std::string name = task.name();
    ts.add(std::move(task));
    sim::SimConfig cfg;
    cfg.horizon = 10000.0;
    const auto run = sim::simulate(ts, cfg);
    EXPECT_FALSE(run.deadlock.has_value()) << name;
    EXPECT_EQ(run.per_task[0].jobs_completed, 1u) << name;
  }
}

TEST(TopologyTest, DeterministicPerSeed) {
  util::Rng a(11);
  util::Rng b(11);
  const auto ta = make_dnn_task("d", 2, 2, 2, opts(true), a);
  const auto tb = make_dnn_task("d", 2, 2, 2, opts(true), b);
  ASSERT_EQ(ta.node_count(), tb.node_count());
  for (model::NodeId v = 0; v < ta.node_count(); ++v) {
    EXPECT_DOUBLE_EQ(ta.wcet(v), tb.wcet(v));
    EXPECT_EQ(ta.type(v), tb.type(v));
  }
}

}  // namespace
}  // namespace rtpool::gen
