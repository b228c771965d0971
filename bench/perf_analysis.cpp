// Google-benchmark microbenchmarks of the analysis algorithms: the paper
// quotes O(|V|^3) for computing l̄(τ) and O(|V|^4) for Algorithm 1 — these
// benches measure the real scaling of this implementation (which uses
// bitset closures and is far below those worst cases in practice).
#include <benchmark/benchmark.h>

#include "analysis/analyzer.h"
#include "analysis/concurrency.h"
#include "analysis/global_rta.h"
#include "analysis/partition.h"
#include "analysis/partitioned_rta.h"
#include "analysis/rta_context.h"
#include "analysis/sensitivity.h"
#include "gen/taskset_generator.h"
#include "sim/engine.h"

namespace {

using namespace rtpool;

/// Generator tuned to produce graphs of roughly `target_nodes` nodes.
model::DagTask make_task(std::size_t target_nodes, std::uint64_t seed) {
  util::Rng rng(seed);
  gen::TaskSetParams params;
  params.cores = 8;
  params.nfj.max_depth = 3;
  params.nfj.max_series = 3;
  params.nfj.min_branches = 3;
  params.nfj.max_branches = 5;
  // Resample until the node count is in the right ballpark.
  for (int attempt = 0; attempt < 10000; ++attempt) {
    model::DagTask t = gen::generate_task(params, 0, 0.5, rng);
    if (t.node_count() >= target_nodes / 2 && t.node_count() <= target_nodes * 2)
      return t;
  }
  throw std::runtime_error("make_task: target size not reachable");
}

model::TaskSet make_set(std::size_t cores, std::size_t tasks, std::uint64_t seed) {
  util::Rng rng(seed);
  gen::TaskSetParams params;
  params.cores = cores;
  params.task_count = tasks;
  params.total_utilization = 0.4 * static_cast<double>(cores);
  return gen::generate_task_set(params, rng);
}

void BM_ReachabilityClosure(benchmark::State& state) {
  const auto task = make_task(static_cast<std::size_t>(state.range(0)), 42);
  for (auto _ : state) {
    graph::Reachability reach(task.dag());
    benchmark::DoNotOptimize(reach.size());
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(task.node_count()));
}
BENCHMARK(BM_ReachabilityClosure)->Arg(16)->Arg(64)->Arg(256)->Complexity();

void BM_MaxAffectingForks(benchmark::State& state) {
  const auto task = make_task(static_cast<std::size_t>(state.range(0)), 43);
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::max_affecting_forks(task));
  state.SetComplexityN(static_cast<benchmark::IterationCount>(task.node_count()));
}
BENCHMARK(BM_MaxAffectingForks)->Arg(16)->Arg(64)->Arg(256)->Complexity();

void BM_GlobalRtaBaseline(benchmark::State& state) {
  const auto ts = make_set(8, static_cast<std::size_t>(state.range(0)), 44);
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::analyze_global(ts).schedulable);
}
BENCHMARK(BM_GlobalRtaBaseline)->Arg(2)->Arg(8)->Arg(16);

void BM_GlobalRtaLimited(benchmark::State& state) {
  const auto ts = make_set(8, static_cast<std::size_t>(state.range(0)), 44);
  analysis::GlobalRtaOptions opts;
  opts.limited_concurrency = true;
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::analyze_global(ts, opts).schedulable);
}
BENCHMARK(BM_GlobalRtaLimited)->Arg(2)->Arg(8)->Arg(16);

void BM_Algorithm1(benchmark::State& state) {
  const auto ts = make_set(8, static_cast<std::size_t>(state.range(0)), 45);
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::partition_algorithm1(ts).success());
}
BENCHMARK(BM_Algorithm1)->Arg(2)->Arg(8)->Arg(16);

void BM_WorstFit(benchmark::State& state) {
  const auto ts = make_set(8, static_cast<std::size_t>(state.range(0)), 45);
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::partition_worst_fit(ts).success());
}
BENCHMARK(BM_WorstFit)->Arg(2)->Arg(8)->Arg(16);

void BM_PartitionedRta(benchmark::State& state) {
  const auto ts = make_set(8, static_cast<std::size_t>(state.range(0)), 46);
  const auto part = analysis::partition_worst_fit(ts);
  if (!part.success()) {
    state.SkipWithError("worst-fit failed");
    return;
  }
  analysis::PartitionedRtaOptions opts;
  opts.require_deadlock_free = false;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        analysis::analyze_partitioned(ts, *part.partition, opts).schedulable);
}
BENCHMARK(BM_PartitionedRta)->Arg(2)->Arg(8)->Arg(16);

void BM_PartitionedRtaCtx(benchmark::State& state) {
  // Same workload as BM_PartitionedRta, but with a reused RtaContext — the
  // experiment-engine / sensitivity configuration. The gap between the two
  // is the per-call cost the context amortizes (blocking vectors, per-core
  // workloads, Lemma-3 verdicts, priority orders).
  const auto ts = make_set(8, static_cast<std::size_t>(state.range(0)), 46);
  const auto part = analysis::partition_worst_fit(ts);
  if (!part.success()) {
    state.SkipWithError("worst-fit failed");
    return;
  }
  analysis::PartitionedRtaOptions opts;
  opts.require_deadlock_free = false;
  analysis::RtaContext ctx(ts);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        analysis::analyze_partitioned(ts, *part.partition, opts, &ctx)
            .schedulable);
}
BENCHMARK(BM_PartitionedRtaCtx)->Arg(2)->Arg(8)->Arg(16);

void BM_FifoBlockingVector(benchmark::State& state) {
  // The word-parallel bitset kernel on one task (per analyze call the old
  // code paid the naive O(|V|²) equivalent per node instead).
  const auto task = make_task(static_cast<std::size_t>(state.range(0)), 42);
  model::TaskSet ts(8);
  ts.add(task);
  const auto part = analysis::partition_worst_fit(ts);
  if (!part.success()) {
    state.SkipWithError("worst-fit failed");
    return;
  }
  const analysis::NodeAssignment& assignment = part.partition->per_task[0];
  for (auto _ : state)
    benchmark::DoNotOptimize(
        analysis::fifo_blocking_vector(ts.task(0), assignment).size());
  state.SetComplexityN(
      static_cast<benchmark::IterationCount>(ts.task(0).node_count()));
}
BENCHMARK(BM_FifoBlockingVector)->Arg(16)->Arg(64)->Arg(256)->Complexity();

void BM_FifoBlockingNaive(benchmark::State& state) {
  // Contrast: the pre-kernel O(|V|²) double loop (reach.reaches per pair),
  // kept as the reference the property tests compare against.
  const auto task = make_task(static_cast<std::size_t>(state.range(0)), 42);
  model::TaskSet ts(8);
  ts.add(task);
  const auto part = analysis::partition_worst_fit(ts);
  if (!part.success()) {
    state.SkipWithError("worst-fit failed");
    return;
  }
  const auto& thread_of = part.partition->per_task[0].thread_of;
  const model::DagTask& t = ts.task(0);
  const graph::Reachability& reach = t.reachability();
  for (auto _ : state) {
    std::vector<util::Time> blocking(t.node_count(), 0.0);
    for (model::NodeId v = 0; v < t.node_count(); ++v) {
      if (t.type(v) == model::NodeType::BJ) continue;
      util::Time b = 0.0;
      for (model::NodeId u = 0; u < t.node_count(); ++u) {
        if (u == v || thread_of[u] != thread_of[v]) continue;
        if (reach.reaches(u, v) || reach.reaches(v, u)) continue;
        b += t.wcet(u);
      }
      blocking[v] = b;
    }
    benchmark::DoNotOptimize(blocking.data());
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(t.node_count()));
}
BENCHMARK(BM_FifoBlockingNaive)->Arg(16)->Arg(64)->Arg(256)->Complexity();

void BM_BindPartitionFlat(benchmark::State& state) {
  // The flat partition-bind kernel: per-core workloads W_{i,p} and FIFO
  // blocking vectors B_v for the whole set, streamed into task-major flat
  // arrays (the placement loop the partitioned RTA consumes).
  const auto ts = make_set(8, static_cast<std::size_t>(state.range(0)), 46);
  const auto part = analysis::partition_worst_fit(ts);
  if (!part.success()) {
    state.SkipWithError("worst-fit failed");
    return;
  }
  analysis::RtaContext ctx(ts);
  for (auto _ : state) {
    ctx.reset(ts);  // drop the binding so bind_partition recomputes
    ctx.bind_partition(*part.partition);
    benchmark::DoNotOptimize(ctx.core_workload(0).data());
  }
}
BENCHMARK(BM_BindPartitionFlat)->Arg(2)->Arg(8)->Arg(16);

void BM_ColdReVerdict(benchmark::State& state) {
  // A whole-set global-limited re-verdict on a context reset per
  // iteration: every fixed point and every cached order is recomputed.
  const auto ts = make_set(8, static_cast<std::size_t>(state.range(0)), 49);
  analysis::GlobalRtaOptions opts;
  opts.limited_concurrency = true;
  analysis::RtaContext ctx(ts);
  for (auto _ : state) {
    ctx.reset(ts);
    benchmark::DoNotOptimize(analysis::analyze_global(ts, opts, &ctx).schedulable);
  }
}
BENCHMARK(BM_ColdReVerdict)->Arg(2)->Arg(8)->Arg(16);

void BM_SensitivityGlobalLegacy(benchmark::State& state) {
  // Generic search: one materialized scaled TaskSet per probe.
  const auto ts = make_set(8, 8, 50);
  analysis::GlobalRtaOptions opts;
  opts.limited_concurrency = true;
  for (auto _ : state) {
    const double s = analysis::critical_scaling_factor(
        ts, [&](const model::TaskSet& set) {
          return analysis::analyze_global(set, opts).schedulable;
        });
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_SensitivityGlobalLegacy);

void BM_SensitivityGlobalFast(benchmark::State& state) {
  // Fast path: scaled options + shared context + cutoffs.
  const auto ts = make_set(8, 8, 50);
  const analysis::Analyzer& limited = analysis::get_analyzer("global-limited");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::critical_scaling_factor(ts, limited).factor);
  }
}
BENCHMARK(BM_SensitivityGlobalFast);

void BM_SensitivityPartitionedFast(benchmark::State& state) {
  const auto ts = make_set(8, 8, 50);
  const auto part = analysis::partition_worst_fit(ts);
  if (!part.success()) {
    state.SkipWithError("worst-fit failed");
    return;
  }
  const analysis::Analyzer& baseline =
      analysis::get_analyzer("partitioned-baseline");
  analysis::AnalyzerOptions opts;
  opts.partition = &*part.partition;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::critical_scaling_factor(ts, baseline, opts).factor);
  }
}
BENCHMARK(BM_SensitivityPartitionedFast);

void BM_SimulateGlobal(benchmark::State& state) {
  const auto ts = make_set(4, 3, 47);
  sim::SimConfig cfg;
  cfg.policy = sim::SchedulingPolicy::kGlobal;
  double max_period = 0.0;
  for (const auto& t : ts.tasks()) max_period = std::max(max_period, t.period());
  cfg.horizon = static_cast<double>(state.range(0)) * max_period;
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::simulate(ts, cfg).jobs.size());
}
BENCHMARK(BM_SimulateGlobal)->Arg(2)->Arg(8)->Arg(32);

void BM_TaskSetGeneration(benchmark::State& state) {
  gen::TaskSetParams params;
  params.cores = 8;
  params.task_count = 6;
  params.total_utilization = 3.2;
  util::Rng rng(48);
  for (auto _ : state)
    benchmark::DoNotOptimize(gen::generate_task_set(params, rng).size());
}
BENCHMARK(BM_TaskSetGeneration);

// The fig2_lmax4 point's generator: b̄ pinned to 4, so every task runs the
// concurrent-span selection and typing (and about half the skeletons are
// drawn again as too shallow).
void BM_TaskSetGenerationBlockingWindow(benchmark::State& state) {
  gen::TaskSetParams params;
  params.cores = 8;
  params.task_count = 6;
  params.nfj.min_branches = 3;
  params.nfj.max_branches = 5;
  params.blocking_window = gen::BlockingWindow{4, 4};
  params.total_utilization = 3.6;
  util::Rng rng(48);
  for (auto _ : state)
    benchmark::DoNotOptimize(gen::generate_task_set(params, rng).size());
}
BENCHMARK(BM_TaskSetGenerationBlockingWindow);

}  // namespace
