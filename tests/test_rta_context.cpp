// Property tests for the RtaContext fast paths (rta_context.h):
//
//  * the word-parallel FIFO blocking kernel is bit-identical to the naive
//    O(|V|²) double loop on randomized NFJ DAGs and assignments;
//  * scaled-options analyses (wcet_scale) match analyses of materialized
//    scaled task sets;
//  * a "warm" context — one reused across WCET scales, options and
//    partition rebinds, as the sensitivity search reuses it — answers
//    exactly as a fresh ("cold") context does;
//  * analyses with and without a caller-provided context agree exactly;
//  * the analyzer-driven sensitivity search agrees with the predicate
//    (scaled-copy) reference search, and with a search that builds a fresh
//    context for every probe.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/partition.h"
#include "analysis/partitioned_rta.h"
#include "analysis/rta_context.h"
#include "analysis/sensitivity.h"
#include "gen/taskset_generator.h"
#include "util/rng.h"

namespace rtpool::analysis {
namespace {

using model::DagTask;
using model::TaskSet;
using util::Time;

TaskSet random_set(std::uint64_t seed, std::size_t cores = 4,
                   std::size_t tasks = 4, double util_per_core = 0.35) {
  gen::TaskSetParams params;
  params.cores = cores;
  params.task_count = tasks;
  params.total_utilization = util_per_core * static_cast<double>(cores);
  util::Rng rng(seed);
  return gen::generate_task_set(params, rng);
}

/// The pre-kernel reference: naive O(|V|²) double loop (ascending u).
std::vector<Time> naive_blocking(const DagTask& t, const NodeAssignment& a) {
  const graph::Reachability& reach = t.reachability();
  std::vector<Time> blocking(t.node_count(), 0.0);
  for (model::NodeId v = 0; v < t.node_count(); ++v) {
    if (t.type(v) == model::NodeType::BJ) continue;
    Time b = 0.0;
    for (model::NodeId u = 0; u < t.node_count(); ++u) {
      if (u == v || a.thread_of[u] != a.thread_of[v]) continue;
      if (reach.reaches(u, v) || reach.reaches(v, u)) continue;
      b += t.wcet(u);
    }
    blocking[v] = b;
  }
  return blocking;
}

TEST(RtaContextTest, BlockingVectorMatchesNaiveDoubleLoop) {
  // Random NFJ DAGs under random, worst-fit and Algorithm-1 assignments:
  // the bitset kernel must reproduce the naive loop BIT-identically (the
  // float accumulation order is the same ascending-id order).
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const TaskSet ts = random_set(seed);
    util::Rng rng(seed * 977);
    std::vector<TaskSetPartition> partitions;

    TaskSetPartition random_partition;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      NodeAssignment a;
      for (model::NodeId v = 0; v < ts.task(i).node_count(); ++v)
        a.thread_of.push_back(static_cast<ThreadId>(
            rng.uniform_int(0, static_cast<std::int64_t>(ts.core_count()) - 1)));
      random_partition.per_task.push_back(std::move(a));
    }
    partitions.push_back(std::move(random_partition));
    if (const auto wf = partition_worst_fit(ts); wf.success())
      partitions.push_back(*wf.partition);
    if (const auto alg1 = partition_algorithm1(ts); alg1.success())
      partitions.push_back(*alg1.partition);

    for (const TaskSetPartition& partition : partitions) {
      for (std::size_t i = 0; i < ts.size(); ++i) {
        const auto fast = fifo_blocking_vector(ts.task(i), partition.per_task[i]);
        const auto naive = naive_blocking(ts.task(i), partition.per_task[i]);
        ASSERT_EQ(fast.size(), naive.size());
        for (std::size_t v = 0; v < fast.size(); ++v)
          EXPECT_EQ(fast[v], naive[v]) << "seed " << seed << " task " << i
                                       << " node " << v;
      }
    }
  }
}

TEST(RtaContextTest, WorkloadVectorRejectsOutOfRangeThreads) {
  const TaskSet ts = random_set(3);
  NodeAssignment bad;
  bad.thread_of.assign(ts.task(0).node_count(),
                       static_cast<ThreadId>(ts.core_count()));  // one past end
  EXPECT_THROW(per_core_workload_vector(ts.task(0), bad, ts.core_count()),
               model::ModelError);

  TaskSetPartition partition;
  for (std::size_t i = 0; i < ts.size(); ++i)
    partition.per_task.push_back(
        {std::vector<ThreadId>(ts.task(i).node_count(), 0)});
  partition.per_task[0] = bad;
  EXPECT_THROW(analyze_partitioned(ts, partition), model::ModelError);
}

TEST(RtaContextTest, ContextAndPlainCallsAgreeExactly) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TaskSet ts = random_set(seed);
    RtaContext ctx(ts);

    for (bool limited : {false, true}) {
      GlobalRtaOptions opts;
      opts.limited_concurrency = limited;
      const auto plain = analyze_global(ts, opts);
      const auto cached = analyze_global(ts, opts, &ctx);
      ASSERT_EQ(plain.schedulable, cached.schedulable);
      for (std::size_t i = 0; i < ts.size(); ++i)
        EXPECT_EQ(plain.per_task[i].response_time,
                  cached.per_task[i].response_time);
    }

    const auto wf = partition_worst_fit(ts);
    if (!wf.success()) continue;
    for (PartitionedBound bound :
         {PartitionedBound::kSplitPerSegment, PartitionedBound::kHolisticPath}) {
      PartitionedRtaOptions opts;
      opts.require_deadlock_free = false;
      opts.bound = bound;
      const auto plain = analyze_partitioned(ts, *wf.partition, opts);
      const auto cached = analyze_partitioned(ts, *wf.partition, opts, &ctx);
      ASSERT_EQ(plain.schedulable, cached.schedulable);
      for (std::size_t i = 0; i < ts.size(); ++i)
        EXPECT_EQ(plain.per_task[i].response_time,
                  cached.per_task[i].response_time);
    }
  }
}

TEST(RtaContextTest, ScaledOptionsMatchMaterializedScaledSet) {
  // wcet_scale must agree with scale_wcets up to float association
  // (s·(a+b) vs s·a + s·b): compare verdict-for-verdict and response
  // times with a tight relative tolerance.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const TaskSet ts = random_set(seed);
    for (double s : {0.5, 1.0, 1.75}) {
      const TaskSet scaled = scale_wcets(ts, s);

      GlobalRtaOptions gopts;
      gopts.limited_concurrency = true;
      GlobalRtaOptions fast_opts = gopts;
      fast_opts.wcet_scale = s;
      const auto ref = analyze_global(scaled, gopts);
      const auto fast = analyze_global(ts, fast_opts);
      for (std::size_t i = 0; i < ts.size(); ++i) {
        const Time a = ref.per_task[i].response_time;
        const Time b = fast.per_task[i].response_time;
        if (std::isfinite(a) || std::isfinite(b)) {
          EXPECT_NEAR(a, b, 1e-6 * std::max(1.0, std::abs(a)))
              << "seed " << seed << " scale " << s << " task " << i;
        }
      }
      // At scale 1 the two paths run literally the same arithmetic.
      if (s == 1.0) {
        ASSERT_EQ(ref.schedulable, fast.schedulable);
        for (std::size_t i = 0; i < ts.size(); ++i)
          EXPECT_EQ(ref.per_task[i].response_time,
                    fast.per_task[i].response_time);
      }
    }
  }
}

/// Run the partitioned RTA at `scale` with a fresh cold context.
PartitionedRtaResult cold_partitioned(const TaskSet& ts,
                                      const TaskSetPartition& partition,
                                      PartitionedRtaOptions opts, double scale) {
  opts.wcet_scale = scale;
  return analyze_partitioned(ts, partition, opts);
}

TEST(RtaContextTest, WarmStartedPartitionedBitIdenticalAcrossScaleSweep) {
  // One context reused over an ascending scale sweep answers every scale
  // exactly as a fresh context.
  const std::vector<double> scales = {0.25, 0.5, 0.75, 1.0,
                                      1.5,  2.0, 3.0,  4.5};
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const TaskSet ts = random_set(seed);
    const auto wf = partition_worst_fit(ts);
    if (!wf.success()) continue;
    for (PartitionedBound bound :
         {PartitionedBound::kSplitPerSegment, PartitionedBound::kHolisticPath}) {
      PartitionedRtaOptions opts;
      opts.require_deadlock_free = false;
      opts.bound = bound;
      RtaContext warm_ctx(ts);
      for (double s : scales) {
        PartitionedRtaOptions sopts = opts;
        sopts.wcet_scale = s;
        const auto warm = analyze_partitioned(ts, *wf.partition, sopts, &warm_ctx);
        const auto cold = cold_partitioned(ts, *wf.partition, opts, s);
        ASSERT_EQ(warm.schedulable, cold.schedulable)
            << "seed " << seed << " scale " << s;
        for (std::size_t i = 0; i < ts.size(); ++i) {
          EXPECT_EQ(warm.per_task[i].response_time,
                    cold.per_task[i].response_time)
              << "seed " << seed << " scale " << s << " task " << i;
          EXPECT_EQ(warm.per_task[i].schedulable, cold.per_task[i].schedulable);
        }
      }
    }
  }
}

TEST(RtaContextTest, WarmStartedGlobalBitIdenticalAcrossScaleSweep) {
  // As above, for all four global option combinations.
  const std::vector<double> scales = {0.25, 0.5, 0.75, 1.0,
                                      1.5,  2.0, 3.0,  4.5};
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const TaskSet ts = random_set(seed);
    for (bool limited : {false, true}) {
      for (InterferenceBound bound :
           {InterferenceBound::kPaperCeil, InterferenceBound::kMelaniCarryIn}) {
        GlobalRtaOptions opts;
        opts.limited_concurrency = limited;
        opts.bound = bound;
        RtaContext warm_ctx(ts);
        for (double s : scales) {
          GlobalRtaOptions sopts = opts;
          sopts.wcet_scale = s;
          const auto warm = analyze_global(ts, sopts, &warm_ctx);
          const auto cold = analyze_global(ts, sopts);
          ASSERT_EQ(warm.schedulable, cold.schedulable)
              << "seed " << seed << " scale " << s;
          for (std::size_t i = 0; i < ts.size(); ++i)
            EXPECT_EQ(warm.per_task[i].response_time,
                      cold.per_task[i].response_time)
                << "seed " << seed << " scale " << s << " task " << i;
        }
      }
    }
  }
}

TEST(RtaContextTest, WarmStartSafeUnderNonMonotoneScaleSequence) {
  // Bisection probes are not monotone in the scale; a context reused in
  // that order must still answer each probe as a fresh one.
  const std::vector<double> scales = {1.0, 0.4, 2.2, 0.7, 3.1, 1.1};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TaskSet ts = random_set(seed);
    GlobalRtaOptions opts;
    opts.limited_concurrency = true;
    RtaContext warm_ctx(ts);
    for (double s : scales) {
      GlobalRtaOptions sopts = opts;
      sopts.wcet_scale = s;
      const auto warm = analyze_global(ts, sopts, &warm_ctx);
      const auto cold = analyze_global(ts, sopts);
      for (std::size_t i = 0; i < ts.size(); ++i)
        EXPECT_EQ(warm.per_task[i].response_time, cold.per_task[i].response_time)
            << "seed " << seed << " scale " << s << " task " << i;
    }
  }
}

TEST(RtaContextTest, WarmStateInvalidatedByRebinding) {
  // A context rebound to a different partition (and scale) answers as a
  // fresh context bound to that partition.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TaskSet ts = random_set(seed);
    const auto wf = partition_worst_fit(ts);
    const auto alg1 = partition_algorithm1(ts);
    if (!wf.success() || !alg1.success()) continue;
    PartitionedRtaOptions opts;
    opts.require_deadlock_free = false;
    RtaContext ctx(ts);
    opts.wcet_scale = 0.5;
    (void)analyze_partitioned(ts, *wf.partition, opts, &ctx);
    opts.wcet_scale = 1.5;
    const auto warm = analyze_partitioned(ts, *alg1.partition, opts, &ctx);
    const auto cold = analyze_partitioned(ts, *alg1.partition, opts);
    for (std::size_t i = 0; i < ts.size(); ++i)
      EXPECT_EQ(warm.per_task[i].response_time, cold.per_task[i].response_time)
          << "seed " << seed << " task " << i;
  }
}

TEST(RtaContextTest, SensitivityFastMatchesLegacyGlobal) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TaskSet ts = random_set(seed);
    for (bool limited : {false, true}) {
      GlobalRtaOptions opts;
      opts.limited_concurrency = limited;
      const double legacy = critical_scaling_factor(
          ts, [&](const TaskSet& set) {
            return analyze_global(set, opts).schedulable;
          });
      const SensitivityResult fast = critical_scaling_factor(
          ts, get_analyzer(limited ? "global-limited" : "global-baseline"));
      // Legacy materializes scaled sets (Σ s·C), fast scales on the fly
      // (s·Σ C): verdicts can differ within float noise of the threshold,
      // so factors agree only up to a few tolerances.
      EXPECT_NEAR(fast.factor, legacy, 3.0 * SensitivityOptions{}.tolerance)
          << "seed " << seed << " limited " << limited;
      EXPECT_GT(fast.probes, 0);
    }
  }
}

TEST(RtaContextTest, SensitivityFastMatchesLegacyPartitioned) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TaskSet ts = random_set(seed);
    const auto wf = partition_worst_fit(ts);
    if (!wf.success()) continue;
    PartitionedRtaOptions opts;
    opts.require_deadlock_free = false;
    const double legacy = critical_scaling_factor(
        ts, [&](const TaskSet& set) {
          return analyze_partitioned(set, *wf.partition, opts).schedulable;
        });
    AnalyzerOptions base;
    base.partition = &*wf.partition;
    const SensitivityResult fast = critical_scaling_factor(
        ts, get_analyzer("partitioned-baseline"), base);
    EXPECT_NEAR(fast.factor, legacy, 3.0 * SensitivityOptions{}.tolerance)
        << "seed " << seed;
  }
}

/// Delegates every call to `inner` on a fresh context, ignoring the one it
/// is handed: a sensitivity search through it reuses nothing across
/// probes.
class FreshContextAnalyzer final : public Analyzer {
 public:
  explicit FreshContextAnalyzer(const Analyzer& inner) : inner_(inner) {}
  std::string_view name() const override { return inner_.name(); }
  std::string_view description() const override {
    return inner_.description();
  }
  AnalyzerCapabilities capabilities() const override {
    return inner_.capabilities();
  }
  PartitionResult make_partition(const TaskSet& ts) const override {
    return inner_.make_partition(ts);
  }
  Report analyze(const TaskSet& ts, RtaContext&,
                 const AnalyzerOptions& options) const override {
    RtaContext fresh(ts);
    return inner_.analyze(ts, fresh, options);
  }

 private:
  const Analyzer& inner_;
};

TEST(RtaContextTest, SensitivityWarmIdenticalToColdSearch) {
  // The default search (one context reused across every probe, critical-
  // path cutoff on) must equal a search with a fresh context per probe and
  // no cutoff: same factor, same probe count, bit for bit.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TaskSet ts = random_set(seed);
    SensitivityOptions cold_opts;
    cold_opts.critical_path_cutoff = false;
    const SensitivityOptions warm_opts;  // defaults: cutoff on
    const Analyzer& limited = get_analyzer("global-limited");
    const SensitivityResult cold = critical_scaling_factor(
        ts, FreshContextAnalyzer(limited), {}, cold_opts);
    const SensitivityResult warm = critical_scaling_factor(ts, limited, {}, warm_opts);
    EXPECT_EQ(warm.factor, cold.factor) << "seed " << seed;
    EXPECT_EQ(warm.probes, cold.probes) << "seed " << seed;

    const auto wf = partition_worst_fit(ts);
    if (!wf.success()) continue;
    const Analyzer& baseline = get_analyzer("partitioned-baseline");
    AnalyzerOptions base;
    base.partition = &*wf.partition;
    const SensitivityResult pcold = critical_scaling_factor(
        ts, FreshContextAnalyzer(baseline), base, cold_opts);
    const SensitivityResult pwarm =
        critical_scaling_factor(ts, baseline, base, warm_opts);
    EXPECT_EQ(pwarm.factor, pcold.factor) << "seed " << seed;
    EXPECT_EQ(pwarm.probes, pcold.probes) << "seed " << seed;
  }
}

TEST(RtaContextTest, SensitivityFederatedFastRuns) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const TaskSet ts = random_set(seed);
    FederatedOptions fopts;
    fopts.limited_concurrency = true;
    const double legacy = critical_scaling_factor(
        ts, [&](const TaskSet& set) {
          return analyze_federated(set, fopts).schedulable;
        });
    const SensitivityResult fast =
        critical_scaling_factor(ts, get_analyzer("federated-limited"));
    EXPECT_NEAR(fast.factor, legacy, 3.0 * SensitivityOptions{}.tolerance)
        << "seed " << seed;
  }
}

TEST(RtaContextTest, EvaluateTaskSetContextInvariant) {
  // An experiment point runs its baseline and proposed analyzer on one
  // shared per-trial context; sharing must not change verdicts.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TaskSet ts = random_set(seed);
    for (const auto& [baseline, proposed] :
         {std::pair{"global-baseline", "global-limited"},
          std::pair{"partitioned-baseline", "partitioned-proposed"}}) {
      RtaContext ctx(ts);
      for (const char* name : {baseline, proposed}) {
        const Analyzer& a = get_analyzer(name);
        EXPECT_EQ(a.analyze(ts).schedulable, a.analyze(ts, ctx).schedulable)
            << "seed " << seed << " " << name;
      }
    }
  }
}

TEST(RtaContextTest, BindPartitionIsNoOpOnIdenticalContent) {
  const TaskSet ts = random_set(2);
  const auto wf = partition_worst_fit(ts);
  ASSERT_TRUE(wf.success());
  RtaContext ctx(ts);
  ctx.bind_partition(*wf.partition);
  const std::uint64_t gen1 = ctx.binding_generation();
  TaskSetPartition copy = *wf.partition;  // different object, same content
  ctx.bind_partition(copy);
  EXPECT_EQ(ctx.binding_generation(), gen1);
  if (const auto alg1 = partition_algorithm1(ts);
      alg1.success() && !(alg1.partition->per_task == wf.partition->per_task)) {
    ctx.bind_partition(*alg1.partition);
    EXPECT_NE(ctx.binding_generation(), gen1);
  }
}

}  // namespace
}  // namespace rtpool::analysis
