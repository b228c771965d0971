// Tests for the analysis spine (analysis/analyzer.h): registry behaviour,
// golden bit-equivalence of each registered name against its family
// kernel configuration, and degenerate-input robustness of every
// registered analyzer.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/rta_context.h"
#include "analysis/sensitivity.h"
#include "gen/taskset_generator.h"
#include "model/builder.h"

namespace rtpool {
namespace {

using analysis::Analyzer;
using analysis::AnalyzerOptions;
using analysis::Report;
using analysis::RtaContext;
using model::DagTaskBuilder;
using model::TaskSet;

/// Figure-2 style generation (m = 8, NFJ 3..5 branches), the workload the
/// golden equivalence is recorded on.
TaskSet fig2_set(std::uint64_t seed, double util_frac) {
  gen::TaskSetParams params;
  params.cores = 8;
  params.task_count = 6;
  params.nfj.min_branches = 3;
  params.nfj.max_branches = 5;
  params.total_utilization = util_frac * 8.0;
  util::Rng rng(seed);
  return gen::generate_task_set(params, rng);
}

/// A set with a blocking region on m = 1: l̄ = 0, so Algorithm 1 has no
/// feasible binding and the limited global test rejects at any scale.
TaskSet unbindable_set() {
  TaskSet ts(1);
  DagTaskBuilder b("blocky");
  b.add_blocking_fork_join(1.0, 1.0, {1.0});
  b.period(1000.0);
  ts.add(b.build());
  return ts;
}

// ---- registry ----

TEST(AnalyzerRegistryTest, BuiltinsAreRegistered) {
  const char* expected[] = {
      "global-baseline",          "global-baseline-carryin",
      "global-limited",           "global-limited-carryin",
      "global-limited-antichain", "global-limited-antichain-carryin",
      "partitioned-baseline",     "partitioned-baseline-holistic",
      "partitioned-proposed",     "partitioned-proposed-holistic",
      "federated",                "federated-limited"};
  for (const char* name : expected) {
    const Analyzer* a = analysis::find_analyzer(name);
    ASSERT_NE(a, nullptr) << name;
    EXPECT_EQ(a->name(), name);
    EXPECT_FALSE(a->description().empty()) << name;
    EXPECT_EQ(&analysis::get_analyzer(name), a);
  }

  const auto all = analysis::registered_analyzers();
  EXPECT_GE(all.size(), 12u);
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LT(all[i - 1]->name(), all[i]->name());
}

TEST(AnalyzerRegistryTest, UnknownNames) {
  EXPECT_EQ(analysis::find_analyzer("no-such-analyzer"), nullptr);
  try {
    analysis::get_analyzer("no-such-analyzer");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error must list the registered names.
    EXPECT_NE(std::string(e.what()).find("global-limited"), std::string::npos);
  }
}

TEST(AnalyzerRegistryTest, Capabilities) {
  const auto glob = analysis::get_analyzer("global-limited").capabilities();
  EXPECT_FALSE(glob.uses_partition);
  EXPECT_TRUE(glob.reports_response_times);
  EXPECT_TRUE(glob.supports_warm_start);

  const auto part = analysis::get_analyzer("partitioned-proposed").capabilities();
  EXPECT_TRUE(part.uses_partition);
  EXPECT_TRUE(part.reports_response_times);

  const auto fed = analysis::get_analyzer("federated").capabilities();
  EXPECT_FALSE(fed.uses_partition);
  EXPECT_FALSE(fed.reports_response_times);
}

namespace {
class StubAnalyzer final : public Analyzer {
 public:
  std::string_view name() const override { return "test-stub"; }
  std::string_view description() const override { return "accepts everything"; }
  analysis::AnalyzerCapabilities capabilities() const override { return {}; }
  Report analyze(const TaskSet& ts, RtaContext& /*ctx*/,
                 const AnalyzerOptions& /*options*/) const override {
    Report rep;
    rep.analyzer = std::string(name());
    rep.schedulable = true;
    rep.per_task.assign(ts.size(), analysis::TaskVerdict{});
    for (auto& v : rep.per_task) v.schedulable = true;
    return rep;
  }
};
}  // namespace

TEST(AnalyzerRegistryTest, CustomRegistration) {
  if (analysis::find_analyzer("test-stub") == nullptr)
    analysis::register_analyzer(std::make_unique<StubAnalyzer>());
  const Analyzer& stub = analysis::get_analyzer("test-stub");
  const Report rep = stub.analyze(fig2_set(7, 0.3));
  EXPECT_TRUE(rep.schedulable);
  EXPECT_EQ(rep.per_task.size(), 6u);

  // Duplicate and empty registrations are rejected.
  EXPECT_THROW(analysis::register_analyzer(std::make_unique<StubAnalyzer>()),
               std::invalid_argument);
  EXPECT_THROW(analysis::register_analyzer(nullptr), std::invalid_argument);
}

// ---- golden equivalence with the family kernels ----

TEST(AnalyzerGoldenTest, GlobalFamilyBitIdentical) {
  struct Config {
    const char* name;
    bool limited;
    analysis::ConcurrencyBound conc;
    analysis::InterferenceBound bound;
  };
  const Config configs[] = {
      {"global-baseline", false, analysis::ConcurrencyBound::kMaxAffectingForks,
       analysis::InterferenceBound::kPaperCeil},
      {"global-baseline-carryin", false,
       analysis::ConcurrencyBound::kMaxAffectingForks,
       analysis::InterferenceBound::kMelaniCarryIn},
      {"global-limited", true, analysis::ConcurrencyBound::kMaxAffectingForks,
       analysis::InterferenceBound::kPaperCeil},
      {"global-limited-carryin", true,
       analysis::ConcurrencyBound::kMaxAffectingForks,
       analysis::InterferenceBound::kMelaniCarryIn},
      {"global-limited-antichain", true,
       analysis::ConcurrencyBound::kMaxAntichain,
       analysis::InterferenceBound::kPaperCeil},
      {"global-limited-antichain-carryin", true,
       analysis::ConcurrencyBound::kMaxAntichain,
       analysis::InterferenceBound::kMelaniCarryIn},
  };
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    for (double u : {0.3, 0.45}) {
      const TaskSet ts = fig2_set(seed, u);
      for (const Config& c : configs) {
        analysis::GlobalRtaOptions opts;
        opts.limited_concurrency = c.limited;
        opts.concurrency = c.conc;
        opts.bound = c.bound;
        const analysis::GlobalRtaResult legacy = analysis::analyze_global(ts, opts);
        const Analyzer& a = analysis::get_analyzer(c.name);
        const Report rep = a.analyze(ts);

        EXPECT_EQ(rep.analyzer, a.name());
        EXPECT_EQ(rep.schedulable, legacy.schedulable);
        ASSERT_EQ(rep.per_task.size(), legacy.per_task.size());
        for (std::size_t i = 0; i < ts.size(); ++i) {
          // Bit-identical, not approximately equal: the adapter calls the
          // very same kernel with the very same options.
          EXPECT_EQ(rep.per_task[i].response_time,
                    legacy.per_task[i].response_time);
          EXPECT_EQ(rep.per_task[i].schedulable, legacy.per_task[i].schedulable);
          EXPECT_EQ(rep.per_task[i].concurrency_bound,
                    legacy.per_task[i].concurrency_bound);
        }
      }
    }
  }
}

TEST(AnalyzerGoldenTest, PartitionedFamilyBitIdentical) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    const TaskSet ts = fig2_set(seed, 0.175);
    struct Variant {
      const char* name;
      bool algorithm1;
      bool require_deadlock_free;
      analysis::PartitionedBound bound;
    };
    const Variant variants[] = {
        {"partitioned-baseline", false, false,
         analysis::PartitionedBound::kSplitPerSegment},
        {"partitioned-baseline-holistic", false, false,
         analysis::PartitionedBound::kHolisticPath},
        {"partitioned-proposed", true, true,
         analysis::PartitionedBound::kSplitPerSegment},
        {"partitioned-proposed-holistic", true, true,
         analysis::PartitionedBound::kHolisticPath},
    };
    for (const Variant& v : variants) {
      const Analyzer& a = analysis::get_analyzer(v.name);
      const auto part = v.algorithm1 ? analysis::partition_algorithm1(ts)
                                     : analysis::partition_worst_fit(ts);
      const auto own = a.make_partition(ts);
      ASSERT_EQ(own.success(), part.success()) << v.name;
      const Report rep = a.analyze(ts);  // runs its own partitioner
      if (!part.success()) {
        EXPECT_FALSE(rep.schedulable);
        continue;
      }

      analysis::PartitionedRtaOptions opts;
      opts.require_deadlock_free = v.require_deadlock_free;
      opts.bound = v.bound;
      const analysis::PartitionedRtaResult legacy =
          analysis::analyze_partitioned(ts, *part.partition, opts);

      // Explicit-partition envelope path must agree with the implicit one.
      RtaContext ctx(ts);
      AnalyzerOptions envelope;
      envelope.partition = &*part.partition;
      const Report explicit_rep = a.analyze(ts, ctx, envelope);

      for (const Report* rp : {&rep, &explicit_rep}) {
        EXPECT_EQ(rp->schedulable, legacy.schedulable) << v.name;
        ASSERT_EQ(rp->per_task.size(), legacy.per_task.size());
        for (std::size_t i = 0; i < ts.size(); ++i) {
          EXPECT_EQ(rp->per_task[i].response_time,
                    legacy.per_task[i].response_time);
          EXPECT_EQ(rp->per_task[i].schedulable, legacy.per_task[i].schedulable);
          EXPECT_EQ(rp->per_task[i].deadlock_free,
                    legacy.per_task[i].deadlock_free);
        }
      }
    }
  }
}

TEST(AnalyzerGoldenTest, FederatedFamilyBitIdentical) {
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    const TaskSet ts = fig2_set(seed, 0.3);
    for (bool limited : {false, true}) {
      analysis::FederatedOptions opts;
      opts.limited_concurrency = limited;
      const analysis::FederatedResult legacy = analysis::analyze_federated(ts, opts);
      const Report rep =
          analysis::get_analyzer(limited ? "federated-limited" : "federated")
              .analyze(ts);

      EXPECT_EQ(rep.schedulable, legacy.schedulable);
      EXPECT_EQ(rep.dedicated_cores, legacy.dedicated_cores);
      ASSERT_EQ(rep.per_task.size(), legacy.per_task.size());
      for (std::size_t i = 0; i < ts.size(); ++i) {
        EXPECT_EQ(rep.per_task[i].schedulable, legacy.per_task[i].schedulable);
        EXPECT_EQ(rep.per_task[i].dedicated, legacy.per_task[i].dedicated);
        EXPECT_EQ(rep.per_task[i].dedicated_cores, legacy.per_task[i].cores);
        // Federated computes no response times.
        EXPECT_EQ(rep.per_task[i].response_time, util::kTimeInfinity);
      }
    }
  }
}

TEST(AnalyzerGoldenTest, WcetScaleMatchesKernelScale) {
  const TaskSet ts = fig2_set(41, 0.3);
  analysis::GlobalRtaOptions gopts;
  gopts.limited_concurrency = true;
  gopts.wcet_scale = 0.6;
  const analysis::GlobalRtaResult legacy = analysis::analyze_global(ts, gopts);

  AnalyzerOptions envelope;
  envelope.wcet_scale = 0.6;
  const Report rep =
      analysis::get_analyzer("global-limited").analyze(ts, envelope);
  EXPECT_EQ(rep.schedulable, legacy.schedulable);
  for (std::size_t i = 0; i < ts.size(); ++i)
    EXPECT_EQ(rep.per_task[i].response_time, legacy.per_task[i].response_time);
}

TEST(AnalyzerReportTest, LimitingTaskSemantics) {
  // Plain fork-join on m = 2: R = len + (vol - len)/2 = 8 (test_global_rta).
  TaskSet tight(2);
  tight.add(model::make_fork_join_task("t", 3, 2.0, 7.0, false));
  const Report miss = analysis::get_analyzer("global-baseline").analyze(tight);
  EXPECT_FALSE(miss.schedulable);
  ASSERT_TRUE(miss.limiting_task.has_value());
  EXPECT_EQ(*miss.limiting_task, 0u);
  EXPECT_NEAR(miss.limiting_ratio, 8.0 / 7.0, 1e-9);

  TaskSet slack(2);
  slack.add(model::make_fork_join_task("t", 3, 2.0, 60.0, false));
  const Report ok = analysis::get_analyzer("global-baseline").analyze(slack);
  EXPECT_TRUE(ok.schedulable);
  ASSERT_TRUE(ok.limiting_task.has_value());
  EXPECT_EQ(*ok.limiting_task, 0u);
  EXPECT_NEAR(ok.limiting_ratio, 8.0 / 60.0, 1e-9);
}

// ---- sensitivity ----

TEST(AnalyzerSensitivityTest, PartitionOnceForUnpartitionableSet) {
  // No feasible Algorithm-1 partition: the search reports factor 0 with no
  // probes instead of throwing.
  const TaskSet ts = unbindable_set();
  const auto r = analysis::critical_scaling_factor(
      ts, analysis::get_analyzer("partitioned-proposed"));
  EXPECT_EQ(r.factor, 0.0);
  EXPECT_EQ(r.probes, 0);
}

// ---- degenerate inputs across every registered analyzer ----

TEST(AnalyzerDegenerateTest, EmptyTaskSet) {
  const TaskSet ts(4);
  for (const Analyzer* a : analysis::registered_analyzers()) {
    Report rep;
    AnalyzerOptions opts;
    opts.diagnostics = true;
    ASSERT_NO_THROW(rep = a->analyze(ts, opts)) << a->name();
    EXPECT_TRUE(rep.schedulable) << a->name();  // vacuously schedulable
    EXPECT_TRUE(rep.per_task.empty()) << a->name();
    EXPECT_FALSE(rep.limiting_task.has_value()) << a->name();
  }
}

TEST(AnalyzerDegenerateTest, SingleNodeDag) {
  TaskSet ts(4);
  DagTaskBuilder b("solo");
  b.add_node(1.0);
  b.period(1000.0);
  ts.add(b.build());

  for (const Analyzer* a : analysis::registered_analyzers()) {
    Report rep;
    ASSERT_NO_THROW(rep = a->analyze(ts)) << a->name();
    EXPECT_TRUE(rep.schedulable) << a->name();
    ASSERT_EQ(rep.per_task.size(), 1u) << a->name();
    EXPECT_TRUE(rep.per_task[0].schedulable) << a->name();
    if (a->capabilities().reports_response_times) {
      EXPECT_LE(rep.per_task[0].response_time, 1000.0) << a->name();
    }
  }
}

TEST(AnalyzerDegenerateTest, UnbindablePartitionIsACleanVerdict) {
  const TaskSet ts = unbindable_set();
  for (const Analyzer* a : analysis::registered_analyzers()) {
    Report rep;
    AnalyzerOptions opts;
    opts.diagnostics = true;
    ASSERT_NO_THROW(rep = a->analyze(ts, opts)) << a->name();
    EXPECT_EQ(rep.per_task.size(), ts.size()) << a->name();
  }

  // Algorithm 1 specifically: partition failure surfaces as an
  // unschedulable Report with a witness note, never a throw.
  const Analyzer& proposed = analysis::get_analyzer("partitioned-proposed");
  EXPECT_FALSE(proposed.make_partition(ts).success());
  AnalyzerOptions opts;
  opts.diagnostics = true;
  const Report rep = proposed.analyze(ts, opts);
  EXPECT_FALSE(rep.schedulable);
  ASSERT_FALSE(rep.notes.empty());
  EXPECT_EQ(rep.notes[0].code, "partition-failure");
}

TEST(AnalyzerDegenerateTest, MakePartitionOnNonPartitionAnalyzers) {
  const TaskSet ts = fig2_set(71, 0.3);
  for (const Analyzer* a : analysis::registered_analyzers()) {
    if (a->capabilities().uses_partition) continue;
    const auto part = a->make_partition(ts);
    EXPECT_FALSE(part.success()) << a->name();
    EXPECT_FALSE(part.failure.empty()) << a->name();
  }
}

}  // namespace
}  // namespace rtpool
