// Certificate-carrying analysis tests (analysis/cert.h + cert_check.h):
//
//  * golden acceptance — every registered analyzer's certificate over the
//    repo task sets and a Figure-2-style generated corpus passes the
//    independent checker;
//  * reused == fresh — certificates emitted on an RtaContext reused
//    across WCET scales are bit-identical to those from a fresh context
//    (Report operator== compares them);
//  * negative paths — mutating a valid certificate (bumping a fixed point,
//    swapping an antichain member for a comparable fork, overloading a
//    core, inflating a federated allocation, …) is rejected with the
//    expected CheckFailureKind;
//  * renderers — lint::render_json output parses back, render_text names
//    the analyzer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/cert_check.h"
#include "analysis/rta_context.h"
#include "gen/taskset_generator.h"
#include "lint/render.h"
#include "model/builder.h"
#include "model/io.h"
#include "util/json.h"
#include "util/rng.h"

namespace rtpool {
namespace {

namespace cert = analysis::cert;

/// Figure-2-style generator parameters (m = 8, pinned blocking window so
/// every set has blocking forks).
gen::TaskSetParams fig2_params(double utilization) {
  gen::TaskSetParams params;
  params.cores = 8;
  params.task_count = 6;
  params.nfj.min_branches = 3;
  params.nfj.max_branches = 5;
  params.blocking_window = gen::BlockingWindow{4, 4};
  params.total_utilization = utilization;
  return params;
}

model::TaskSet generated_set(std::uint64_t seed, double utilization) {
  util::Rng rng(seed);
  return gen::generate_task_set(fig2_params(utilization), rng);
}

std::vector<model::TaskSet> golden_corpus() {
  std::vector<model::TaskSet> corpus;
  for (const char* file :
       {"eq3_worst_fit", "fig1", "fig1c_deadlock", "mixed_set"})
    corpus.push_back(model::load_task_set(std::string(RTPOOL_SOURCE_DIR) +
                                          "/data/" + file + ".taskset"));
  for (std::uint64_t seed : {11u, 23u, 37u})
    for (double utilization : {1.4, 2.4, 4.8})
      corpus.push_back(generated_set(seed, utilization));
  return corpus;
}

/// Run `analyzer` with certificate emission on and return the Report.
analysis::Report certified_report(const analysis::Analyzer& analyzer,
                                  const model::TaskSet& ts,
                                  analysis::RtaContext* ctx = nullptr) {
  analysis::AnalyzerOptions opts;
  opts.diagnostics = true;
  std::optional<analysis::RtaContext> local;
  if (ctx == nullptr) {
    local.emplace(ts);
    ctx = &*local;
  }
  return analyzer.analyze(ts, *ctx, opts);
}

/// Expect the checker to reject `mutated` with `kind` (any task index).
void expect_rejected(const model::TaskSet& ts, const cert::Certificate& mutated,
                     cert::CheckFailureKind kind, const char* what) {
  const cert::CheckResult result = cert::check_certificate(ts, mutated);
  ASSERT_FALSE(result.ok()) << what << ": mutation was accepted";
  EXPECT_EQ(result.failure->kind, kind)
      << what << ": rejected as " << cert::to_string(result.failure->kind)
      << " (" << result.failure->detail << ")";
}

// ---- golden acceptance ----

TEST(CertGoldenTest, EveryAnalyzerCertifiesCorpus) {
  for (const model::TaskSet& ts : golden_corpus()) {
    analysis::RtaContext ctx(ts);
    for (const analysis::Analyzer* analyzer : analysis::registered_analyzers()) {
      const analysis::Report rep = certified_report(*analyzer, ts, &ctx);
      ASSERT_NE(rep.certificate, nullptr) << analyzer->name();
      EXPECT_EQ(rep.certificate->analyzer, std::string(analyzer->name()));
      EXPECT_EQ(rep.certificate->schedulable, rep.schedulable)
          << analyzer->name();
      const cert::CheckResult result =
          cert::check_certificate(ts, *rep.certificate);
      EXPECT_TRUE(result.ok())
          << analyzer->name() << ": "
          << cert::to_string(result.failure->kind) << " — "
          << result.failure->detail;
      EXPECT_GT(result.claims_checked, 0u) << analyzer->name();
    }
  }
}

TEST(CertGoldenTest, DiagnosticsOffAttachesNoCertificate) {
  const model::TaskSet ts = generated_set(11, 2.4);
  for (const analysis::Analyzer* analyzer : analysis::registered_analyzers())
    EXPECT_EQ(analyzer->analyze(ts).certificate, nullptr) << analyzer->name();
}

TEST(CertGoldenTest, PartitionFailureCertifies) {
  // Overloaded set: Algorithm 1 / worst-fit cannot place it; the analyzer
  // still emits a (checkable) partition-failure certificate.
  const model::TaskSet ts = generated_set(5, 7.8);
  for (const char* name : {"partitioned-proposed", "partitioned-baseline"}) {
    const analysis::Report rep =
        certified_report(analysis::get_analyzer(name), ts);
    ASSERT_NE(rep.certificate, nullptr);
    const cert::CheckResult result =
        cert::check_certificate(ts, *rep.certificate);
    EXPECT_TRUE(result.ok()) << name << ": "
                             << (result.ok() ? ""
                                             : result.failure->detail);
    if (!rep.certificate->partitioned->partition_failure.empty()) {
      EXPECT_FALSE(rep.schedulable);
    }
  }
}

// ---- reused context == fresh context ----

TEST(CertContextTest, ReusedContextMatchesFresh) {
  const model::TaskSet ts = generated_set(23, 2.4);
  const std::vector<const analysis::Analyzer*> analyzers =
      analysis::registered_analyzers();
  ASSERT_GE(analyzers.size(), 12u);  // the built-ins, federated ones too
  for (const analysis::Analyzer* analyzer : analyzers) {
    analysis::RtaContext reused(ts);
    for (double scale : {1.0, 1.15, 0.85, 1.3, 1.0}) {
      analysis::AnalyzerOptions opts;
      opts.diagnostics = true;
      opts.wcet_scale = scale;
      const analysis::Report a = analyzer->analyze(ts, reused, opts);
      analysis::RtaContext fresh(ts);
      const analysis::Report b = analyzer->analyze(ts, fresh, opts);
      ASSERT_NE(a.certificate, nullptr) << analyzer->name();
      ASSERT_NE(b.certificate, nullptr) << analyzer->name();
      EXPECT_TRUE(*a.certificate == *b.certificate)
          << analyzer->name() << " at scale " << scale;
      EXPECT_TRUE(a == b) << analyzer->name() << " at scale " << scale;
    }
  }
}

// ---- negative paths: global family ----

TEST(CertMutationTest, BumpedFixedPointRejected) {
  const model::TaskSet ts = generated_set(11, 2.4);
  const analysis::Report rep =
      certified_report(analysis::get_analyzer("global-baseline"), ts);
  ASSERT_TRUE(cert::check_certificate(ts, *rep.certificate).ok());

  // The highest-priority task sees no interference, so its recurrence is
  // constant: any perturbation of its fixed point is inconsistent.
  const std::size_t top = ts.priority_order().front();
  ASSERT_EQ(rep.certificate->global->per_task[top].claim,
            cert::TaskClaim::kConverged);

  cert::Certificate mutated = *rep.certificate;
  mutated.global->per_task[top].response *= 1.5;
  expect_rejected(ts, mutated, cert::CheckFailureKind::kFixedPointInconsistent,
                  "bumped fixed point");
}

TEST(CertMutationTest, FlippedSetVerdictRejected) {
  const model::TaskSet ts = generated_set(11, 2.4);
  const analysis::Report rep =
      certified_report(analysis::get_analyzer("global-limited"), ts);
  cert::Certificate mutated = *rep.certificate;
  mutated.schedulable = !mutated.schedulable;
  expect_rejected(ts, mutated, cert::CheckFailureKind::kMalformed,
                  "flipped set verdict");
}

TEST(CertMutationTest, SwappedAntichainMemberRejected) {
  // Blocking regions r1 -> r2 in series with r3 parallel to both: the
  // maximum antichain is 2 (one series fork plus r3's), and the unused
  // series fork is comparable to whichever series fork the witness kept.
  // Swapping it in for r3's fork breaks pairwise incomparability.
  model::DagTaskBuilder b("series-par");
  const model::NodeId src = b.add_node(1.0);
  const model::NodeId snk = b.add_node(1.0);
  const auto r1 = b.add_blocking_fork_join(1.0, 1.0, {1.0});
  const auto r2 = b.add_blocking_fork_join(1.0, 1.0, {1.0});
  const auto r3 = b.add_blocking_fork_join(1.0, 1.0, {1.0});
  b.add_edge(src, r1.fork);
  b.add_edge(r1.join, r2.fork);
  b.add_edge(r2.join, snk);
  b.add_edge(src, r3.fork);
  b.add_edge(r3.join, snk);
  b.period(100.0).priority(0);
  model::TaskSet ts(8);
  ts.add(b.build());

  const analysis::Report rep =
      certified_report(analysis::get_analyzer("global-limited-antichain"), ts);
  ASSERT_TRUE(cert::check_certificate(ts, *rep.certificate).ok());
  const cert::GlobalTaskCert& tc = rep.certificate->global->per_task[0];
  ASSERT_TRUE(tc.concurrency.has_value());
  ASSERT_TRUE(tc.concurrency->antichain);
  ASSERT_EQ(tc.concurrency->bbar, 2u);

  // Swap in the blocking fork that is comparable to a REMAINING witness
  // member (replacing its incomparable partner).
  const model::DagTask& task = ts.task(0);
  const auto& forks = tc.concurrency->forks;
  bool swapped = false;
  for (std::size_t slot = 0; !swapped && slot < forks.size(); ++slot) {
    for (model::NodeId v = 0; !swapped && v < task.node_count(); ++v) {
      if (task.type(v) != model::NodeType::BF) continue;
      if (std::find(forks.begin(), forks.end(), v) != forks.end()) continue;
      for (std::size_t other = 0; other < forks.size(); ++other) {
        if (other == slot) continue;
        if (task.reachability().reaches(forks[other], v) ||
            task.reachability().reaches(v, forks[other])) {
          cert::Certificate mutated = *rep.certificate;
          mutated.global->per_task[0].concurrency->forks[slot] = v;
          expect_rejected(ts, mutated, cert::CheckFailureKind::kWitnessInvalid,
                          "swapped antichain member");
          swapped = true;
          break;
        }
      }
    }
  }
  EXPECT_TRUE(swapped) << "no comparable fork available to swap in";
}

TEST(CertMutationTest, NonForkWitnessNodeRejected) {
  const model::TaskSet ts = generated_set(11, 2.4);
  const analysis::Report rep =
      certified_report(analysis::get_analyzer("global-limited-antichain"), ts);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const cert::GlobalTaskCert& tc = rep.certificate->global->per_task[i];
    if (!tc.concurrency.has_value() || tc.concurrency->forks.empty()) continue;
    // The source node of a generated DAG is never a blocking fork here:
    // pick any non-BF node as the bogus witness member.
    const model::DagTask& task = ts.task(i);
    for (model::NodeId v = 0; v < task.node_count(); ++v) {
      if (task.type(v) == model::NodeType::BF) continue;
      cert::Certificate mutated = *rep.certificate;
      mutated.global->per_task[i].concurrency->forks[0] = v;
      expect_rejected(ts, mutated, cert::CheckFailureKind::kWitnessInvalid,
                      "non-fork witness node");
      return;
    }
  }
  FAIL() << "corpus set had no antichain witness to corrupt";
}

TEST(CertMutationTest, InflatedConcurrencyBoundRejected) {
  const model::TaskSet ts = generated_set(11, 2.4);
  const analysis::Report rep =
      certified_report(analysis::get_analyzer("global-limited"), ts);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const cert::GlobalTaskCert& tc = rep.certificate->global->per_task[i];
    if (!tc.concurrency.has_value()) continue;
    // Claiming a larger b̄ than |forks| breaks the |forks| == bbar claim.
    cert::Certificate mutated = *rep.certificate;
    mutated.global->per_task[i].concurrency->bbar += 1;
    expect_rejected(ts, mutated, cert::CheckFailureKind::kWitnessInvalid,
                    "inflated b-bar");
    return;
  }
  FAIL() << "corpus set had no concurrency witness";
}

// ---- negative paths: partitioned family ----

/// A set the proposed partitioned analyzer fully certifies (partition
/// success and at least one converged task).
struct PartitionedFixture {
  model::TaskSet ts = model::TaskSet(1);
  analysis::Report rep;
  std::size_t converged = cert::kNoIndex;
};

PartitionedFixture partitioned_fixture(const char* analyzer_name) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    PartitionedFixture fx;
    fx.ts = generated_set(seed, 1.4);
    fx.rep = certified_report(analysis::get_analyzer(analyzer_name), fx.ts);
    const cert::PartitionedCert& pc = *fx.rep.certificate->partitioned;
    if (!pc.partition_failure.empty()) continue;
    for (std::size_t i = 0; i < pc.per_task.size(); ++i)
      if (pc.per_task[i].claim == cert::TaskClaim::kConverged) {
        fx.converged = i;
        return fx;
      }
  }
  ADD_FAILURE() << "no generated set yielded a converged partitioned task";
  return {};
}

TEST(CertMutationTest, OverloadedCoreRejected) {
  const PartitionedFixture fx = partitioned_fixture("partitioned-proposed");
  ASSERT_NE(fx.converged, cert::kNoIndex);
  cert::Certificate mutated = *fx.rep.certificate;
  ASSERT_FALSE(mutated.partitioned->core_load.empty());
  mutated.partitioned->core_load[0] += 0.25;
  expect_rejected(fx.ts, mutated, cert::CheckFailureKind::kPartitionInvalid,
                  "overloaded core");
}

TEST(CertMutationTest, BumpedSegmentBlockingRejected) {
  const PartitionedFixture fx = partitioned_fixture("partitioned-proposed");
  ASSERT_NE(fx.converged, cert::kNoIndex);
  cert::Certificate mutated = *fx.rep.certificate;
  ASSERT_FALSE(mutated.partitioned->per_task[fx.converged].segments.empty());
  mutated.partitioned->per_task[fx.converged].segments[0].blocking += 1.0;
  expect_rejected(fx.ts, mutated, cert::CheckFailureKind::kOperandMismatch,
                  "bumped FIFO blocking");
}

TEST(CertMutationTest, FlippedDeadlockVerdictRejected) {
  const PartitionedFixture fx = partitioned_fixture("partitioned-proposed");
  ASSERT_NE(fx.converged, cert::kNoIndex);
  cert::Certificate mutated = *fx.rep.certificate;
  cert::PartitionedTaskCert& tc = mutated.partitioned->per_task[fx.converged];
  ASSERT_TRUE(tc.deadlock_free);
  tc.deadlock_free = false;
  expect_rejected(fx.ts, mutated, cert::CheckFailureKind::kDeadlockClaimWrong,
                  "flipped deadlock-freedom");
}

TEST(CertMutationTest, ReassignedPartitionNodeRejected) {
  const PartitionedFixture fx = partitioned_fixture("partitioned-proposed");
  ASSERT_NE(fx.converged, cert::kNoIndex);
  cert::Certificate mutated = *fx.rep.certificate;
  // Moving one node to another thread desynchronizes the echoed core loads
  // (re-derived per core by the checker from the partition echo).
  std::vector<std::uint32_t>& threads =
      mutated.partitioned->thread_of[fx.converged];
  ASSERT_FALSE(threads.empty());
  threads[0] = (threads[0] + 1) % static_cast<std::uint32_t>(fx.ts.core_count());
  expect_rejected(fx.ts, mutated, cert::CheckFailureKind::kPartitionInvalid,
                  "reassigned partition node");
}

// ---- negative paths: federated family ----

/// Heavy parallel task (vol = 12, len = 3, U = 2): federated gives it a
/// dedicated allocation of ceil((12-3)/(6-3)) = 3 cores.
model::TaskSet heavy_plus_light_set() {
  model::TaskSet ts(8);
  {
    model::DagTaskBuilder b("heavy");
    b.add_fork_join(1.0, 1.0, std::vector<util::Time>(10, 1.0));
    b.period(6.0).priority(0);
    ts.add(b.build());
  }
  {
    model::DagTaskBuilder b("light");
    const model::NodeId a = b.add_node(1.0);
    const model::NodeId c = b.add_node(1.0);
    b.add_edge(a, c);
    b.period(50.0).priority(1);
    ts.add(b.build());
  }
  return ts;
}

TEST(CertMutationTest, InflatedFederatedAllocationRejected) {
  const model::TaskSet ts = heavy_plus_light_set();
  const analysis::Report rep =
      certified_report(analysis::get_analyzer("federated"), ts);
  ASSERT_TRUE(cert::check_certificate(ts, *rep.certificate).ok());
  const cert::FederatedTaskCert& tc = rep.certificate->federated->per_task[0];
  ASSERT_EQ(tc.claim, cert::TaskClaim::kDedicated);
  cert::Certificate mutated = *rep.certificate;
  mutated.federated->per_task[0].cores += 1;
  expect_rejected(ts, mutated, cert::CheckFailureKind::kAllocationInvalid,
                  "inflated dedicated allocation");
}

TEST(CertMutationTest, OverstatedDedicatedTotalRejected) {
  const model::TaskSet ts = heavy_plus_light_set();
  const analysis::Report rep =
      certified_report(analysis::get_analyzer("federated"), ts);
  cert::Certificate mutated = *rep.certificate;
  mutated.federated->dedicated_cores += 1;
  expect_rejected(ts, mutated, cert::CheckFailureKind::kAllocationInvalid,
                  "overstated dedicated total");
}

// ---- renderers ----

TEST(CertRenderTest, JsonRoundTripsAndTextNamesAnalyzer) {
  const model::TaskSet ts = generated_set(11, 2.4);
  for (const char* name :
       {"global-limited-antichain", "partitioned-proposed", "federated"}) {
    const analysis::Report rep =
        certified_report(analysis::get_analyzer(name), ts);
    ASSERT_NE(rep.certificate, nullptr);
    const std::string json = lint::render_json(*rep.certificate, ts);
    const util::JsonValue v = util::parse_json(json);
    EXPECT_EQ(v.at("tool").as_string(), "rtpool-certificate");
    EXPECT_EQ(v.at("analyzer").as_string(), name);
    EXPECT_EQ(v.at("schedulable").as_bool(), rep.schedulable);
    EXPECT_EQ(v.at("family").as_string(),
              std::string(cert::to_string(rep.certificate->family)));
    const std::string text = lint::render_text(*rep.certificate, ts);
    EXPECT_NE(text.find(name), std::string::npos);
    EXPECT_NE(text.find(ts.task(0).name()), std::string::npos);
  }
}

}  // namespace
}  // namespace rtpool
