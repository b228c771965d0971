// Tests for the online mode-change controller (exec/mode_change.h):
// admission / eviction / resize decision paths, certificate-carrying
// rejections, the incremental-equals-cold property, the runtime cross-check
// against the Lemma 2 witness, drain semantics and log determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cert_check.h"
#include "analysis/deadlock.h"
#include "exec/mode_change.h"
#include "exec/thread_pool.h"
#include "exp/elastic_scenarios.h"
#include "model/builder.h"

namespace rtpool::exec {
namespace {

using model::DagTask;
using model::DagTaskBuilder;
using model::NodeId;

/// A light parallel task: trivially schedulable on any mode used here.
DagTask light_task(const std::string& name, int priority) {
  DagTaskBuilder b(name);
  const NodeId pre = b.add_node(1.0);
  const auto fj = b.add_blocking_fork_join(1.0, 1.0, {1.0, 1.0});
  const NodeId post = b.add_node(1.0);
  b.add_edge(pre, fj.fork);
  b.add_edge(fj.join, post);
  b.period(100.0);
  return b.build().with_priority(priority);
}

/// A task whose volume exceeds its deadline times any small core count:
/// no analyzer can prove it schedulable.
DagTask overload_task(const std::string& name, int priority) {
  DagTaskBuilder b(name);
  NodeId prev = b.add_node(200.0);
  for (int i = 0; i < 3; ++i) {
    const NodeId next = b.add_node(200.0);
    b.add_edge(prev, next);
    prev = next;
  }
  b.period(100.0);
  return b.build().with_priority(priority);
}

/// Figure 1(c): two concurrent blocking regions — the Lemma 2 deadlock on
/// two workers, fine on three.
DagTask fig1c_task(int priority) {
  DagTaskBuilder b("fig1c");
  const NodeId src = b.add_node(1.0);
  const auto r1 = b.add_blocking_fork_join(1.0, 1.0, {1.0, 1.0, 1.0});
  const auto r2 = b.add_blocking_fork_join(1.0, 1.0, {1.0, 1.0, 1.0});
  const NodeId snk = b.add_node(1.0);
  b.add_edge(src, r1.fork);
  b.add_edge(src, r2.fork);
  b.add_edge(r1.join, snk);
  b.add_edge(r2.join, snk);
  b.period(100.0);
  return b.build().with_priority(priority);
}

ModeChangeConfig small_config(std::size_t cores = 4) {
  ModeChangeConfig config;
  config.analyzer = "global-limited";
  config.cores = cores;
  return config;
}

// ---------------------------------------------------------------------------
// Decision paths.

TEST(ModeChangeTest, AdmitSchedulableTaskCommits) {
  ModeChangeController controller(small_config());
  const ModeTransition tr = controller.admit(light_task("tau0", 0));
  EXPECT_TRUE(tr.accepted);
  EXPECT_TRUE(tr.committed);
  EXPECT_TRUE(tr.cross_check_ok);
  EXPECT_TRUE(tr.reject_reason.empty());
  EXPECT_TRUE(tr.report.schedulable);
  EXPECT_EQ(tr.kind, ModeRequestKind::kAdmit);
  EXPECT_EQ(tr.detail, "tau0");
  EXPECT_EQ(tr.workers_after, 4u);

  const ModeSnapshot mode = controller.mode();
  EXPECT_EQ(mode.task_set->size(), 1u);
  EXPECT_EQ(mode.workers, 4u);
  EXPECT_EQ(mode.version, 2u);  // initial empty mode was version 1
}

TEST(ModeChangeTest, RejectedAdmissionCarriesCheckableCertificate) {
  ModeChangeController controller(small_config(2));
  ASSERT_TRUE(controller.admit(light_task("tau0", 0)).committed);
  const std::uint64_t version_before = controller.mode().version;

  const ModeTransition tr = controller.admit(overload_task("heavy", 1));
  EXPECT_FALSE(tr.accepted);
  EXPECT_FALSE(tr.committed);
  EXPECT_FALSE(tr.reject_reason.empty());
  EXPECT_FALSE(tr.report.schedulable);

  // The rejection is not just a verdict: it carries the analyzer's
  // machine-checkable witness, re-validatable with zero shared code.
  ASSERT_NE(tr.report.certificate, nullptr);
  ASSERT_NE(tr.proposed, nullptr);
  const analysis::cert::CheckResult check =
      analysis::cert::check_certificate(*tr.proposed, *tr.report.certificate);
  EXPECT_TRUE(check.ok()) << "certificate failed independent re-validation";
  EXPECT_GT(check.claims_checked, 0u);

  // The old mode stayed committed, heavy is not in it.
  const ModeSnapshot mode = controller.mode();
  EXPECT_EQ(mode.version, version_before);
  EXPECT_EQ(mode.task_set->size(), 1u);
  EXPECT_EQ(mode.task_set->task(0).name(), "tau0");
}

TEST(ModeChangeTest, EvictPaths) {
  ModeChangeController controller(small_config());
  ASSERT_TRUE(controller.admit(light_task("tau0", 0)).committed);

  const ModeTransition bogus = controller.evict("never-admitted");
  EXPECT_FALSE(bogus.accepted);
  EXPECT_FALSE(bogus.committed);
  EXPECT_NE(bogus.reject_reason.find("no task named"), std::string::npos);
  EXPECT_EQ(controller.mode().task_set->size(), 1u);

  const ModeTransition ok = controller.evict("tau0");
  EXPECT_TRUE(ok.committed);
  EXPECT_EQ(controller.mode().task_set->size(), 0u);
}

TEST(ModeChangeTest, ResizeAppliesPoolDelta) {
  ThreadPool pool(2);
  ModeChangeConfig config = small_config();
  ModeChangeController controller(config, &pool);
  EXPECT_EQ(controller.mode().workers, 2u);  // the pool's size wins
  ASSERT_TRUE(controller.admit(light_task("tau0", 0)).committed);

  const ModeTransition grow = controller.resize(4);
  EXPECT_TRUE(grow.committed);
  EXPECT_EQ(grow.detail, "2 -> 4");
  EXPECT_EQ(pool.worker_count(), 4u);
  EXPECT_EQ(controller.mode().workers, 4u);

  const ModeTransition shrink = controller.resize(2);
  EXPECT_TRUE(shrink.committed);
  EXPECT_EQ(pool.worker_count(), 2u);

  const ModeTransition zero = controller.resize(0);
  EXPECT_FALSE(zero.committed);
  EXPECT_EQ(pool.worker_count(), 2u);
}

// ---------------------------------------------------------------------------
// Runtime cross-check (step 5) vs. the static Lemma 2 witness.

TEST(ModeChangeTest, ResizeIntoFig1cDeadlockRolledBackByCrossCheck) {
  // global-baseline ignores blocking-reduced concurrency, so it happily
  // accepts Fig. 1(c) at m = 2 — exactly the analyzer/binding mismatch the
  // runtime cross-check exists to catch.
  ModeChangeConfig config;
  config.analyzer = "global-baseline";
  config.cores = 3;
  ModeChangeController controller(config);
  const DagTask task = fig1c_task(0);

  // At m = 3 the task is deadlock-free: admit commits, cross-check passes.
  ASSERT_FALSE(analysis::find_wait_for_cycle(task, 3).has_value());
  const ModeTransition admit = controller.admit(task);
  ASSERT_TRUE(admit.committed);
  EXPECT_TRUE(admit.cross_check_ok);

  // At m = 2 the static analysis (Lemma 2) finds a wait-for cycle; the
  // controller's runtime re-validation must agree and ROLL BACK even
  // though the (blocking-blind) analyzer accepted.
  const auto witness = analysis::find_wait_for_cycle(task, 2);
  ASSERT_TRUE(witness.has_value());
  const ModeTransition shrink = controller.resize(2);
  EXPECT_TRUE(shrink.accepted);  // the analyzer said yes...
  EXPECT_FALSE(shrink.cross_check_ok);
  EXPECT_FALSE(shrink.committed);  // ...and was overruled
  EXPECT_NE(shrink.reject_reason.find("cycle"), std::string::npos);

  // Old mode intact: still 3 workers, the task still admitted.
  EXPECT_EQ(controller.mode().workers, 3u);
  EXPECT_EQ(controller.mode().task_set->size(), 1u);
}

TEST(ModeChangeTest, CrossCheckFailureCommitsLoudlyWhenNotRequired) {
  ModeChangeConfig config;
  config.analyzer = "global-baseline";
  config.cores = 2;
  config.require_cross_check = false;
  ModeChangeController controller(config);
  const ModeTransition tr = controller.admit(fig1c_task(0));
  EXPECT_TRUE(tr.accepted);
  EXPECT_FALSE(tr.cross_check_ok);  // recorded loudly...
  EXPECT_TRUE(tr.committed);        // ...but committed as configured
}

// ---------------------------------------------------------------------------
// Incremental-equals-cold: the property the verdict copy must preserve.

TEST(ModeChangeTest, WarmVerdictsBitIdenticalToColdOverSeededStreams) {
  // "Warm": the controller's verdicts, analyzed against the committed
  // mode's snapshots; "cold": a fresh-context re-analysis of each proposal.
  for (const std::uint64_t seed : {11u, 29u, 47u}) {
    exp::ElasticScenarioParams params;
    params.steps = 8;
    const std::vector<exp::ElasticRequest> requests =
        exp::make_elastic_scenario(params, seed);
    const exp::ElasticReplay replay =
        exp::replay_elastic(requests, small_config(), /*pool=*/nullptr,
                            /*verify_cold=*/true);
    EXPECT_TRUE(replay.verdicts_agree)
        << "seed " << seed << ": controller verdict diverged from cold re-analysis";
    EXPECT_GT(replay.verified, 0u) << "seed " << seed;
    EXPECT_EQ(replay.committed + replay.rejected, requests.size())
        << "seed " << seed;
  }
}

TEST(ModeChangeTest, IncrementalAdmissionsCopyPriorVerdicts) {
  // The second admission adds tau1 at a LOWER priority than surviving
  // tau0, so tau0 sits in the copyable prefix — its fixed point is skipped
  // outright.
  ModeChangeController controller(small_config());
  const ModeTransition first = controller.admit(light_task("tau0", 0));
  ASSERT_TRUE(first.committed);
  EXPECT_EQ(first.incremental_prefix, 0u);  // no prior incarnation yet
  const ModeTransition second = controller.admit(light_task("tau1", 1));
  ASSERT_TRUE(second.committed);
  EXPECT_EQ(second.incremental_prefix, 1u);
  EXPECT_GT(second.incremental_hits, 0u);
  // Bit-identical to a cold run of the same proposal.
  ASSERT_NE(second.proposed, nullptr);
  const analysis::Report cold = controller.cold_analyze(*second.proposed);
  EXPECT_TRUE(cold == second.report);
}

TEST(ModeChangeTest, IncrementalEvictionsCopyHigherPriorityPrefix) {
  ModeChangeController controller(small_config());
  ASSERT_TRUE(controller.admit(light_task("tau0", 0)).committed);
  ASSERT_TRUE(controller.admit(light_task("tau1", 1)).committed);
  ASSERT_TRUE(controller.admit(light_task("tau2", 2)).committed);
  // Evicting the LOWEST-priority task leaves every survivor's ordered
  // interference inputs unchanged: the whole surviving set is copyable.
  const ModeTransition evict = controller.evict("tau2");
  ASSERT_TRUE(evict.committed);
  EXPECT_EQ(evict.incremental_prefix, 2u);
  EXPECT_GT(evict.incremental_hits, 0u);
  ASSERT_NE(evict.proposed, nullptr);
  const analysis::Report cold = controller.cold_analyze(*evict.proposed);
  EXPECT_TRUE(cold == evict.report);
}

TEST(ModeChangeTest, ResizeCopiesNothingButStaysCorrect) {
  // A resize changes m: the per-analyze core-count guard must reject every
  // copy. The verdict still matches a cold run at the new m.
  ModeChangeController controller(small_config());
  ASSERT_TRUE(controller.admit(light_task("tau0", 0)).committed);
  const ModeTransition resize = controller.resize(6);
  ASSERT_TRUE(resize.committed);
  EXPECT_EQ(resize.incremental_hits, 0u);
  ASSERT_NE(resize.proposed, nullptr);
  const analysis::Report cold = controller.cold_analyze(*resize.proposed);
  EXPECT_TRUE(cold == resize.report);
}

// ---------------------------------------------------------------------------
// Determinism contract: same requests, same log (modulo timings).

TEST(ModeChangeTest, TransitionLogReplaysBitIdentically) {
  const auto drive = [](ModeChangeController& controller) {
    controller.admit(light_task("tau0", 0));
    controller.admit(overload_task("heavy", 1));
    controller.resize(6);
    controller.admit(light_task("tau1", 2));
    controller.evict("tau0");
    controller.evict("never-admitted");
  };
  ModeChangeController a(small_config());
  ModeChangeController b(small_config());
  drive(a);
  drive(b);
  const std::string log_a = a.render_log_json(/*include_timings=*/false);
  EXPECT_EQ(log_a, b.render_log_json(/*include_timings=*/false));
  EXPECT_NE(log_a.find("\"rtpool-mode-transitions-v2\""), std::string::npos);
  EXPECT_EQ(a.transition_log().size(), 6u);
}

// ---------------------------------------------------------------------------
// Concurrency: simultaneous proposals serialize deterministically. (These
// run under the TSan CI matrix — the point is as much the absence of data
// races as the assertions below.)

TEST(ModeChangeTest, TwoSimultaneousProposalsSerialize) {
  ModeChangeController controller(small_config());
  std::atomic<int> ready{0};
  ModeTransition tr_a, tr_b;
  std::thread a([&] {
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    tr_a = controller.admit(light_task("alpha", 0));
  });
  std::thread b([&] {
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    tr_b = controller.admit(light_task("beta", 1));
  });
  a.join();
  b.join();

  EXPECT_TRUE(tr_a.committed);
  EXPECT_TRUE(tr_b.committed);
  // The proposals got distinct, consecutive sequence numbers: one of them
  // went strictly first, there is no interleaved half-order.
  EXPECT_EQ(std::min(tr_a.id, tr_b.id), 1u);
  EXPECT_EQ(std::max(tr_a.id, tr_b.id), 2u);
  // Whichever serialized second analyzed a proposal that already contained
  // the winner's task: proposals see fully committed modes, never partial.
  const ModeTransition& first = tr_a.id < tr_b.id ? tr_a : tr_b;
  const ModeTransition& second = tr_a.id < tr_b.id ? tr_b : tr_a;
  ASSERT_NE(first.proposed, nullptr);
  ASSERT_NE(second.proposed, nullptr);
  EXPECT_EQ(first.proposed->size(), 1u);
  EXPECT_EQ(second.proposed->size(), 2u);

  // Final state is the same under either order: both tasks in, two commits.
  const ModeSnapshot mode = controller.mode();
  EXPECT_EQ(mode.task_set->size(), 2u);
  EXPECT_EQ(mode.version, 3u);  // initial empty mode was version 1
  const std::vector<ModeTransition> log = controller.transition_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].id, 1u);
  EXPECT_EQ(log[1].id, 2u);
}

TEST(ModeChangeTest, ConcurrentProposalStormStaysSerializable) {
  ThreadPool pool(2);
  ModeChangeController controller(small_config(), &pool);
  constexpr int kPerThread = 8;
  std::atomic<int> ready{0};
  std::atomic<int> committed_admits{0};
  // Admissions may legitimately be REJECTED as interference accumulates
  // (the analysis, not the locking, decides) — the invariants under test
  // are serialization and state consistency, not schedulability.
  const auto admitter = [&](const std::string& prefix, int priority_base) {
    ready.fetch_add(1);
    while (ready.load() < 3) std::this_thread::yield();
    for (int i = 0; i < kPerThread; ++i) {
      const ModeTransition tr = controller.admit(
          light_task(prefix + std::to_string(i), priority_base + i));
      if (tr.committed) committed_admits.fetch_add(1);
    }
  };
  std::thread a(admitter, "a", 0);
  std::thread b(admitter, "b", 100);
  std::thread resizer([&] {
    ready.fetch_add(1);
    while (ready.load() < 3) std::this_thread::yield();
    for (const std::size_t workers : {3u, 4u, 2u})
      controller.resize(workers);  // may commit or reject; must not race
  });
  a.join();
  b.join();
  resizer.join();

  // Every request serialized: the log's sequence numbers are 1..N with no
  // gaps or duplicates, and every admitted task is in the final mode.
  const std::vector<ModeTransition> log = controller.transition_log();
  ASSERT_EQ(log.size(), static_cast<std::size_t>(2 * kPerThread + 3));
  for (std::size_t i = 0; i < log.size(); ++i)
    EXPECT_EQ(log[i].id, i + 1);
  // Exactly the committed admissions are in the final mode — a torn commit
  // would leave the count off under either failure direction.
  EXPECT_GT(committed_admits.load(), 0);
  EXPECT_EQ(controller.mode().task_set->size(),
            static_cast<std::size_t>(committed_admits.load()));
}

// ---------------------------------------------------------------------------
// Drain: commits wait for in-flight JobScopes.

TEST(ModeChangeTest, CommitDrainsInFlightJobScopes) {
  ModeChangeController controller(small_config());
  ASSERT_TRUE(controller.admit(light_task("tau0", 0)).committed);
  const std::uint64_t version_before = controller.mode().version;

  std::mutex mu;
  std::condition_variable cv;
  bool job_started = false;
  bool release_job = false;
  std::thread job([&] {
    ModeChangeController::JobScope scope(controller);
    EXPECT_EQ(scope.snapshot().version, version_before);
    {
      std::lock_guard lock(mu);
      job_started = true;
      cv.notify_all();
    }
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return release_job; });
    // The job keeps observing its admission-time mode even while a commit
    // is pending: snapshots are immutable and shared.
    EXPECT_EQ(scope.task_set().size(), 1u);
  });
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return job_started; });
  }

  std::atomic<bool> admitted{false};
  std::thread request([&] {
    controller.admit(light_task("tau1", 1));
    admitted = true;
  });
  // The commit must not land while the old-mode job is still in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(admitted.load());
  EXPECT_EQ(controller.mode().version, version_before);

  {
    std::lock_guard lock(mu);
    release_job = true;
    cv.notify_all();
  }
  job.join();
  request.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(controller.mode().version, version_before + 1);
  EXPECT_EQ(controller.mode().task_set->size(), 2u);
}

}  // namespace
}  // namespace rtpool::exec
