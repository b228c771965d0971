// Unit tests for the real thread-pool runtime (src/exec): pool mechanics,
// blocking/non-blocking graph execution, and the live deadlock of Fig. 1(c).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "analysis/concurrency.h"
#include "exec/graph_executor.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "gen/taskset_generator.h"
#include "model/builder.h"

namespace rtpool::exec {
namespace {

using model::DagTask;
using model::DagTaskBuilder;
using model::NodeId;

DagTask fig1_task() {
  DagTaskBuilder b("fig1");
  const NodeId pre = b.add_node(1.0);
  const auto fj = b.add_blocking_fork_join(1.0, 1.0, {1.0, 1.0, 1.0});
  const NodeId post = b.add_node(1.0);
  b.add_edge(pre, fj.fork);
  b.add_edge(fj.join, post);
  b.period(100.0);
  return b.build();
}

DagTask two_region_task() {
  DagTaskBuilder b("replicas");
  const NodeId src = b.add_node(1.0);
  const auto r1 = b.add_blocking_fork_join(1.0, 1.0, {1.0, 1.0});
  const auto r2 = b.add_blocking_fork_join(1.0, 1.0, {1.0, 1.0});
  const NodeId snk = b.add_node(1.0);
  b.add_edge(src, r1.fork);
  b.add_edge(src, r2.fork);
  b.add_edge(r1.join, snk);
  b.add_edge(r2.join, snk);
  b.period(100.0);
  return b.build();
}

TEST(ThreadPoolTest, ExecutesSubmittedClosures) {
  // Declared before the pool: it joins its workers before these die.
  std::atomic<int> count{0};
  std::mutex mu;
  std::condition_variable cv;
  ThreadPool pool(4);
  for (int i = 0; i < 100; ++i)
    pool.submit([&] {
      if (count.fetch_add(1) + 1 == 100) {
        std::lock_guard lock(mu);
        cv.notify_all();
      }
    });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_until(lock, deadline, [&] { return count.load() == 100; }));
  lock.unlock();
  // A worker bumps executed() only after its closure has returned, so the
  // last increment can trail count reaching 100: wait for it too.
  while (pool.executed() < 100u && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(pool.executed(), 100u);
}

TEST(ThreadPoolTest, CurrentWorkerVisibleInsideClosures) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  std::mutex mu;
  std::set<std::size_t> seen;
  for (int i = 0; i < 50; ++i)
    pool.submit([&] {
      const auto w = ThreadPool::current_worker();
      ASSERT_TRUE(w.has_value());
      {
        std::lock_guard lock(mu);
        seen.insert(*w);
      }
      done.fetch_add(1);
    });
  while (done.load() < 50) std::this_thread::yield();
  EXPECT_FALSE(ThreadPool::current_worker().has_value());  // main thread
  for (std::size_t w : seen) EXPECT_LT(w, 3u);
}

TEST(ThreadPoolTest, PerWorkerQueuesRouteToTarget) {
  ThreadPool pool(3, ThreadPool::QueueMode::kPerWorker);
  std::atomic<int> done{0};
  std::atomic<bool> routed{true};
  for (int i = 0; i < 30; ++i) {
    const std::size_t target = i % 3;
    pool.submit_to(target, [&, target] {
      if (ThreadPool::current_worker() != target) routed = false;
      done.fetch_add(1);
    });
  }
  while (done.load() < 30) std::this_thread::yield();
  EXPECT_TRUE(routed.load());
}

TEST(ThreadPoolTest, SubmitToRequiresPerWorkerMode) {
  ThreadPool shared(2);
  EXPECT_THROW(shared.submit_to(0, [] {}), std::logic_error);
  ThreadPool per(2, ThreadPool::QueueMode::kPerWorker);
  EXPECT_THROW(per.submit_to(5, [] {}), std::out_of_range);
}

TEST(ThreadPoolTest, StealingDrainsForeignQueues) {
  ThreadPool pool(2, ThreadPool::QueueMode::kPerWorker, /*steal=*/true);
  std::atomic<int> done{0};
  // Everything targeted at worker 0; worker 1 must steal some of it.
  std::atomic<bool> worker1_ran{false};
  for (int i = 0; i < 64; ++i)
    pool.submit_to(0, [&] {
      if (ThreadPool::current_worker() == 1u) worker1_ran = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1);
    });
  while (done.load() < 64) std::this_thread::yield();
  EXPECT_TRUE(worker1_ran.load());
}

TEST(ThreadPoolTest, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(GraphExecutorTest, BlockingCompletesWithEnoughWorkers) {
  ThreadPool pool(2);
  const DagTask task = fig1_task();
  GraphExecutor exec(pool, task);
  std::atomic<int> visited{0};
  const ExecReport report =
      exec.run_blocking(ExecOptions{}, [&](NodeId) { visited.fetch_add(1); });
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.nodes_executed, task.node_count());
  EXPECT_EQ(visited.load(), static_cast<int>(task.node_count()));
  // The fork was suspended at some point.
  EXPECT_GE(report.max_blocked_workers, 1u);
}

TEST(GraphExecutorTest, BlockingDeadlocksOnTwoRegionsTwoWorkers) {
  ThreadPool pool(2);
  const DagTask task = two_region_task();
  GraphExecutor exec(pool, task);
  ExecOptions options;
  options.watchdog = std::chrono::milliseconds(300);
  const ExecReport report = exec.run_blocking(options);
  EXPECT_FALSE(report.completed);  // Figure 1(c): a real deadlock, cancelled
  EXPECT_EQ(report.max_blocked_workers, 2u);
  EXPECT_LT(report.nodes_executed, task.node_count());
  // The pool must be usable again after cancellation.
  std::atomic<bool> ran{false};
  std::mutex mu;
  std::condition_variable cv;
  pool.submit([&] {
    // Notify under the lock: otherwise the waiter can wake, return and
    // destroy cv while notify_all is still running (TSan-visible race).
    std::lock_guard lock(mu);
    ran = true;
    cv.notify_all();
  });
  std::unique_lock lock(mu);
  EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return ran.load(); }));
}

TEST(GraphExecutorTest, NonBlockingNeverDeadlocks) {
  ThreadPool pool(2);
  const DagTask task = two_region_task();
  GraphExecutor exec(pool, task);
  const ExecReport report = exec.run_non_blocking(ExecOptions{});
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.nodes_executed, task.node_count());
}

TEST(GraphExecutorTest, BlockingCompletesEvenOnOneWorkerForSingleRegion) {
  // One worker + one region deadlocks (the fork blocks the only worker).
  ThreadPool pool(1);
  const DagTask task = fig1_task();
  GraphExecutor exec(pool, task);
  ExecOptions options;
  options.watchdog = std::chrono::milliseconds(300);
  const ExecReport report = exec.run_blocking(options);
  EXPECT_FALSE(report.completed);

  // Non-blocking on one worker is fine.
  ThreadPool pool2(1);
  GraphExecutor exec2(pool2, task);
  EXPECT_TRUE(exec2.run_non_blocking(ExecOptions{}).completed);
}

TEST(GraphExecutorTest, RespectsTopologicalOrder) {
  ThreadPool pool(4);
  const DagTask task = fig1_task();
  GraphExecutor exec(pool, task);
  std::mutex mu;
  std::vector<NodeId> order;
  const ExecReport report = exec.run_blocking(ExecOptions{}, [&](NodeId v) {
    std::lock_guard lock(mu);
    order.push_back(v);
  });
  ASSERT_TRUE(report.completed);
  ASSERT_EQ(order.size(), task.node_count());
  std::vector<std::size_t> pos(task.node_count());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const auto& e : task.dag().edges())
    EXPECT_LT(pos[e.from], pos[e.to]) << "edge " << e.from << "->" << e.to;
}

TEST(GraphExecutorTest, PerWorkerAssignmentHonored) {
  ThreadPool pool(2, ThreadPool::QueueMode::kPerWorker);
  const DagTask task = fig1_task();
  const auto& region = task.blocking_regions()[0];

  // Fork+join on worker 0, everything else on worker 1 (Lemma 3-safe).
  analysis::NodeAssignment asg{
      std::vector<analysis::ThreadId>(task.node_count(), 1)};
  asg.thread_of[region.fork] = 0;
  asg.thread_of[region.join] = 0;

  ExecOptions options;
  options.assignment = asg;
  std::mutex mu;
  std::vector<std::pair<NodeId, std::size_t>> placements;
  GraphExecutor exec(pool, task);
  const ExecReport report = exec.run_blocking(options, [&](NodeId v) {
    std::lock_guard lock(mu);
    placements.emplace_back(v, *ThreadPool::current_worker());
  });
  ASSERT_TRUE(report.completed);
  for (const auto& [node, worker] : placements) {
    if (node == region.fork || node == region.join) {
      EXPECT_EQ(worker, 0u);
    } else {
      EXPECT_EQ(worker, 1u);
    }
  }
}

TEST(GraphExecutorTest, PerWorkerDeadlockWhenChildBehindSuspendedWorker) {
  // All nodes on worker 0: the children sit behind the suspended fork.
  ThreadPool pool(2, ThreadPool::QueueMode::kPerWorker);
  const DagTask task = fig1_task();
  ExecOptions options;
  options.assignment = analysis::NodeAssignment{
      std::vector<analysis::ThreadId>(task.node_count(), 0)};
  options.watchdog = std::chrono::milliseconds(300);
  GraphExecutor exec(pool, task);
  EXPECT_FALSE(exec.run_blocking(options).completed);
}

TEST(GraphExecutorTest, ValidatesAssignment) {
  ThreadPool pool(2, ThreadPool::QueueMode::kPerWorker);
  const DagTask task = fig1_task();
  GraphExecutor exec(pool, task);
  EXPECT_THROW(exec.run_blocking(ExecOptions{}), std::invalid_argument);

  ExecOptions bad_size;
  bad_size.assignment = analysis::NodeAssignment{{0}};
  EXPECT_THROW(exec.run_blocking(bad_size), std::invalid_argument);

  ExecOptions bad_index;
  bad_index.assignment = analysis::NodeAssignment{
      std::vector<analysis::ThreadId>(task.node_count(), 7)};
  EXPECT_THROW(exec.run_blocking(bad_index), std::invalid_argument);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  const bool ok = parallel_for(pool, 0, 1000, [&](std::size_t i) {
    hits[i].fetch_add(1);
  });
  ASSERT_TRUE(ok);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, GrainChunksRange) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  ParallelForOptions options;
  options.grain = 7;  // 100 / 7 -> 15 chunks, last one partial
  const bool ok = parallel_for(
      pool, 0, 100, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); },
      options);
  ASSERT_TRUE(ok);
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ParallelForTest, EmptyRangeAndValidation) {
  ThreadPool pool(1);
  EXPECT_TRUE(parallel_for(pool, 5, 5, [](std::size_t) { FAIL(); }));
  EXPECT_TRUE(parallel_for(pool, 9, 3, [](std::size_t) { FAIL(); }));

  ParallelForOptions bad;
  bad.grain = 0;
  EXPECT_THROW(parallel_for(pool, 0, 1, [](std::size_t) {}, bad),
               std::invalid_argument);

  ThreadPool per(2, ThreadPool::QueueMode::kPerWorker);
  EXPECT_THROW(parallel_for(per, 0, 1, [](std::size_t) {}),
               std::logic_error);
}

TEST(ParallelForTest, CallerWorkerCountsAsBlocked) {
  // A nested parallel_for from inside a worker suspends that worker — the
  // reduced-concurrency effect, visible through the pool instrumentation.
  ThreadPool pool(3);
  std::atomic<bool> ok{false};
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> done{false};
  pool.submit([&] {
    ok = parallel_for(pool, 0, 8, [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    std::lock_guard lock(mu);  // notify under the lock (cv lifetime)
    done = true;
    cv.notify_all();
  });
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return done.load(); }));
  }
  EXPECT_TRUE(ok.load());
  EXPECT_GE(pool.max_blocked_workers(), 1u);
}

TEST(ParallelForTest, NestedOnSingleWorkerDeadlocksAndTimesOut) {
  // The paper's hazard in API form: a worker of a 1-thread pool calls
  // parallel_for — its chunks can never run because the only worker is
  // blocked waiting for them. The timeout detects the stall.
  ThreadPool pool(1);
  std::atomic<int> executed{0};
  std::atomic<bool> result{true};
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> done{false};
  pool.submit([&] {
    ParallelForOptions options;
    options.timeout = std::chrono::milliseconds(200);
    result = parallel_for(pool, 0, 4, [&](std::size_t) { executed.fetch_add(1); },
                          options);
    std::lock_guard lock(mu);  // notify under the lock (cv lifetime)
    done = true;
    cv.notify_all();
  });
  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return done.load(); }));
  EXPECT_FALSE(result.load());  // timed out: live deadlock detected
  EXPECT_EQ(executed.load(), 0);
  EXPECT_EQ(pool.max_blocked_workers(), 1u);
}

TEST(ParallelForTest, ExternalCallerOnSingleWorkerIsFine) {
  // The same call from a NON-worker thread completes: the external caller
  // blocks, the single worker drains the chunks (Listing 1 with l = 1 > 0).
  ThreadPool pool(1);
  std::atomic<int> executed{0};
  EXPECT_TRUE(parallel_for(pool, 0, 16, [&](std::size_t) { executed.fetch_add(1); }));
  EXPECT_EQ(executed.load(), 16);
  EXPECT_EQ(pool.max_blocked_workers(), 0u);  // caller was not a worker
}

TEST(GraphExecutorTest, SyntheticWorkScalesElapsed) {
  ThreadPool pool(2);
  const DagTask task = fig1_task();  // volume = 7 units
  GraphExecutor exec(pool, task);
  ExecOptions options;
  options.microseconds_per_unit = 2000.0;  // 2 ms per unit
  const ExecReport report = exec.run_blocking(options);
  ASSERT_TRUE(report.completed);
  // Critical path pre+fork+child+join+post = 5 units = 10 ms minimum.
  EXPECT_GE(report.elapsed.count(), 9000);
}

TEST(ThreadPoolTest, ChurnStress) {
  // Many short-lived pools with in-flight work: destruction must join
  // cleanly whatever the timing (abandoning queued closures is the
  // documented behaviour, so no execution-count assertion here).
  std::atomic<int> executed{0};
  for (int round = 0; round < 30; ++round) {
    ThreadPool pool(1 + round % 4);
    for (int i = 0; i < 50; ++i)
      pool.submit([&] { executed.fetch_add(1, std::memory_order_relaxed); });
    // Destructor races with the queue on purpose.
  }

  // One controlled round: waiting for the work guarantees execution.
  {
    // Declared before the pool: it joins its workers before these die.
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<int> done{0};
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i)
      pool.submit([&] {
        if (done.fetch_add(1) + 1 == 50) {
          std::lock_guard lock(mu);
          cv.notify_all();
        }
      });
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return done.load() == 50; }));
  }
}

TEST(ThreadPoolTest, ManyConcurrentGraphRuns) {
  // Several executors sharing one pool, back to back: state isolation.
  ThreadPool pool(4);
  const DagTask task = fig1_task();
  for (int run = 0; run < 20; ++run) {
    GraphExecutor exec(pool, task);
    ExecOptions options;
    options.watchdog = std::chrono::seconds(10);
    const auto report =
        run % 2 == 0 ? exec.run_blocking(options) : exec.run_non_blocking(options);
    ASSERT_TRUE(report.completed) << "run=" << run;
    EXPECT_EQ(report.nodes_executed, task.node_count());
  }
}

/// Lemma 1 on real threads: a pool of b̄(τ)+1 workers cannot exhaust its
/// available concurrency, so every generated task must complete with
/// blocking semantics. (The converse — fewer workers CAN deadlock — is
/// demonstrated deterministically by the dedicated tests above.)
class ExecLemmaTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecLemmaTest, EnoughWorkersNeverStall) {
  util::Rng rng(GetParam());
  gen::TaskSetParams params;
  params.cores = 8;
  const model::DagTask task = gen::generate_task(params, 0, 0.5, rng);
  const std::size_t bbar = analysis::max_affecting_forks(task);

  ThreadPool pool(bbar + 1);
  GraphExecutor exec(pool, task);
  ExecOptions options;
  options.watchdog = std::chrono::seconds(10);
  const ExecReport report = exec.run_blocking(options);
  EXPECT_TRUE(report.completed) << "seed=" << GetParam() << " bbar=" << bbar;
  EXPECT_EQ(report.nodes_executed, task.node_count());
  EXPECT_LE(report.max_blocked_workers, bbar);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecLemmaTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Routing fixes: kPerWorker submit() without a target must round-robin, not
// funnel everything into worker 0.

TEST(ThreadPoolTest, PerWorkerSubmitRoundRobinsAcrossWorkers) {
  ThreadPool pool(3, ThreadPool::QueueMode::kPerWorker);
  std::atomic<int> done{0};
  std::mutex mu;
  std::set<std::size_t> seen;
  for (int i = 0; i < 30; ++i)
    pool.submit([&] {
      {
        std::lock_guard lock(mu);
        seen.insert(*ThreadPool::current_worker());
      }
      done.fetch_add(1);
    });
  while (done.load() < 30) std::this_thread::yield();
  // No stealing: each closure ran on the worker whose queue received it, so
  // all three workers must have been fed.
  EXPECT_EQ(seen.size(), 3u);
}

TEST(ThreadPoolTest, SubmitHonorsExplicitTarget) {
  ThreadPool pool(3, ThreadPool::QueueMode::kPerWorker);
  std::atomic<int> done{0};
  std::atomic<bool> routed{true};
  for (int i = 0; i < 30; ++i)
    pool.submit([&] {
      if (ThreadPool::current_worker() != 2u) routed = false;
      done.fetch_add(1);
    }, /*target=*/2);
  while (done.load() < 30) std::this_thread::yield();
  EXPECT_TRUE(routed.load());
}

TEST(ThreadPoolTest, SubmitTargetRejectedInSharedMode) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.submit([] {}, /*target=*/0), std::logic_error);
}

TEST(ThreadPoolTest, SubmitBatchToRoutesEachClosure) {
  ThreadPool pool(3, ThreadPool::QueueMode::kPerWorker);
  std::atomic<int> done{0};
  std::atomic<bool> routed{true};
  std::vector<std::pair<std::size_t, std::function<void()>>> items;
  for (std::size_t i = 0; i < 30; ++i) {
    const std::size_t target = i % 3;
    items.emplace_back(target, [&, target] {
      if (ThreadPool::current_worker() != target) routed = false;
      done.fetch_add(1);
    });
  }
  pool.submit_batch_to(std::move(items));
  while (done.load() < 30) std::this_thread::yield();
  EXPECT_TRUE(routed.load());
}

// ---------------------------------------------------------------------------
// Exception containment: a foreign closure that throws must not take the
// worker (or the process) down.

TEST(ThreadPoolTest, ThrowingClosureContainedAndWorkerSurvives) {
  ThreadPool pool(1);
  pool.submit([] { throw std::runtime_error("foreign closure blew up"); });
  std::atomic<bool> ran{false};
  std::mutex mu;
  std::condition_variable cv;
  pool.submit([&] {
    std::lock_guard lock(mu);
    ran = true;
    cv.notify_all();
  });
  std::unique_lock lock(mu);
  ASSERT_TRUE(
      cv.wait_for(lock, std::chrono::seconds(5), [&] { return ran.load(); }));
  EXPECT_EQ(pool.uncaught_exceptions(), 1u);
  EXPECT_EQ(pool.first_uncaught_error(), "foreign closure blew up");
}

// ---------------------------------------------------------------------------
// Stealing suppression during partitioned runs (the Eq. (3) placement must
// be enforced at runtime).

TEST(GraphExecutorTest, PartitionedRunSuppressesStealing) {
  const DagTask task = fig1_task();
  // Stealing is configured on, but the run carries an assignment: the
  // executor must suppress stealing for its duration so every node runs on
  // its assigned worker.
  ThreadPool pool(2, ThreadPool::QueueMode::kPerWorker, /*steal=*/true);
  ASSERT_TRUE(pool.stealing_configured());
  // Fork+join on worker 0, everything else on worker 1 — a safe placement.
  std::vector<analysis::ThreadId> thread_of(task.node_count(), 1);
  const auto& region = task.blocking_regions()[0];
  thread_of[region.fork] = 0;
  thread_of[region.join] = 0;
  ExecOptions options;
  options.assignment = analysis::NodeAssignment{thread_of};

  GraphExecutor exec(pool, task);
  std::mutex mu;
  bool placement_honored = true;
  const ExecReport report = exec.run_blocking(options, [&](NodeId v) {
    std::lock_guard lock(mu);
    if (ThreadPool::current_worker() != thread_of[v]) placement_honored = false;
  });
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(placement_honored);
  EXPECT_EQ(pool.steals(), 0u);
}

// ---------------------------------------------------------------------------
// Emergency workers at the pool level.

TEST(ThreadPoolTest, EmergencyWorkerDrainsTargetedQueues) {
  ThreadPool pool(1, ThreadPool::QueueMode::kPerWorker);
  // Suspend the only base worker at a barrier.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> emergency_ran{false};
  pool.submit_to(0, [&] {
    ThreadPool::BlockedScope blocked(pool);
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  while (pool.blocked_workers() == 0) std::this_thread::yield();
  // Work queued behind the suspended worker is unreachable...
  pool.submit_to(0, [&] {
    if (ThreadPool::current_worker().value_or(0) >= pool.worker_count())
      emergency_ran = true;
    std::lock_guard lock(mu);
    release = true;
    cv.notify_all();
  });
  // ...until an emergency worker drains it, ignoring the placement.
  ASSERT_TRUE(pool.spawn_emergency_worker());
  EXPECT_EQ(pool.emergency_worker_count(), 1u);
  std::unique_lock lock(mu);
  ASSERT_TRUE(
      cv.wait_for(lock, std::chrono::seconds(5), [&] { return release; }));
  EXPECT_TRUE(emergency_ran.load());
}

// ---------------------------------------------------------------------------
// Elastic pool: dynamic workers, dead-worker recovery, accounting.

TEST(ThreadPoolElasticTest, AddWorkersGrowsThePool) {
  // Declared before the pool: it joins its workers before these die.
  std::atomic<int> count{0};
  std::mutex mu;
  std::condition_variable cv;
  ThreadPool pool(2);
  EXPECT_EQ(pool.worker_count(), 2u);
  EXPECT_EQ(pool.add_workers(2), 4u);
  EXPECT_EQ(pool.worker_count(), 4u);
  EXPECT_EQ(pool.slot_count(), 4u);

  for (int i = 0; i < 200; ++i)
    pool.submit([&] {
      if (count.fetch_add(1) + 1 == 200) {
        std::lock_guard lock(mu);
        cv.notify_all();
      }
    });
  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return count.load() == 200; }));
}

TEST(ThreadPoolElasticTest, AddedWorkersServeTargetedQueues) {
  ThreadPool pool(1, ThreadPool::QueueMode::kPerWorker);
  ASSERT_EQ(pool.add_workers(1), 2u);
  std::atomic<int> on_new{0};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  pool.submit_to(1, [&] {
    if (ThreadPool::current_worker() == std::optional<std::size_t>(1)) ++on_new;
    std::lock_guard lock(mu);
    done = true;
    cv.notify_all();
  });
  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return done; }));
  EXPECT_EQ(on_new.load(), 1);
}

TEST(ThreadPoolElasticTest, RetireWorkersDrainsQueuedWork) {
  // Declared before the pool: it joins its workers before these die.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> done{0};
  ThreadPool pool(3, ThreadPool::QueueMode::kPerWorker);
  // Park worker 2 behind a gate so its queue backs up, then retire it: the
  // drain protocol must hand the queued closures to the survivors.
  pool.submit_to(2, [&] {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  for (int i = 0; i < 8; ++i)
    pool.submit_to(2, [&] {
      ++done;
      std::lock_guard lock(mu);
      cv.notify_all();
    });
  EXPECT_EQ(pool.retire_workers(1), 2u);
  EXPECT_FALSE(pool.worker_live(2));
  {
    // Only now let the retiring worker finish its closure: the drain
    // protocol hands its backed-up queue to the survivors.
    std::lock_guard lock(mu);
    release = true;
    cv.notify_all();
  }
  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return done.load() == 8; }));
  EXPECT_EQ(pool.worker_count(), 2u);
  EXPECT_GE(pool.handed_back(), 8u);
}

TEST(ThreadPoolElasticTest, RetireRefusesToEmptyThePool) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.retire_workers(2), std::invalid_argument);
  EXPECT_EQ(pool.retire_workers(1), 1u);
  EXPECT_THROW(pool.retire_workers(1), std::invalid_argument);
}

TEST(ThreadPoolElasticTest, GrowShrinkCycleRestoresShape) {
  ThreadPool pool(2, ThreadPool::QueueMode::kPerWorker);
  EXPECT_EQ(pool.add_workers(2), 4u);
  EXPECT_EQ(pool.retire_workers(2), 2u);
  EXPECT_TRUE(pool.worker_live(0));
  EXPECT_TRUE(pool.worker_live(1));
  EXPECT_FALSE(pool.worker_live(2));
  EXPECT_FALSE(pool.worker_live(3));
}

TEST(ThreadPoolElasticTest, DeathRequeuesInFlightClosureExactlyOnce) {
  ThreadPool pool(2);
  std::atomic<int> runs{0};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  pool.submit([&] {
    // Transactional pop: the first attempt kills its worker BEFORE any
    // side effect of the "real" work; the requeued closure runs clean.
    if (runs.fetch_add(1) == 0) throw WorkerDeathSignal{};
    std::lock_guard lock(mu);
    done = true;
    cv.notify_all();
  });
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return done; }));
  }
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(pool.worker_deaths(), 1u);
  EXPECT_EQ(pool.worker_count(), 1u);

  // The slot is recoverable: a respawned replacement restores the size.
  std::size_t dead = 0;
  bool found = false;
  for (const ThreadPool::WorkerStatus& ws : pool.worker_status())
    if (ws.state == ThreadPool::WorkerState::kDead) {
      dead = ws.worker;
      found = true;
    }
  ASSERT_TRUE(found);
  EXPECT_TRUE(pool.respawn_worker(dead));
  EXPECT_FALSE(pool.respawn_worker(dead));  // already live again
  EXPECT_EQ(pool.worker_count(), 2u);
  EXPECT_EQ(pool.respawned_workers(), 1u);
}

TEST(ThreadPoolElasticTest, CondemnRedistributesQueuedWork) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> done{0};
  // No stealing: only condemn's hand-back can move worker 0's queue. The
  // pool joins its workers before the objects above die.
  ThreadPool pool(2, ThreadPool::QueueMode::kPerWorker, /*steal=*/false);
  pool.submit_to(0, [&] {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  // Wait until the gate closure is in flight so the rest stays queued.
  while (pool.active() == 0) std::this_thread::yield();
  for (int i = 0; i < 5; ++i)
    pool.submit_to(0, [&] {
      ++done;
      std::lock_guard lock(mu);
      cv.notify_all();
    });

  const ThreadPool::CondemnOutcome out = pool.condemn_worker(0, /*redistribute=*/true);
  EXPECT_TRUE(out.condemned);
  EXPECT_EQ(out.requeued, 5u);
  EXPECT_EQ(out.live_left, 1u);
  EXPECT_FALSE(pool.condemn_worker(0, true).condemned);  // idempotent

  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return done.load() == 5; }));
  release = true;  // let the condemned worker's in-flight closure finish
  cv.notify_all();
}

TEST(ThreadPoolElasticTest, SubmitsRedirectOffAbandonedSlots) {
  ThreadPool pool(2, ThreadPool::QueueMode::kPerWorker, /*steal=*/false);
  ASSERT_TRUE(pool.condemn_worker(1, /*redistribute=*/true).condemned);
  std::atomic<std::size_t> ran_on{99};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  // The placement target is gone for good: degraded routing must land the
  // closure on the survivor instead of stranding it.
  pool.submit_to(1, [&] {
    ran_on = ThreadPool::current_worker().value_or(99);
    std::lock_guard lock(mu);
    done = true;
    cv.notify_all();
  });
  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return done; }));
  EXPECT_EQ(ran_on.load(), 0u);
  EXPECT_GE(pool.redirected_submits(), 1u);
}

TEST(ThreadPoolElasticTest, RespawnAdoptsDeadSlotsQueue) {
  // No stealing and no redistribution: the closure queued behind the death
  // can ONLY run if the replacement adopts the slot's queue.
  ThreadPool pool(2, ThreadPool::QueueMode::kPerWorker, /*steal=*/false);
  std::atomic<int> runs{0};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  pool.submit_to(0, [&] {
    if (runs.fetch_add(1) == 0) throw WorkerDeathSignal{};
    std::lock_guard lock(mu);
    done = true;
    cv.notify_all();
  });
  while (pool.worker_deaths() == 0) std::this_thread::yield();
  ASSERT_TRUE(pool.condemn_worker(0, /*redistribute=*/false).condemned);
  ASSERT_TRUE(pool.respawn_worker(0));
  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return done; }));
  EXPECT_EQ(runs.load(), 2);
  EXPECT_TRUE(pool.worker_live(0));
}

// ---------------------------------------------------------------------------
// Satellite audit: active() accounting through the emergency-worker
// handoff, and SuppressStealing release on the exception path.

TEST(ThreadPoolTest, ActiveReturnsToZeroAfterEmergencyRescue) {
  ThreadPool pool(2);
  const DagTask task = two_region_task();
  GraphExecutor exec(pool, task);
  ExecOptions options;
  options.watchdog = std::chrono::milliseconds(200);
  options.recovery = RecoveryPolicy::kEmergencyWorker;
  options.max_emergency_workers = 2;
  const ExecReport report = exec.run_blocking(options);
  ASSERT_TRUE(report.completed);
  ASSERT_GE(report.emergency_workers, 1u);
  // The rescued run's closures all finished: in-flight accounting must
  // settle back to zero (the rescuing emergency worker included), or every
  // later quiescence verdict on this pool is skewed.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pool.active() != 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_EQ(pool.active(), 0u);
  EXPECT_EQ(pool.blocked_workers(), 0u);
}

TEST(GraphExecutorTest, SuppressStealingReleasedAfterStallError) {
  // kFailFast throws StallError out of run_blocking while a
  // SuppressStealing scope for the partitioned assignment is alive: the
  // RAII release must run during unwinding or the pool never steals again.
  // Declared before the pool: it joins its workers before these die.
  std::atomic<int> count{0};
  std::mutex mu;
  std::condition_variable cv;
  ThreadPool pool(2, ThreadPool::QueueMode::kPerWorker, /*steal=*/true);
  const DagTask task = fig1_task();
  ExecOptions options;
  options.assignment = analysis::NodeAssignment{
      std::vector<analysis::ThreadId>(task.node_count(), 0)};
  options.watchdog = std::chrono::milliseconds(200);
  options.recovery = RecoveryPolicy::kFailFast;
  GraphExecutor exec(pool, task);
  EXPECT_THROW(exec.run_blocking(options), StallError);
  EXPECT_FALSE(pool.stealing_suppressed());

  // And the pool still steals: queue work behind the (still live) blocked
  // placement target and let another worker take it.
  for (int i = 0; i < 4; ++i)
    pool.submit_to(i % 2, [&] {
      if (count.fetch_add(1) + 1 == 4) {
        std::lock_guard lock(mu);
        cv.notify_all();
      }
    });
  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return count.load() == 4; }));
}

}  // namespace
}  // namespace rtpool::exec
