// Randomized robustness harness for the runtime guard (exec/guard.h).
//
// For each seed, generates a random NFJ task and runs it on a real thread
// pool under a seeded fault plan (WCET overruns, stalls, thrown node
// bodies, dropped notifies — exec/fault.h), across three scenarios:
//
//   safe-global   — m = b̄(τ)+1 shared-queue workers: Lemma 1 guarantees
//                   deadlock freedom, so the guard must never report a
//                   stall (injected lost wakeups must be healed, thrown
//                   bodies must degrade to failed_nodes, never terminate);
//   deadlock      — m ≤ b̄(τ) workers: the blocking chain can close. Under
//                   kReport the guard must either complete or produce a
//                   quiescence-proof StallReport that the static analysis
//                   agrees with (Lemma 1 witness exists); under
//                   kEmergencyWorker with a b̄(τ) injection cap the run
//                   must COMPLETE — injected workers restore l̄ > 0;
//   partitioned   — Algorithm 1 placement on a kPerWorker pool: Eq. (3)
//                   holds, so no deadlock report is acceptable.
//
// Elastic-runtime scenarios (exec elasticity + mode changes):
//
//   worker-death  — seeded worker_death faults on a Lemma-1-safe shared
//                   pool and on an Algorithm-1 partitioned pool: every
//                   killed worker's node must be requeued and executed
//                   EXACTLY once (per-node execution counters), the run
//                   must complete, and — partitioned, where only the
//                   respawned replacement can drain the dead slot's queue —
//                   every death must appear as a respawned WorkerRecovery.
//                   A zero-respawn-budget variant must degrade gracefully
//                   (DegradedReport), still never losing or duplicating a
//                   node;
//   worker-hang   — seeded worker_hang faults: the stale heartbeat must be
//                   diagnosed as a LIVENESS failure (WorkerRecovery with
//                   crashed=false), never as a deadlock StallReport, and
//                   the wedged node must be re-dispatched exactly once;
//   elastic       — a seeded admit/evict/resize stream through the
//                   ModeChangeController: the independent checker must
//                   accept the certificate of every analyzed transition,
//                   and two replays of the same stream must render
//                   identical transition logs (determinism contract).
//
// Every verdict is checked; any violation prints the replay seed and the
// fault plan and exits 1. All randomness derives from --base-seed, so every
// failure is replayable.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "analysis/concurrency.h"
#include "analysis/deadlock.h"
#include "analysis/partition.h"
#include "exec/graph_executor.h"
#include "exec/mode_change.h"
#include "exec/thread_pool.h"
#include "exp/elastic_scenarios.h"
#include "gen/taskset_generator.h"
#include "model/task_set.h"
#include "util/args.h"
#include "util/rng.h"

namespace {

using namespace rtpool;

int g_failures = 0;
bool g_verbose = false;

void fail(const std::string& context, const exec::FaultPlan& plan,
          const std::string& what) {
  std::printf("FAIL [%s] %s\n      plan: %s\n", context.c_str(), what.c_str(),
              exec::describe(plan).c_str());
  ++g_failures;
}

/// Thrown-body bookkeeping must match the plan: every throw fault that ran
/// is in failed_nodes, and nothing else is.
void check_failed_nodes(const std::string& context, const exec::FaultPlan& plan,
                        const exec::ExecReport& report, bool run_complete) {
  std::set<model::NodeId> throws;
  for (const auto& [v, f] : plan.faults())
    if (f.kind == exec::FaultKind::kThrow) throws.insert(v);
  const std::set<model::NodeId> failed(report.failed_nodes.begin(),
                                       report.failed_nodes.end());
  for (model::NodeId v : failed)
    if (throws.count(v) == 0)
      fail(context, plan, "node " + std::to_string(v) + " failed without a throw fault");
  if (run_complete && failed != throws)
    fail(context, plan, "completed run lost injected throws (" +
                            std::to_string(failed.size()) + "/" +
                            std::to_string(throws.size()) + " recorded)");
  if (!throws.empty() && !failed.empty() && report.first_error.empty())
    fail(context, plan, "failed nodes recorded but first_error empty");
}

exec::FaultPlan draw_plan(const model::DagTask& task, std::uint64_t seed,
                          bool allow_stalls) {
  exec::FaultPlanParams params;
  params.p_overrun = 0.2;
  params.p_throw = 0.15;
  params.p_drop_notify = 0.3;
  params.p_stall = allow_stalls ? 0.1 : 0.0;
  params.max_stall = std::chrono::milliseconds(10);
  params.max_overrun_factor = 4.0;
  return exec::make_random_fault_plan(task, params, seed);
}

void run_safe_global(const model::DagTask& task, std::uint64_t seed) {
  const std::size_t bbar = analysis::max_affecting_forks(task);
  exec::ThreadPool pool(bbar + 1);
  exec::GraphExecutor executor(pool, task);
  exec::ExecOptions options;
  options.microseconds_per_unit = 2.0;
  options.watchdog = std::chrono::milliseconds(5000);
  options.faults = draw_plan(task, seed, /*allow_stalls=*/true);
  const exec::ExecReport report = executor.run_blocking(options);

  const std::string context = "safe-global seed=" + std::to_string(seed);
  if (!report.completed)
    fail(context, options.faults, "Lemma-1-safe run did not complete");
  if (report.stall.has_value())
    fail(context, options.faults,
         "false stall report: " + report.stall->describe());
  check_failed_nodes(context, options.faults, report, report.completed);
  if (g_verbose)
    std::printf("  [%s] ok: %zu nodes, %zu failed, %zu lost wakeups healed\n",
                context.c_str(), report.nodes_executed,
                report.failed_nodes.size(), report.lost_wakeups_recovered);
}

void run_deadlock(const model::DagTask& task, std::uint64_t seed,
                  exec::RecoveryPolicy policy) {
  const std::size_t bbar = analysis::max_affecting_forks(task);
  if (bbar < 1) return;
  const std::size_t m = bbar > 1 ? bbar : 1;
  exec::ThreadPool pool(m);
  exec::GraphExecutor executor(pool, task);
  exec::ExecOptions options;
  options.microseconds_per_unit = 2.0;
  options.watchdog = std::chrono::milliseconds(5000);
  options.recovery = policy;
  options.max_emergency_workers = bbar;  // enough to restore l̄ > 0
  // No stall faults here: a deadlock verdict must stay a deadlock verdict.
  options.faults = draw_plan(task, seed, /*allow_stalls=*/false);

  const std::string context = std::string("deadlock/") +
                              exec::to_string(policy) +
                              " seed=" + std::to_string(seed);
  const exec::ExecReport report = executor.run_blocking(options);
  if (report.stall.has_value() && !report.stall->budget_exhausted &&
      !analysis::find_lemma1_witness(task, m).has_value())
    fail(context, options.faults,
         "stall reported but Lemma 1 guarantees freedom: " +
             report.stall->describe());
  if (policy == exec::RecoveryPolicy::kEmergencyWorker && !report.completed)
    fail(context, options.faults,
         "emergency workers (cap b̄) failed to rescue the run");
  if (policy == exec::RecoveryPolicy::kReport && !report.completed &&
      !report.stall.has_value())
    fail(context, options.faults, "cancelled without a stall report");
  check_failed_nodes(context, options.faults, report, report.completed);
  if (g_verbose)
    std::printf("  [%s] %s: %zu/%zu nodes, %zu emergency\n", context.c_str(),
                report.completed ? "completed" : "stalled",
                report.nodes_executed, task.node_count(),
                report.emergency_workers);
}

void run_partitioned(const model::DagTask& task, std::uint64_t seed) {
  const std::size_t bbar = analysis::max_affecting_forks(task);
  const std::size_t m = bbar + 1;
  model::TaskSet ts(m);
  ts.add(task);
  const analysis::PartitionResult partition = analysis::partition_algorithm1(ts);
  if (!partition.success()) return;  // Algorithm 1 may fail; normal result
  const analysis::NodeAssignment& assignment = partition.partition->per_task[0];

  exec::ThreadPool pool(m, exec::ThreadPool::QueueMode::kPerWorker);
  exec::GraphExecutor executor(pool, task);
  exec::ExecOptions options;
  options.microseconds_per_unit = 2.0;
  options.watchdog = std::chrono::milliseconds(5000);
  options.assignment = assignment;
  options.faults = draw_plan(task, seed, /*allow_stalls=*/true);

  const std::string context = "partitioned seed=" + std::to_string(seed);
  const exec::ExecReport report = executor.run_blocking(options);
  if (!report.completed)
    fail(context, options.faults, "Lemma-3-safe partitioned run stalled");
  if (report.stall.has_value())
    fail(context, options.faults,
         "false deadlock report on an Eq. (3) placement: " +
             report.stall->describe());
  check_failed_nodes(context, options.faults, report, report.completed);
  if (g_verbose)
    std::printf("  [%s] ok: %zu nodes on %zu workers\n", context.c_str(),
                report.nodes_executed, m);
}

/// Per-node execution counters: the exactly-once invariant under lethal
/// faults. Returns false (and reports) on any lost or duplicated node.
bool check_exactly_once(const std::string& context, const exec::FaultPlan& plan,
                        const std::vector<std::atomic<std::size_t>>& counts,
                        bool require_all) {
  bool ok = true;
  for (std::size_t v = 0; v < counts.size(); ++v) {
    const std::size_t n = counts[v].load();
    if (n > 1) {
      fail(context, plan,
           "node " + std::to_string(v) + " executed " + std::to_string(n) +
               " times (duplicated)");
      ok = false;
    } else if (require_all && n == 0) {
      fail(context, plan, "node " + std::to_string(v) + " never executed (lost)");
      ok = false;
    }
  }
  return ok;
}

exec::FaultPlan draw_lethal_plan(const model::DagTask& task, std::uint64_t seed,
                                 bool deaths, bool hangs) {
  exec::FaultPlanParams params;
  params.p_worker_death = deaths ? 0.35 : 0.0;
  params.p_worker_hang = hangs ? 0.3 : 0.0;
  return exec::make_random_fault_plan(task, params, seed);
}

void run_worker_death_shared(const model::DagTask& task, std::uint64_t seed,
                             bool degraded_variant) {
  const std::size_t bbar = analysis::max_affecting_forks(task);
  exec::ThreadPool pool(bbar + 1);
  exec::GraphExecutor executor(pool, task);
  exec::ExecOptions options;
  options.microseconds_per_unit = 2.0;
  options.watchdog = std::chrono::milliseconds(5000);
  options.respawn_backoff = std::chrono::milliseconds(5);
  options.faults = draw_lethal_plan(task, seed, /*deaths=*/true, /*hangs=*/false);
  const std::size_t deaths = options.faults.count(exec::FaultKind::kWorkerDeath);
  options.max_worker_respawns = degraded_variant ? 0 : deaths + 1;

  const std::string context =
      std::string(degraded_variant ? "worker-death-degraded" : "worker-death") +
      " seed=" + std::to_string(seed);
  std::vector<std::atomic<std::size_t>> counts(task.node_count());
  const exec::ExecReport report = executor.run_blocking(
      options, [&counts](model::NodeId v) { counts[v].fetch_add(1); });

  if (!degraded_variant) {
    // Budget covers every death: the run must complete and never degrade.
    if (!report.completed)
      fail(context, options.faults,
           "run with sufficient respawn budget did not complete");
    if (report.degraded.has_value())
      fail(context, options.faults,
           "degraded despite budget: " + report.degraded->describe());
  } else {
    // Zero budget: completing on the shrunken pool and stalling are both
    // acceptable; losing or duplicating work never is.
    if (!report.completed && !report.stall.has_value() &&
        !report.degraded.has_value())
      fail(context, options.faults,
           "cancelled without a stall or degraded diagnosis");
    if (report.workers_respawned != 0)
      fail(context, options.faults, "respawned despite a zero budget");
  }
  for (const exec::WorkerRecovery& rec : report.worker_recoveries)
    if (!rec.crashed)
      fail(context, options.faults,
           "death-only plan produced a hang recovery: " + rec.describe());
  check_exactly_once(context, options.faults, counts,
                     /*require_all=*/report.completed);
  check_failed_nodes(context, options.faults, report, report.completed);
  if (g_verbose)
    std::printf("  [%s] %s: %zu deaths, %zu recoveries, %zu respawned%s\n",
                context.c_str(), report.completed ? "completed" : "degraded",
                deaths, report.worker_recoveries.size(),
                report.workers_respawned,
                report.degraded.has_value() ? " (degraded)" : "");
}

void run_worker_death_partitioned(const model::DagTask& task,
                                  std::uint64_t seed) {
  const std::size_t bbar = analysis::max_affecting_forks(task);
  const std::size_t m = bbar + 1;
  model::TaskSet ts(m);
  ts.add(task);
  const analysis::PartitionResult partition = analysis::partition_algorithm1(ts);
  if (!partition.success()) return;
  const analysis::NodeAssignment& assignment = partition.partition->per_task[0];

  exec::ThreadPool pool(m, exec::ThreadPool::QueueMode::kPerWorker);
  exec::GraphExecutor executor(pool, task);
  exec::ExecOptions options;
  options.microseconds_per_unit = 2.0;
  options.watchdog = std::chrono::milliseconds(5000);
  options.respawn_backoff = std::chrono::milliseconds(5);
  options.assignment = assignment;
  options.faults = draw_lethal_plan(task, seed, /*deaths=*/true, /*hangs=*/false);
  const std::size_t deaths = options.faults.count(exec::FaultKind::kWorkerDeath);
  options.max_worker_respawns = deaths + 1;

  const std::string context = "worker-death-part seed=" + std::to_string(seed);
  std::vector<std::atomic<std::size_t>> counts(task.node_count());
  const exec::ExecReport report = executor.run_blocking(
      options, [&counts](model::NodeId v) { counts[v].fetch_add(1); });

  if (!report.completed) {
    fail(context, options.faults, "partitioned run with deaths did not complete");
    return;
  }
  // Stealing is suppressed under the assignment, so ONLY the respawned
  // replacement can drain a dead slot's queue: completion implies every
  // death was detected, requeued and respawned.
  std::size_t crashed = 0;
  for (const exec::WorkerRecovery& rec : report.worker_recoveries) {
    if (rec.crashed) ++crashed;
    if (rec.crashed && !rec.respawned)
      fail(context, options.faults,
           "completed but death not respawned: " + rec.describe());
  }
  if (crashed != deaths)
    fail(context, options.faults,
         "completed with " + std::to_string(crashed) + "/" +
             std::to_string(deaths) + " deaths detected");
  check_exactly_once(context, options.faults, counts, /*require_all=*/true);
  if (g_verbose)
    std::printf("  [%s] ok: %zu deaths all respawned on %zu workers\n",
                context.c_str(), deaths, m);
}

void run_worker_hang(const model::DagTask& task, std::uint64_t seed) {
  const std::size_t bbar = analysis::max_affecting_forks(task);
  exec::ThreadPool pool(bbar + 1);
  exec::GraphExecutor executor(pool, task);
  exec::ExecOptions options;
  options.microseconds_per_unit = 2.0;
  options.watchdog = std::chrono::milliseconds(8000);
  options.worker_liveness = std::chrono::milliseconds(150);
  options.respawn_backoff = std::chrono::milliseconds(5);
  options.faults = draw_lethal_plan(task, seed, /*deaths=*/false, /*hangs=*/true);
  const std::size_t hangs = options.faults.count(exec::FaultKind::kWorkerHang);
  options.max_worker_respawns = hangs + 1;

  const std::string context = "worker-hang seed=" + std::to_string(seed);
  std::vector<std::atomic<std::size_t>> counts(task.node_count());
  const exec::ExecReport report = executor.run_blocking(
      options, [&counts](model::NodeId v) { counts[v].fetch_add(1); });

  // The heart of the scenario: a wedged worker is a LIVENESS failure. The
  // guard must recover it and complete — a StallReport here would be a
  // spurious deadlock diagnosis of a healthy (Lemma-1-safe) graph.
  if (!report.completed)
    fail(context, options.faults, "hung-worker run did not complete");
  if (report.stall.has_value())
    fail(context, options.faults,
         "hang misdiagnosed as deadlock: " + report.stall->describe());
  std::size_t hung = 0;
  for (const exec::WorkerRecovery& rec : report.worker_recoveries) {
    if (rec.crashed)
      fail(context, options.faults,
           "hang-only plan produced a crash recovery: " + rec.describe());
    else
      ++hung;
  }
  if (report.completed && hung != hangs)
    fail(context, options.faults,
         "completed with " + std::to_string(hung) + "/" +
             std::to_string(hangs) + " hangs detected");
  check_exactly_once(context, options.faults, counts,
                     /*require_all=*/report.completed);
  if (g_verbose)
    std::printf("  [%s] ok: %zu hangs condemned, %zu respawned\n",
                context.c_str(), hung, report.workers_respawned);
}

void run_elastic(std::uint64_t seed, std::FILE* transition_log) {
  exp::ElasticScenarioParams params;
  params.steps = 10;
  params.gen.nfj.max_branches = 3;
  params.gen.nfj.max_depth = 2;
  exec::ModeChangeConfig config;
  config.analyzer = "global-limited";
  config.cores = 4;

  const std::string context = "elastic seed=" + std::to_string(seed);
  const std::vector<exp::ElasticRequest> requests =
      exp::make_elastic_scenario(params, seed);
  const exec::FaultPlan no_plan;  // scenario carries no node faults
  const exp::ElasticReplay first = exp::replay_elastic(requests, config);
  if (first.certificate_failures != 0)
    fail(context, no_plan,
         std::to_string(first.certificate_failures) +
             " transition certificate(s) missing or rejected by the checker");
  if (first.committed + first.rejected != requests.size())
    fail(context, no_plan, "transition log lost requests");
  for (const exec::ModeTransition& tr : first.log)
    if (tr.committed && !tr.accepted)
      fail(context, no_plan, "committed a transition the analysis rejected");

  // Determinism contract: a second replay of the same stream must render
  // an identical timing-stripped transition log.
  const exp::ElasticReplay second = exp::replay_elastic(requests, config);
  if (first.log_json != second.log_json)
    fail(context, no_plan, "replayed transition logs differ (nondeterminism)");

  if (transition_log != nullptr)
    std::fputs(first.log_json.c_str(), transition_log);
  if (g_verbose)
    std::printf("  [%s] ok: %zu committed, %zu rejected, %zu certified\n",
                context.c_str(), first.committed, first.rejected,
                first.certified);
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv,
                  {"seeds", "base-seed", "scenario", "transition-log",
                   "verbose", "help"});
  if (args.get_bool("help", false)) {
    std::printf(
        "rtpool_stress — randomized guard/fault-injection harness\n"
        "  --seeds=N            number of random (task, fault plan) draws (20)\n"
        "  --base-seed=S        root seed; every failure replays from it (1)\n"
        "  --scenario=a,b,...   subset of: safe-global, deadlock, partitioned,\n"
        "                       worker-death, worker-hang, elastic (default all)\n"
        "  --transition-log=F   append elastic transition logs (JSON/line) to F\n"
        "  --verbose            per-run details\n");
    return 0;
  }
  const std::int64_t seeds = args.get_int("seeds", 20);
  const std::uint64_t base_seed = args.get_uint64("base-seed", 1);
  g_verbose = args.get_bool("verbose", false);

  const std::string scenario_arg = args.get_string("scenario", "");
  std::set<std::string> scenarios;
  for (std::size_t pos = 0; pos < scenario_arg.size();) {
    const std::size_t comma = scenario_arg.find(',', pos);
    const std::size_t end = comma == std::string::npos ? scenario_arg.size() : comma;
    if (end > pos) scenarios.insert(scenario_arg.substr(pos, end - pos));
    pos = end + 1;
  }
  const std::set<std::string> known = {"safe-global", "deadlock", "partitioned",
                                       "worker-death", "worker-hang", "elastic"};
  for (const std::string& s : scenarios)
    if (known.count(s) == 0) {
      std::printf("unknown --scenario '%s'\n", s.c_str());
      return 2;
    }
  const auto want = [&scenarios](const char* name) {
    return scenarios.empty() || scenarios.count(name) != 0;
  };

  std::FILE* transition_log = nullptr;
  const std::string log_path = args.get_string("transition-log", "");
  if (!log_path.empty()) {
    transition_log = std::fopen(log_path.c_str(), "w");
    if (transition_log == nullptr) {
      std::printf("cannot open --transition-log '%s'\n", log_path.c_str());
      return 2;
    }
  }

  gen::TaskSetParams params;
  params.cores = 4;
  params.nfj.max_branches = 3;
  params.nfj.max_depth = 2;

  std::size_t runs = 0;
  for (std::int64_t i = 0; i < seeds; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    util::Rng rng(seed);
    const model::DagTask task =
        gen::generate_task(params, static_cast<std::size_t>(i), 0.5, rng);

    if (want("safe-global")) { run_safe_global(task, seed); ++runs; }
    if (want("deadlock")) {
      run_deadlock(task, seed, exec::RecoveryPolicy::kReport);
      run_deadlock(task, seed, exec::RecoveryPolicy::kEmergencyWorker);
      runs += 2;
    }
    if (want("partitioned")) { run_partitioned(task, seed); ++runs; }
    if (want("worker-death")) {
      run_worker_death_shared(task, seed, /*degraded_variant=*/false);
      run_worker_death_shared(task, seed, /*degraded_variant=*/true);
      run_worker_death_partitioned(task, seed);
      runs += 3;
    }
    if (want("worker-hang")) { run_worker_hang(task, seed); ++runs; }
    if (want("elastic")) { run_elastic(seed, transition_log); ++runs; }
  }

  if (transition_log != nullptr) std::fclose(transition_log);
  std::printf("rtpool_stress: %zu runs over %lld seeds, %d failure(s)\n", runs,
              static_cast<long long>(seeds), g_failures);
  return g_failures == 0 ? 0 : 1;
}
