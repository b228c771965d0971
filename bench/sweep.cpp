// The driver for every reproduced figure and ablation table.
//
//   sweep --figure NAME [--trials N] [--seed S] [--threads T] [--csv PATH]
//         [figure flags]
//
// The table at the end of this file has one entry per figure: its name
// (also the default CSV, NAME.csv in the current directory), its CSV
// columns, its default trials, its own flags, the x values it sweeps and
// the evaluation of one x. Everything else is shared: the flags are parsed
// against the figure's keys (an unknown key is an error), one header line
// is printed, and each point's row goes to the console and to the CSV
// (`--csv=` writes none). An incomplete point, one whose generation budget
// ran out before --trials sets, is flagged on the console. Points are
// seeded from --seed and x alone, so every figure is bit-identical for any
// --threads. `--list-analyzers` prints the registry names that the fig2_*
// --global-pair/--part-pair and the gap_analysis --global-analyzer/
// --part-analyzer flags accept.
//
// EXPERIMENTS.md describes each figure's setup and results.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/antichain.h"
#include "analysis/concurrency.h"
#include "analysis/partition.h"
#include "analysis/priority_assignment.h"
#include "analysis/rta_context.h"
#include "bench_common.h"
#include "exp/schedulability.h"
#include "gen/taskset_generator.h"
#include "sim/engine.h"
#include "util/csv.h"
#include "util/stats.h"

namespace {

using namespace rtpool;

/// The run flags every figure reads.
struct RunFlags {
  int threads = 1;         ///< Engine workers (0 = all hardware threads).
  std::uint64_t seed = 1;  ///< Root seed (forked per attempt).
  int trials = 500;        ///< Accepted task sets per point.
};

/// Largest --trials: keeps the attempt budgets (up to trials * 400) in int.
constexpr std::uint64_t kMaxTrials = 1000000;

/// What one point's evaluation reads: the flags and the shared engine.
struct Sweep {
  const util::Args& args;
  const RunFlags& flags;
  exp::ExperimentEngine& engine;

  std::size_t count(const char* key, std::uint64_t fallback) const {
    return args.get_uint64(key, fallback);
  }
  /// Root of the point's attempt streams: `salt` picks the stream family
  /// (kFirstArm, or kSecondArm for the partitioned arm of Figure 2).
  util::Rng rng(std::uint64_t salt, std::int64_t x) const {
    return util::Rng(flags.seed * salt + static_cast<std::uint64_t>(x));
  }
};

constexpr std::uint64_t kFirstArm = 1000003;
constexpr std::uint64_t kSecondArm = 2000003;

/// One point's output: its cells, formatted as the CSV writes them.
struct Row {
  std::vector<std::string> cells;
  bool incomplete = false;  ///< The attempt budget ran out before --trials.
};

template <typename... Ts>
Row row(const Ts&... values) {
  return {util::CsvWriter::cells(values...)};
}

std::vector<std::int64_t> range(std::int64_t begin, std::int64_t end) {
  std::vector<std::int64_t> values;
  for (std::int64_t x = begin; x < end; ++x) values.push_back(x);
  return values;
}

/// A list of counts, e.g. `--n 2,4,8`: each value must be >= 0.
std::vector<std::int64_t> count_list(const util::Args& args, const char* key,
                                     const std::vector<std::int64_t>& fallback) {
  const std::vector<std::int64_t> values = args.get_int_list(key, fallback);
  for (const std::int64_t x : values)
    if (x < 0)
      throw std::invalid_argument(std::string("--") + key +
                                  " expects a non-negative integer, got '" +
                                  std::to_string(x) + "'");
  return values;
}

/// The task counts of the n sweeps, unless --n lists them.
std::vector<std::int64_t> n_values(const util::Args& args) {
  return count_list(args, "n", {2, 4, 6, 8, 10, 12, 14, 16});
}

// ---- Figure 2: baseline vs proposed test, global and partitioned ----

std::vector<std::string> fig2_columns(const char* x) {
  return {x,
          "global_baseline",
          "global_proposed",
          "partitioned_baseline",
          "partitioned_proposed",
          "global_accepted",
          "partitioned_accepted",
          "global_discarded",
          "partitioned_discarded"};
}

/// "baseline,proposed": two analyzer registry names.
exp::AnalyzerPair parse_pair(const std::string& spec) {
  const std::size_t comma = spec.find(',');
  if (comma == std::string::npos || spec.find(',', comma + 1) != std::string::npos)
    throw std::invalid_argument(
        "analyzer pair must be two comma-separated registry names, got '" +
        spec + "'");
  return {&analysis::get_analyzer(spec.substr(0, comma)),
          &analysis::get_analyzer(spec.substr(comma + 1))};
}

/// The pair sweep all three Figure-2 entries share: the global arm, then
/// the partitioned one, each at its own utilization and from its own
/// stream. `config` holds the rest of the point's generation and budget.
Row pair_point(const Sweep& s, std::int64_t x, exp::PointConfig config,
               double u_global, double u_part) {
  config.trials = s.flags.trials;
  config.gen.total_utilization = u_global;
  const exp::PointResult global = s.engine.evaluate_point(
      parse_pair(s.args.get_string("global-pair", "global-baseline,global-limited")),
      config, s.rng(kFirstArm, x));
  config.gen.total_utilization = u_part;
  const exp::PointResult part = s.engine.evaluate_point(
      parse_pair(s.args.get_string("part-pair",
                                   "partitioned-baseline,partitioned-proposed")),
      config, s.rng(kSecondArm, x));
  Row r = row(static_cast<double>(x), global.baseline_ratio(),
              global.proposed_ratio(), part.baseline_ratio(),
              part.proposed_ratio(), global.accepted, part.accepted,
              global.discarded, part.discarded);
  r.incomplete = global.attempts_exhausted || part.attempts_exhausted;
  return r;
}

/// l_max values: 1..m unless --lmax lists them; each must lie in [0, m].
std::vector<std::int64_t> lmax_values(const util::Args& args) {
  const auto m = static_cast<std::int64_t>(args.get_uint64("m", 8));
  const auto values = args.get_int_list("lmax", range(1, m + 1));
  for (const std::int64_t lmax : values)
    if (lmax < 0 || lmax > m)
      throw std::invalid_argument("--lmax " + std::to_string(lmax) +
                                  " is outside [0, m] = [0, " +
                                  std::to_string(m) + "]");
  return values;
}

// (a)/(b): every task gets b̄ = m − l_max, and sets the baseline rejects are
// regenerated, so the baseline curve is 1 and the proposed curve shows the
// schedulability lost to reduced concurrency.
Row fig2_lmax(const Sweep& s, std::int64_t lmax) {
  const std::size_t m = s.count("m", 8);
  exp::PointConfig config;
  config.gen.cores = m;
  config.gen.task_count = s.count("n", 6);
  config.gen.nfj.min_branches = static_cast<int>(s.args.get_int("branches-min", 3));
  config.gen.nfj.max_branches = static_cast<int>(s.args.get_int("branches-max", 5));
  const std::size_t bf = m - static_cast<std::size_t>(lmax);
  config.gen.blocking_window = gen::BlockingWindow{bf, bf};
  config.filter_baseline = true;
  config.max_attempts = s.flags.trials * 400;
  const double md = static_cast<double>(m);
  return pair_point(s, lmax, config, s.args.get_double("u-global", 0.45 * md),
                    s.args.get_double("u-part", 0.175 * md));
}

// (c)/(d): the reduced-concurrency gap is wide for small m, where a few
// suspended threads exhaust the pool, and nearly closes for m >= 8.
Row fig2_m(const Sweep& s, std::int64_t m) {
  exp::PointConfig config;
  config.gen.cores = static_cast<std::size_t>(m);
  config.gen.task_count = s.count("n", 6);
  config.gen.nfj.min_branches = 3;
  config.gen.nfj.max_branches = 5;
  config.max_attempts = s.flags.trials * 100;
  const double md = static_cast<double>(m);
  return pair_point(s, m, config, s.args.get_double("u-frac-global", 0.3) * md,
                    s.args.get_double("u-frac-part", 0.175) * md);
}

// (e)/(f): more tasks make a severely reduced concurrency likelier, so the
// proposed tests fall further below the baselines as n grows.
Row fig2_n(const Sweep& s, std::int64_t n) {
  const std::size_t m = s.count("m", 8);
  exp::PointConfig config;
  config.gen.cores = m;
  config.gen.task_count = static_cast<std::size_t>(n);
  config.gen.nfj.min_branches = static_cast<int>(s.args.get_int("branches-min", 5));
  config.gen.nfj.max_branches = static_cast<int>(s.args.get_int("branches-max", 7));
  config.max_attempts = s.flags.trials * 100;
  const double md = static_cast<double>(m);
  return pair_point(s, n, config, s.args.get_double("u-global", 0.3 * md),
                    s.args.get_double("u-part", 0.15 * md));
}

// ---- ablations ----

// A: the paper's ceil interference bound vs Melani et al.'s carry-in bound,
// under the baseline and the limited-concurrency test. mean_r_ratio is the
// mean per-task R(carry-in)/R(ceil) of the baseline test, over finite
// responses.
Row ablation_interference(const Sweep& s, std::int64_t n) {
  const std::size_t m = s.count("m", 8);
  gen::TaskSetParams params;
  params.cores = m;
  params.task_count = static_cast<std::size_t>(n);
  params.total_utilization = s.args.get_double("u", 0.4 * static_cast<double>(m));
  const analysis::Analyzer* variants[4] = {
      &analysis::get_analyzer("global-baseline"),
      &analysis::get_analyzer("global-baseline-carryin"),
      &analysis::get_analyzer("global-limited"),
      &analysis::get_analyzer("global-limited-carryin"),
  };
  struct Outcome {
    bool schedulable[4] = {false, false, false, false};
    double ratio_sum = 0.0;
    std::size_t ratio_count = 0;
  };
  int counts[4] = {0, 0, 0, 0};
  double ratio_sum = 0.0;
  std::size_t ratio_count = 0;
  s.engine.runner().map_trials(
      static_cast<std::size_t>(s.flags.trials), s.rng(kFirstArm, n),
      [&](std::size_t /*trial*/, util::Rng& arng) {
        const model::TaskSet ts = gen::generate_task_set(params, arng);
        Outcome out;
        // The four variants share one context's structural caches.
        analysis::RtaContext ctx(ts);
        analysis::Report results[4];
        for (int k = 0; k < 4; ++k) {
          results[k] = variants[k]->analyze(ts, ctx);
          out.schedulable[k] = results[k].schedulable;
        }
        for (std::size_t i = 0; i < ts.size(); ++i) {
          const double r_ceil = results[0].per_task[i].response_time;
          const double r_carry = results[1].per_task[i].response_time;
          if (std::isfinite(r_ceil) && std::isfinite(r_carry) && r_ceil > 0.0) {
            out.ratio_sum += r_carry / r_ceil;
            ++out.ratio_count;
          }
        }
        return out;
      },
      [&](std::size_t /*trial*/, const Outcome& out) {
        for (int k = 0; k < 4; ++k) counts[k] += out.schedulable[k];
        ratio_sum += out.ratio_sum;
        ratio_count += out.ratio_count;
      });
  const double d = s.flags.trials;
  const double mean_ratio = ratio_count == 0 ? 1.0 : ratio_sum / ratio_count;
  return row(n, counts[0] / d, counts[1] / d, counts[2] / d, counts[3] / d,
             mean_ratio);
}

// B: inside the partitioned arm, over b̄ at m = 8 without the baseline
// filter: Algorithm 1's worst-fit tie-break (the paper's) vs first-fit,
// randomized restarts on top of worst-fit, and whether a worst-fit set is
// lost to Algorithm 1 failing or to the RTA. Every partition is judged by
// the proposed analyzer (segment RTA + Lemma 3).
Row ablation_partition(const Sweep& s, std::int64_t bbar) {
  const std::size_t m = s.count("m", 8);
  gen::TaskSetParams params;
  params.cores = m;
  params.task_count = s.count("n", 6);
  params.total_utilization = s.args.get_double("u", 0.15 * static_cast<double>(m));
  params.nfj.min_branches = 3;
  params.nfj.max_branches = 5;
  const auto window = static_cast<std::size_t>(bbar);
  params.blocking_window = gen::BlockingWindow{window, window};
  const analysis::Analyzer& proposed = analysis::get_analyzer("partitioned-proposed");

  struct Outcome {
    bool generated = false;
    bool wf_success = false, wf_sched = false;
    bool ff_sched = false, rand_sched = false;
  };
  int wf_sched = 0, ff_sched = 0, rand_sched = 0, alg1_fail = 0, rta_reject = 0;
  int done = 0;
  const auto trials = static_cast<std::size_t>(s.flags.trials);
  s.engine.runner().run_attempts(
      trials, trials * 200, s.rng(kFirstArm, bbar),
      [&](std::size_t /*attempt*/, util::Rng& arng) {
        Outcome out;
        model::TaskSet ts(m);
        try {
          ts = gen::generate_task_set(params, arng);
        } catch (const gen::GenerationError&) {
          return out;
        }
        out.generated = true;
        analysis::RtaContext ctx(ts);
        const auto judge = [&](const analysis::PartitionResult& pr) {
          if (!pr.success()) return false;
          analysis::AnalyzerOptions opts;
          opts.partition = &*pr.partition;
          return proposed.analyze(ts, ctx, opts).schedulable;
        };
        const auto wf = analysis::partition_algorithm1(ts, analysis::TieBreak::kWorstFit);
        const auto ff = analysis::partition_algorithm1(ts, analysis::TieBreak::kFirstFit);
        out.wf_success = wf.success();
        out.wf_sched = judge(wf);
        out.ff_sched = judge(ff);
        // Restarts fork off this attempt's own stream, so the randomized
        // column is as thread-count invariant as the rest.
        util::Rng restart_rng = arng.fork();
        out.rand_sched =
            judge(analysis::partition_algorithm1_randomized(ts, restart_rng, 16));
        return out;
      },
      [&](std::size_t /*attempt*/, const Outcome& out) {
        if (!out.generated) return false;
        ++done;
        if (!out.wf_success) {
          ++alg1_fail;
        } else if (out.wf_sched) {
          ++wf_sched;
        } else {
          ++rta_reject;
        }
        ff_sched += out.ff_sched;
        rand_sched += out.rand_sched;
        return true;
      });
  const double d = std::max(done, 1);
  Row r = row(bbar, wf_sched / d, ff_sched / d, rand_sched / d, alg1_fail / d,
              rta_reject / d);
  r.incomplete = done < s.flags.trials;
  return r;
}

// C: the library's extensions beyond the paper, over n at m = 8:
// the antichain concurrency bound and Audsley's OPA against the paper's
// b̄ bound under deadline-monotonic priorities, federated scheduling
// classic vs limited-concurrency, and per-segment vs holistic interference
// on worst-fit partitions.
Row ablation_extensions(const Sweep& s, std::int64_t n) {
  const std::size_t m = s.count("m", 8);
  const double md = static_cast<double>(m);
  const double u_global = s.args.get_double("u-global", 0.3 * md);
  const double u_part = s.args.get_double("u-part", 0.15 * md);
  gen::TaskSetParams params;
  params.cores = m;
  params.task_count = static_cast<std::size_t>(n);
  params.nfj.min_branches = 5;
  params.nfj.max_branches = 7;
  const analysis::Analyzer& lim_bbar_a = analysis::get_analyzer("global-limited");
  const analysis::Analyzer& lim_anti_a =
      analysis::get_analyzer("global-limited-antichain");
  const analysis::Analyzer& fed_a = analysis::get_analyzer("federated");
  const analysis::Analyzer& fed_lim_a = analysis::get_analyzer("federated-limited");
  const analysis::Analyzer& part_split_a = analysis::get_analyzer("partitioned-baseline");
  const analysis::Analyzer& part_hol_a =
      analysis::get_analyzer("partitioned-baseline-holistic");

  constexpr int kColumns = 7;  // lim_bbar lim_anti lim_opa fed fed_lim split hol
  struct Outcome {
    bool sched[kColumns] = {false, false, false, false, false, false, false};
  };
  int counts[kColumns] = {0, 0, 0, 0, 0, 0, 0};
  s.engine.runner().map_trials(
      static_cast<std::size_t>(s.flags.trials), s.rng(kFirstArm, n),
      [&](std::size_t /*trial*/, util::Rng& arng) {
        Outcome out;
        gen::TaskSetParams p = params;  // trials run concurrently
        p.total_utilization = u_global;
        const model::TaskSet ts = gen::generate_task_set(p, arng);
        analysis::RtaContext ctx(ts);
        out.sched[0] = lim_bbar_a.analyze(ts, ctx).schedulable;
        out.sched[1] = lim_anti_a.analyze(ts, ctx).schedulable;
        // OPA over the deadline-jitter variant of the b̄-based limited test,
        // verified with the original response-jitter analysis.
        analysis::AudsleyOptions audsley;
        audsley.base.limited_concurrency = true;
        if (const auto opa = analysis::assign_priorities_audsley(ts, audsley))
          out.sched[2] = lim_bbar_a.analyze(*opa).schedulable;
        out.sched[3] = fed_a.analyze(ts, ctx).schedulable;
        out.sched[4] = fed_lim_a.analyze(ts, ctx).schedulable;

        p.total_utilization = u_part;
        const model::TaskSet tsp = gen::generate_task_set(p, arng);
        const auto wf = part_split_a.make_partition(tsp);
        if (wf.success()) {
          analysis::RtaContext pctx(tsp);
          analysis::AnalyzerOptions opts;
          opts.partition = &*wf.partition;
          out.sched[5] = part_split_a.analyze(tsp, pctx, opts).schedulable;
          out.sched[6] = part_hol_a.analyze(tsp, pctx, opts).schedulable;
        }
        return out;
      },
      [&](std::size_t /*trial*/, const Outcome& out) {
        for (int k = 0; k < kColumns; ++k) counts[k] += out.sched[k];
      });
  const double d = s.flags.trials;
  return row(n, counts[0] / d, counts[1] / d, counts[2] / d, counts[3] / d,
             counts[4] / d, counts[5] / d, counts[6] / d);
}

/// One simulated run, as ablation_stealing counts it.
struct SimOutcome {
  bool deadlock = false;
  bool miss = false;
};

/// A task set's runs under the four policies; a partitioned policy has no
/// run when its partitioner fails.
struct PolicyOutcomes {
  std::optional<SimOutcome> naive, steal, alg1;
  SimOutcome global;
};

PolicyOutcomes simulate_policies(const model::TaskSet& ts) {
  double max_period = 0.0;
  for (const auto& task : ts.tasks()) max_period = std::max(max_period, task.period());
  sim::SimConfig cfg;
  // One synchronous busy window: the densest contention, and any
  // partitioning deadlock, shows up in the first jobs. It also caps the
  // event count when UUniFast draws extreme period ratios.
  cfg.horizon = 1.2 * max_period;
  const auto run = [&] {
    const sim::SimResult r = sim::simulate(ts, cfg);
    return SimOutcome{r.deadlock.has_value(), r.any_deadline_miss};
  };

  PolicyOutcomes out;
  const auto wf = analysis::partition_worst_fit(ts);
  if (wf.success()) {
    cfg.policy = sim::SchedulingPolicy::kPartitioned;
    cfg.partition = *wf.partition;
    out.naive = run();
    cfg.work_stealing = true;
    out.steal = run();
  }
  cfg.policy = sim::SchedulingPolicy::kGlobal;
  cfg.partition.reset();
  cfg.work_stealing = false;
  out.global = run();

  const auto a1 = analysis::partition_algorithm1(ts);
  if (a1.success()) {
    cfg.policy = sim::SchedulingPolicy::kPartitioned;
    cfg.partition = *a1.partition;
    out.alg1 = run();
  }
  return out;
}

/// Deadlock and miss counts of one policy (a deadlock is not also counted
/// as a miss) over the sets it ran on.
struct Rates {
  int runs = 0, deadlocks = 0, misses = 0;

  void add(const std::optional<SimOutcome>& outcome) {
    if (!outcome.has_value()) return;
    ++runs;
    if (outcome->deadlock) {
      ++deadlocks;
    } else if (outcome->miss) {
      ++misses;
    }
  }
};

// D: intra-pool dispatching, simulated, over b̄ (footnote 1 of the paper):
// strict partitioned FIFO on naive worst-fit partitions deadlocks often;
// work stealing removes the queue-behind-a-suspended-thread hazard and
// behaves like one global queue (both can still stall when l(t) = 0,
// Lemma 1 holds for any policy); Algorithm 1 partitions never deadlock.
// The alg1 rates are over the sets Algorithm 1 can partition.
Row ablation_stealing(const Sweep& s, std::int64_t bbar) {
  const std::size_t m = s.count("m", 4);
  gen::TaskSetParams params;
  params.cores = m;
  params.task_count = s.count("n", 3);
  params.total_utilization = s.args.get_double("u", 0.3 * static_cast<double>(m));
  params.nfj.min_branches = 3;
  params.nfj.max_branches = 5;
  const auto window = static_cast<std::size_t>(bbar);
  params.blocking_window = gen::BlockingWindow{window, window};

  Rates naive, steal, global, alg1;
  s.engine.runner().map_trials(
      static_cast<std::size_t>(s.flags.trials), s.rng(kFirstArm, bbar),
      [&](std::size_t /*trial*/, util::Rng& arng) {
        return simulate_policies(gen::generate_task_set(params, arng));
      },
      [&](std::size_t /*trial*/, const PolicyOutcomes& out) {
        naive.add(out.naive);
        steal.add(out.steal);
        global.add(out.global);
        alg1.add(out.alg1);
      });
  const double d = s.flags.trials;
  const double da = std::max(alg1.runs, 1);
  return row(bbar, naive.deadlocks / d, naive.misses / d, steal.deadlocks / d,
             steal.misses / d, global.deadlocks / d, global.misses / d,
             alg1.deadlocks / da, alg1.misses / da);
}

// The pessimism gap, over U/m: the sufficient tests' acceptance against
// survival of the synchronous simulation, a necessary condition. The
// spread bounds from above what the Section-4 tests leave on the table.
Row gap_analysis(const Sweep& s, std::int64_t u_percent) {
  const std::size_t m = s.count("m", 8);
  gen::TaskSetParams params;
  params.cores = m;
  params.task_count = s.count("n", 4);
  params.total_utilization =
      static_cast<double>(u_percent) / 100.0 * static_cast<double>(m);
  const analysis::Analyzer& global_a = analysis::get_analyzer(
      s.args.get_string("global-analyzer", "global-limited"));
  const analysis::Analyzer& part_a = analysis::get_analyzer(
      s.args.get_string("part-analyzer", "partitioned-proposed"));

  struct Verdicts {
    bool glob_analysis = false, glob_sim = false;
    bool part_analysis = false, part_sim = false;
  };
  int glob_analysis = 0, glob_sim = 0, part_analysis = 0, part_sim = 0;
  s.engine.runner().map_trials(
      static_cast<std::size_t>(s.flags.trials), s.rng(kFirstArm, u_percent),
      [&](std::size_t /*trial*/, util::Rng& arng) {
        const model::TaskSet ts = gen::generate_task_set(params, arng);
        Verdicts v;
        analysis::RtaContext ctx(ts);
        v.glob_analysis = global_a.analyze(ts, ctx).schedulable;
        v.glob_sim = sim::oracle_verdict(ts, sim::OracleOptions{}).safe();
        const auto partition = part_a.make_partition(ts);
        if (partition.success()) {
          analysis::AnalyzerOptions opts;
          opts.partition = &*partition.partition;
          v.part_analysis = part_a.analyze(ts, ctx, opts).schedulable;
          sim::OracleOptions oracle;
          oracle.policy = sim::SchedulingPolicy::kPartitioned;
          oracle.partition = *partition.partition;
          v.part_sim = sim::oracle_verdict(ts, oracle).safe();
        }
        return v;
      },
      [&](std::size_t /*trial*/, const Verdicts& v) {
        glob_analysis += v.glob_analysis;
        glob_sim += v.glob_sim;
        part_analysis += v.part_analysis;
        part_sim += v.part_sim;
      });
  const double d = s.flags.trials;
  return row(static_cast<double>(u_percent) / 100.0, glob_analysis / d,
             glob_sim / d, part_analysis / d, part_sim / d);
}

/// workload_stats rows: NFJ {min branches, max branches, depth}.
constexpr int kShapes[][3] = {{2, 4, 2}, {3, 5, 2}, {5, 7, 2}, {3, 5, 3}, {2, 4, 3}};

// What the Section-5 generator produces per graph shape, which the paper
// does not report: graph size, blocking regions, the paper's b̄, the
// antichain refinement, and how often a pool of m threads loses its
// deadlock-freedom guarantee (l̄ <= 0), the driver of every Figure-2 trend.
// Every shape draws from the same stream.
Row workload_stats(const Sweep& s, std::int64_t shape) {
  const auto [bmin, bmax, depth] = kShapes[shape];
  const std::size_t m = s.count("m", 8);
  gen::TaskSetParams params;
  params.cores = m;
  params.nfj.min_branches = bmin;
  params.nfj.max_branches = bmax;
  params.nfj.max_depth = depth;

  struct TaskStats {
    std::size_t nodes = 0, regions = 0, bbar = 0, antichain = 0;
  };
  util::RunningStats nodes, regions, bbar, antichain;
  util::RatioCounter lbar_zero, anti_zero;
  s.engine.runner().map_trials(
      static_cast<std::size_t>(s.flags.trials), util::Rng(s.flags.seed),
      [&](std::size_t /*trial*/, util::Rng& arng) {
        const model::DagTask task = gen::generate_task(params, 0, 0.5, arng);
        return TaskStats{task.node_count(), task.blocking_fork_count(),
                         analysis::max_affecting_forks(task),
                         analysis::max_simultaneous_suspensions(task)};
      },
      [&](std::size_t /*trial*/, const TaskStats& t) {
        nodes.add(static_cast<double>(t.nodes));
        regions.add(static_cast<double>(t.regions));
        bbar.add(static_cast<double>(t.bbar));
        antichain.add(static_cast<double>(t.antichain));
        lbar_zero.add(t.bbar >= m);
        anti_zero.add(t.antichain >= m);
      });
  return row(bmin, bmax, depth, nodes.mean(), nodes.max(), regions.mean(),
             bbar.mean(), antichain.mean(), lbar_zero.ratio(), anti_zero.ratio());
}

// ---- the table ----

struct Figure {
  const char* name;                  ///< --figure value; default CSV NAME.csv.
  std::vector<std::string> columns;  ///< CSV header.
  int trials;                        ///< Default --trials.
  std::vector<std::string> keys;     ///< Flags besides the common ones.
  std::vector<std::int64_t> (*x_values)(const util::Args&);
  Row (*evaluate)(const Sweep&, std::int64_t x);
};

const Figure kFigures[] = {
    {"fig2_lmax", fig2_columns("l_max"), 500,
     {"m", "n", "u-global", "u-part", "lmax", "branches-min", "branches-max",
      "global-pair", "part-pair"},
     lmax_values, fig2_lmax},
    {"fig2_m", fig2_columns("m"), 500,
     {"m", "n", "u-frac-global", "u-frac-part", "global-pair", "part-pair"},
     [](const util::Args& a) { return count_list(a, "m", {2, 4, 6, 8, 12, 16}); },
     fig2_m},
    {"fig2_n", fig2_columns("n"), 500,
     {"m", "n", "u-global", "u-part", "branches-min", "branches-max",
      "global-pair", "part-pair"},
     n_values,
     fig2_n},
    {"ablation_interference",
     {"n", "ceil_baseline", "carryin_baseline", "ceil_limited", "carryin_limited",
      "mean_r_ratio"},
     300, {"m", "n", "u"},
     n_values,
     ablation_interference},
    {"ablation_partition",
     {"bbar", "worstfit_sched", "firstfit_sched", "randomized_sched", "alg1_fail",
      "rta_reject"},
     300, {"m", "n", "u"},
     [](const util::Args& a) {
       return range(0, static_cast<std::int64_t>(a.get_uint64("m", 8)));
     },
     ablation_partition},
    {"ablation_extensions",
     {"n", "limited_bbar", "limited_antichain", "limited_opa", "federated",
      "federated_limited", "partitioned_split", "partitioned_holistic"},
     300, {"m", "n", "u-global", "u-part"},
     n_values,
     ablation_extensions},
    {"ablation_stealing",
     {"bbar", "naive_deadlock", "naive_miss", "steal_deadlock", "steal_miss",
      "global_deadlock", "global_miss", "alg1_deadlock", "alg1_miss"},
     200, {"m", "n", "u"},
     [](const util::Args& a) {
       return range(1, static_cast<std::int64_t>(a.get_uint64("m", 4)));
     },
     ablation_stealing},
    {"gap_analysis",
     {"u_frac", "global_analysis", "global_sim", "partitioned_analysis",
      "partitioned_sim"},
     200, {"m", "n", "u-list", "global-analyzer", "part-analyzer"},
     [](const util::Args& a) {
       return a.get_int_list("u-list", {10, 20, 30, 40, 50, 60});
     },
     gap_analysis},
    {"workload_stats",
     {"branches_min", "branches_max", "depth", "nodes_avg", "nodes_max",
      "regions_avg", "bbar_avg", "antichain_avg", "p_lbar_zero",
      "p_antichain_zero"},
     2000, {"m"},
     [](const util::Args&) {
       return range(0, static_cast<std::int64_t>(std::size(kShapes)));
     },
     workload_stats},
};

const Figure& find_figure(const std::string& name) {
  std::string names;
  for (const Figure& figure : kFigures) {
    if (figure.name == name) return figure;
    names += names.empty() ? "" : ", ";
    names += figure.name;
  }
  throw std::invalid_argument("--figure must be one of " + names + "; got '" +
                              name + "'");
}

/// The row printer: one console line, each cell padded to its column's
/// name, and the same cells as a CSV row when a CSV is open.
void print_row(const Figure& figure, const Row& row, util::CsvWriter* csv) {
  for (std::size_t i = 0; i + 1 < row.cells.size(); ++i)
    std::printf("%-*s", static_cast<int>(figure.columns[i].size() + 2),
                row.cells[i].c_str());
  std::printf("%s%s\n", row.cells.back().c_str(),
              row.incomplete ? "  [incomplete]" : "");
  std::fflush(stdout);
  if (csv != nullptr) csv->row(row.cells);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Parse once against every figure's keys to find --figure (and serve
    // --list-analyzers), then against the chosen figure's own keys.
    const std::vector<std::string> run_keys = {"figure", "csv", "threads",
                                               "trials"};
    std::vector<std::string> all_keys = run_keys;
    for (const Figure& figure : kFigures)
      all_keys.insert(all_keys.end(), figure.keys.begin(), figure.keys.end());
    const Figure& figure = find_figure(
        bench::parse_args(argc, argv, all_keys).get_string("figure", ""));
    std::vector<std::string> keys = run_keys;
    keys.insert(keys.end(), figure.keys.begin(), figure.keys.end());
    const util::Args args = bench::parse_args(argc, argv, keys);
    const std::uint64_t trials =
        args.get_uint64("trials", static_cast<std::uint64_t>(figure.trials));
    if (trials > kMaxTrials)
      throw std::invalid_argument("--trials must be at most " +
                                  std::to_string(kMaxTrials));
    const RunFlags flags{static_cast<int>(args.get_int("threads", 1)),
                         args.get_uint64("seed", 1), static_cast<int>(trials)};
    const std::vector<std::int64_t> xs = figure.x_values(args);
    const std::string csv_path =
        args.get_string("csv", std::string(figure.name) + ".csv");

    std::printf("%s: trials=%d seed=%llu threads=%d csv=%s\n", figure.name,
                flags.trials, static_cast<unsigned long long>(flags.seed),
                flags.threads, csv_path.empty() ? "(none)" : csv_path.c_str());
    std::optional<util::CsvWriter> csv;
    if (!csv_path.empty()) csv.emplace(csv_path, figure.columns);
    print_row(figure, {figure.columns}, nullptr);

    exp::ExperimentEngine engine(flags.threads);
    const Sweep sweep{args, flags, engine};
    for (const std::int64_t x : xs)
      print_row(figure, figure.evaluate(sweep, x), csv ? &*csv : nullptr);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep: %s\n", e.what());
    return 1;
  }
}
