// Perf-regression harness for the experiment engine and analysis kernels.
//
// Times canonical evaluation points (one Figure-2 l_max point per scheduler
// arm, one unfiltered Figure-2(c) point, one pessimism-gap style point)
// across a list of engine thread counts, VERIFIES that every run is
// bit-identical to the single-threaded reference (the engine's core
// guarantee), and writes the timings to a JSON report
// (`BENCH_analysis.json`) that CI uploads and `scripts/bench_report.py`
// merges with the google-benchmark kernel numbers from `perf_analysis`.
//
// Exit status: 0 on success, 1 if any thread count produced a result that
// differs from the reference — a determinism regression, not a perf one.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/sensitivity.h"
#include "bench_common.h"
#include "exp/elastic_scenarios.h"
#include "exp/schedulability.h"
#include "gen/taskset_generator.h"
#include "util/json.h"

namespace {

using namespace rtpool;

struct CanonicalPoint {
  std::string name;
  std::string scheduler;  ///< Arm label in the report: global / partitioned.
  exp::AnalyzerPair pair;
  exp::PointConfig config;
  std::uint64_t seed_salt;
};

std::vector<CanonicalPoint> canonical_points(int trials, int certify_sample) {
  std::vector<CanonicalPoint> points;
  const exp::AnalyzerPair global{&analysis::get_analyzer("global-baseline"),
                                 &analysis::get_analyzer("global-limited")};
  const exp::AnalyzerPair partitioned{
      &analysis::get_analyzer("partitioned-baseline"),
      &analysis::get_analyzer("partitioned-proposed")};

  // Figure 2(a)/(b) style: m = 8, l_max = 4 (blocking window pinned to
  // b̄ = 4), baseline filter on — exercises the discard/regenerate path.
  exp::PointConfig lmax;
  lmax.gen.cores = 8;
  lmax.gen.task_count = 6;
  lmax.gen.nfj.min_branches = 3;
  lmax.gen.nfj.max_branches = 5;
  lmax.gen.blocking_window = gen::BlockingWindow{4, 4};
  lmax.filter_baseline = true;
  lmax.trials = trials;
  lmax.max_attempts = trials * 400;
  lmax.certify_sample = certify_sample;
  lmax.gen.total_utilization = 0.45 * 8.0;
  points.push_back({"fig2_lmax4_global", "global", global, lmax, 1000003});
  lmax.gen.total_utilization = 0.175 * 8.0;
  points.push_back(
      {"fig2_lmax4_partitioned", "partitioned", partitioned, lmax, 2000003});

  // Figure 2(c) style: m = 8, free typing, nothing discarded.
  exp::PointConfig m8;
  m8.gen.cores = 8;
  m8.gen.task_count = 6;
  m8.gen.nfj.min_branches = 3;
  m8.gen.nfj.max_branches = 5;
  m8.gen.total_utilization = 0.3 * 8.0;
  m8.filter_baseline = false;
  m8.trials = trials;
  m8.max_attempts = trials * 100;
  m8.certify_sample = certify_sample;
  points.push_back({"fig2_m8_global", "global", global, m8, 3000017});
  points.push_back(
      {"fig2_m8_partitioned", "partitioned", partitioned, m8, 4000037});

  return points;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rtpool;
  // --threads is a *list* here (the sweep dimension), so the common
  // single-value accessor is skipped; parse_args still registers the
  // common keys and serves --list-analyzers.
  const util::Args args = bench::parse_args(argc, argv, {"out"});
  const auto thread_list = args.get_int_list("threads", {1, 2, 4});
  const int trials = static_cast<int>(args.get_int("trials", 200));
  const std::uint64_t seed = args.get_uint64("seed", 1);
  const int certify_sample = static_cast<int>(args.get_int("certify-sample", 0));
  const std::string out_path = args.get_string("out", "BENCH_analysis.json");

  std::printf("perf_sweep: %d trials/point, seed %llu, certify-sample %d, "
              "thread counts:",
              trials, static_cast<unsigned long long>(seed), certify_sample);
  for (std::int64_t t : thread_list) std::printf(" %lld", static_cast<long long>(t));
  std::printf("\n");

  bool all_deterministic = true;
  std::size_t total_certified = 0;
  std::size_t total_cert_failures = 0;
  std::ofstream out(out_path);
  util::JsonWriter json(out);
  json.begin_object();
  json.kv("schema", "rtpool-bench-analysis-v1");
  json.kv("trials", trials);
  json.kv("seed", seed);
  json.kv("certify_sample", certify_sample);
  json.key("points");
  json.begin_array();

  for (const CanonicalPoint& point : canonical_points(trials, certify_sample)) {
    const util::Rng rng(seed * point.seed_salt + 17);
    const exp::AnalyzerPair& pair = point.pair;
    std::optional<exp::PointResult> reference;
    bool deterministic = true;
    double reference_wall = 0.0;  // wall of the first (reference) run

    // Untimed warmup: without it the first timed run (threads=1 by
    // convention) pays one-time costs — thread_local context
    // construction, arena first-touch page faults, branch-predictor
    // training — that belong to process startup, not to the measured
    // configuration, and skew the per-thread-count comparison.
    {
      exp::ExperimentEngine warm_engine(1);
      (void)warm_engine.evaluate_point(pair, point.config, rng);
    }

    json.begin_object();
    json.kv("name", point.name);
    json.kv("scheduler", point.scheduler);
    json.key("runs");
    json.begin_array();
    for (std::int64_t t : thread_list) {
      exp::ExperimentEngine engine(static_cast<int>(t));
      const auto start = std::chrono::steady_clock::now();
      const exp::PointResult result =
          engine.evaluate_point(pair, point.config, rng);
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();
      const double trials_per_s =
          wall_s > 0.0 ? static_cast<double>(result.accepted) / wall_s : 0.0;

      bool matches = true;
      if (!reference.has_value()) {
        reference = result;
        reference_wall = wall_s;
      } else {
        matches = result == *reference;
        deterministic = deterministic && matches;
      }

      total_certified += result.certified;
      total_cert_failures += result.cert_failures;

      json.begin_object();
      json.kv("threads", t);
      json.kv("wall_s", wall_s);
      json.kv("trials_per_s", trials_per_s);
      // Speedup over the first run of the sweep (the thread_list leads
      // with 1 by default, so this reads as wall(t=1)/wall(t)).
      json.kv("threads_speedup", wall_s > 0.0 ? reference_wall / wall_s : 0.0);
      json.kv("accepted", static_cast<std::uint64_t>(result.accepted));
      json.kv("discarded", static_cast<std::uint64_t>(result.discarded));
      json.kv("certified", static_cast<std::uint64_t>(result.certified));
      json.kv("cert_failures", static_cast<std::uint64_t>(result.cert_failures));
      json.kv("matches_reference", matches);
      json.end_object();

      std::printf("  %-24s threads=%-3lld wall=%8.3fs  %8.1f trials/s  "
                  "ratio=%.3f%s\n",
                  point.name.c_str(), static_cast<long long>(t), wall_s,
                  trials_per_s, result.proposed_ratio(),
                  matches ? "" : "  MISMATCH");
    }
    json.end_array();
    json.kv("proposed_ratio", reference->proposed_ratio());
    json.kv("baseline_ratio", reference->baseline_ratio());
    json.kv("deterministic", deterministic);
    json.end_object();
    all_deterministic = all_deterministic && deterministic;
  }

  json.end_array();

  // Sensitivity search timings: the legacy generic path (scaled TaskSet
  // copy per probe) vs the fast analyzer-driven path (one RtaContext, warm
  // starts, critical-path cutoffs) on a small fixed suite. The *factors*
  // must agree within the bisection tolerance — that check is folded into
  // the exit gate (a value-agreement gate, never a wall-time one).
  {
    const int sens_sets = 5;
    const double tol = analysis::SensitivityOptions{}.tolerance;
    double legacy_wall = 0.0, fast_wall = 0.0, part_wall = 0.0;
    double max_delta = 0.0;
    std::size_t warm_hits = 0;
    int cutoff_probes = 0;
    bool agree = true;

    analysis::GlobalRtaOptions gopts;
    gopts.limited_concurrency = true;
    const analysis::Analyzer& global_a = analysis::get_analyzer("global-limited");
    const analysis::Analyzer& part_a =
        analysis::get_analyzer("partitioned-baseline");
    for (int k = 0; k < sens_sets; ++k) {
      gen::TaskSetParams params;
      params.cores = 8;
      params.task_count = 6;
      params.nfj.min_branches = 3;
      params.nfj.max_branches = 5;
      params.total_utilization = 0.3 * 8.0;
      util::Rng rng(seed * 5000011 + static_cast<std::uint64_t>(k));
      const model::TaskSet ts = gen::generate_task_set(params, rng);

      auto t0 = std::chrono::steady_clock::now();
      const double legacy = analysis::critical_scaling_factor(
          ts, [&](const model::TaskSet& set) {
            return analysis::analyze_global(set, gopts).schedulable;
          });
      auto t1 = std::chrono::steady_clock::now();
      const analysis::SensitivityResult fast =
          analysis::critical_scaling_factor(ts, global_a);
      auto t2 = std::chrono::steady_clock::now();
      legacy_wall += std::chrono::duration<double>(t1 - t0).count();
      fast_wall += std::chrono::duration<double>(t2 - t1).count();
      warm_hits += fast.warm_hits;
      cutoff_probes += fast.cutoff_probes;
      const double delta = std::abs(fast.factor - legacy);
      max_delta = std::max(max_delta, delta);
      if (delta > 3.0 * tol) agree = false;

      const auto wf = part_a.make_partition(ts);
      if (wf.success()) {
        analysis::AnalyzerOptions popts;
        popts.partition = &*wf.partition;
        auto t3 = std::chrono::steady_clock::now();
        const analysis::SensitivityResult pfast =
            analysis::critical_scaling_factor(ts, part_a, popts);
        part_wall += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t3)
                         .count();
        warm_hits += pfast.warm_hits;
        cutoff_probes += pfast.cutoff_probes;
      }
    }

    json.key("sensitivity");
    json.begin_object();
    json.kv("sets", static_cast<std::uint64_t>(sens_sets));
    json.kv("global_legacy_wall_s", legacy_wall);
    json.kv("global_fast_wall_s", fast_wall);
    json.kv("global_speedup", fast_wall > 0.0 ? legacy_wall / fast_wall : 0.0);
    json.kv("partitioned_fast_wall_s", part_wall);
    json.kv("warm_hits", static_cast<std::uint64_t>(warm_hits));
    json.kv("cutoff_probes", static_cast<std::uint64_t>(cutoff_probes));
    json.kv("max_factor_delta", max_delta);
    json.kv("factors_agree", agree);
    json.end_object();

    std::printf("  sensitivity: legacy %.3fs, fast %.3fs (%.1fx), "
                "partitioned fast %.3fs, max |Δs*| = %.2e%s\n",
                legacy_wall, fast_wall,
                fast_wall > 0.0 ? legacy_wall / fast_wall : 0.0, part_wall,
                max_delta, agree ? "" : "  DISAGREE");
    all_deterministic = all_deterministic && agree;
  }

  // Admission latency: request-to-verdict time of the online mode-change
  // controller over seeded admit/evict/resize streams, at three tiers —
  // incremental (snapshots + warm seed, the default), warm-only
  // (incremental off), and the independent cold re-analysis of every
  // proposal. The wall times are informational; `verdicts_agree` (the
  // incremental tier must be bit-identical to cold) is folded into the
  // exit gate — again a value gate, never a time gate.
  {
    const int admission_streams = 3;
    const int admission_steps = 12;
    double incremental_wall = 0.0, warm_wall = 0.0, cold_wall = 0.0;
    std::size_t requests = 0, committed = 0, rejected = 0;
    std::size_t warm_seeded = 0, warm_hits = 0, verified = 0;
    std::size_t incremental_hits = 0, incremental_prefix = 0;
    bool agree = true;

    exec::ModeChangeConfig config;  // warm + incremental: the default mode
    config.analyzer = "global-limited";
    config.cores = 8;
    exec::ModeChangeConfig warm_only = config;
    warm_only.incremental = false;
    for (int k = 0; k < admission_streams; ++k) {
      exp::ElasticScenarioParams params;
      params.steps = admission_steps;
      const auto stream = exp::make_elastic_scenario(
          params, seed * 7000003 + static_cast<std::uint64_t>(k));
      const exp::ElasticReplay replay = exp::replay_elastic(
          stream, config, /*pool=*/nullptr, /*verify_cold=*/true);
      requests += stream.size();
      committed += replay.committed;
      rejected += replay.rejected;
      incremental_hits += replay.incremental_hits;
      incremental_prefix += replay.incremental_prefix;
      verified += replay.verified;
      incremental_wall += replay.warm_wall_s;
      cold_wall += replay.cold_wall_s;
      agree = agree && replay.verdicts_agree;

      // Warm-only tier: same stream, incremental disabled; its verdicts
      // were already proven identical (warm == cold property), so skip the
      // cold comparison and just take the in-controller wall.
      const exp::ElasticReplay warm_replay = exp::replay_elastic(
          stream, warm_only, /*pool=*/nullptr, /*verify_cold=*/false);
      warm_seeded += warm_replay.warm_seeded;
      warm_hits += warm_replay.warm_hits;
      warm_wall += warm_replay.warm_wall_s;
    }

    json.key("admission");
    json.begin_object();
    json.kv("streams", static_cast<std::uint64_t>(admission_streams));
    json.kv("requests", static_cast<std::uint64_t>(requests));
    json.kv("committed", static_cast<std::uint64_t>(committed));
    json.kv("rejected", static_cast<std::uint64_t>(rejected));
    json.kv("warm_seeded", static_cast<std::uint64_t>(warm_seeded));
    json.kv("warm_hits", static_cast<std::uint64_t>(warm_hits));
    json.kv("incremental_hits", static_cast<std::uint64_t>(incremental_hits));
    json.kv("incremental_prefix",
            static_cast<std::uint64_t>(incremental_prefix));
    json.kv("verified", static_cast<std::uint64_t>(verified));
    json.kv("incremental_wall_s", incremental_wall);
    json.kv("warm_wall_s", warm_wall);
    json.kv("cold_wall_s", cold_wall);
    json.kv("warm_speedup", warm_wall > 0.0 ? cold_wall / warm_wall : 0.0);
    json.kv("incremental_speedup",
            incremental_wall > 0.0 ? cold_wall / incremental_wall : 0.0);
    json.kv("verdicts_agree", agree);
    json.end_object();

    std::printf("  admission: %zu requests (%zu committed, %zu rejected), "
                "incremental %.3fs / warm %.3fs / cold %.3fs, "
                "%zu verdict copies%s\n",
                requests, committed, rejected, incremental_wall, warm_wall,
                cold_wall, incremental_hits, agree ? "" : "  DISAGREE");
    all_deterministic = all_deterministic && agree;
  }

  json.kv("deterministic_all", all_deterministic);
  json.kv("certified_total", static_cast<std::uint64_t>(total_certified));
  json.kv("cert_failures_total",
          static_cast<std::uint64_t>(total_cert_failures));
  json.end_object();
  out << "\n";
  out.close();

  if (certify_sample > 0)
    std::printf("  certify: %zu certificates checked, %zu rejected\n",
                total_certified, total_cert_failures);
  std::printf("wrote %s\n", out_path.c_str());
  if (!all_deterministic) {
    std::fprintf(stderr,
                 "perf_sweep: DETERMINISM FAILURE — results differ across "
                 "thread counts\n");
    return 1;
  }
  if (total_cert_failures > 0) {
    std::fprintf(stderr,
                 "perf_sweep: CERTIFICATION FAILURE — %zu certificate(s) "
                 "rejected by the independent checker\n",
                 total_cert_failures);
    return 1;
  }
  return 0;
}
