// fig2: exp::ExperimentEngine::evaluate_point over the four canonical points
// that perf_sweep defines (fig2_lmax4_{global,partitioned} with the baseline
// filter, fig2_m8_{global,partitioned}), threads = nproc, with a fixed
// certificate sample. Generation and analysis do all of its work; nothing
// simulates.
//
// Timed run: the four points are evaluated again and again; every
// PointResult must equal the first pass's, no certificate may be rejected,
// and (for recorded seeds) the pass must match the reference digest.
//
// Traced run: one untimed pass through evaluate_point, then the same points
// through exp::ShardedRunner::run_attempts with this file's own eval, which
// repeats evaluate_point's generate -> analyze -> certify steps with a span
// around each library call: once to warm up, once with the tracer off and
// once with it on. Every replica pass's PointResults must equal
// evaluate_point's; the tracing overhead is the traced pass's wall time minus
// the untraced one's.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <sstream>

#include "analysis/analyzer.h"
#include "analysis/cert_check.h"
#include "analysis/rta_context.h"
#include "common.h"
#include "exp/schedulability.h"
#include "gen/taskset_generator.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace rtpool;

/// Accepted trials per point and point evaluation.
constexpr int kTrials = 5000;
/// Certificates spot-checked per point (both analyzers of a sampled set).
constexpr int kCertifySample = 60;
/// Warm-up: every point at this many trials on seed 0, the same work for
/// every seed.
constexpr int kWarmupTrials = 500;
/// ExperimentEngine's salt for the certify-sampling stream
/// (src/exp/schedulability.cpp); the traced replica must draw the same
/// sample.
constexpr std::uint64_t kCertifySalt = 0x9e3779b97f4a7c15ULL;

struct Point {
  std::string name;
  exp::AnalyzerPair pair;
  exp::PointConfig config;
  std::uint64_t seed_salt = 0;
};

/// The canonical points of bench/perf_sweep.cpp, resolved through the
/// analyzer registry.
std::vector<Point> canonical_points(int trials) {
  const exp::AnalyzerPair global{&analysis::get_analyzer("global-baseline"),
                                 &analysis::get_analyzer("global-limited")};
  const exp::AnalyzerPair partitioned{
      &analysis::get_analyzer("partitioned-baseline"),
      &analysis::get_analyzer("partitioned-proposed")};
  std::vector<Point> points;

  exp::PointConfig lmax;
  lmax.gen.cores = 8;
  lmax.gen.task_count = 6;
  lmax.gen.nfj.min_branches = 3;
  lmax.gen.nfj.max_branches = 5;
  lmax.gen.blocking_window = gen::BlockingWindow{4, 4};
  lmax.filter_baseline = true;
  lmax.trials = trials;
  lmax.max_attempts = trials * 400;
  lmax.certify_sample = kCertifySample;
  lmax.gen.total_utilization = 0.45 * 8.0;
  points.push_back({"fig2_lmax4_global", global, lmax, 1000003});
  lmax.gen.total_utilization = 0.175 * 8.0;
  points.push_back({"fig2_lmax4_partitioned", partitioned, lmax, 2000003});

  exp::PointConfig m8;
  m8.gen.cores = 8;
  m8.gen.task_count = 6;
  m8.gen.nfj.min_branches = 3;
  m8.gen.nfj.max_branches = 5;
  m8.gen.total_utilization = 0.3 * 8.0;
  m8.filter_baseline = false;
  m8.trials = trials;
  m8.max_attempts = trials * 100;
  m8.certify_sample = kCertifySample;
  points.push_back({"fig2_m8_global", global, m8, 3000017});
  points.push_back({"fig2_m8_partitioned", partitioned, m8, 4000037});
  return points;
}

util::Rng point_rng(std::uint64_t seed, const Point& point) {
  return util::Rng(seed * point.seed_salt + 17);
}

void check_point(const Point& point, const exp::PointResult& r) {
  require(!r.attempts_exhausted, "fig2: " + point.name + " ran out of attempts");
  require(r.accepted == static_cast<std::size_t>(point.config.trials),
          "fig2: " + point.name + " accepted a wrong number of trials");
  require(r.cert_failures == 0, "fig2: " + point.name + ": " +
                                    std::to_string(r.cert_failures) +
                                    " certificates rejected");
  require(r.verdicts.size() == r.accepted, "fig2: " + point.name + " lost verdicts");
}

std::string serialize(const std::vector<exp::PointResult>& results) {
  std::ostringstream os;
  for (const exp::PointResult& r : results) {
    os << r.accepted << ' ' << r.baseline_schedulable << ' '
       << r.proposed_schedulable << ' ' << r.discarded << ' '
       << r.generation_errors << ' ' << r.attempts_exhausted << ' '
       << r.certified << ' ' << r.cert_failures << ' ';
    for (const exp::SetVerdict& v : r.verdicts)
      os << static_cast<char>('0' + (v.baseline ? 2 : 0) + (v.proposed ? 1 : 0));
    os << '\n';
  }
  return os.str();
}

// ---- the traced replica of ExperimentEngine::evaluate_point ----

struct Attempt {
  bool generated = false;
  exp::SetVerdict verdict;
  bool certified = false;
  std::size_t cert_failures = 0;
};

struct ReplicaCounts {
  std::atomic<std::uint64_t> evaluated{0}, partition_failures{0};

  void reset() {
    evaluated = 0;
    partition_failures = 0;
  }
};

bool traced_verdict(const analysis::Analyzer& analyzer, const model::TaskSet& ts,
                    analysis::RtaContext& ctx, std::uint64_t attempt,
                    ReplicaCounts& counts) {
  analysis::AnalyzerOptions options;
  analysis::PartitionResult partition;
  if (analyzer.capabilities().uses_partition) {
    Tracer::Scope span("analysis.partition", attempt);
    partition = analyzer.make_partition(ts);
    if (!partition.success()) {
      ++counts.partition_failures;
      return false;
    }
    options.partition = &*partition.partition;
  }
  Tracer::Scope span("analysis.analyze", attempt);
  return analyzer.analyze(ts, ctx, options).schedulable;
}

std::size_t certify_one(const analysis::Analyzer& analyzer, const model::TaskSet& ts,
                        analysis::RtaContext& ctx) {
  analysis::AnalyzerOptions options;
  options.diagnostics = true;
  const analysis::Report report = analyzer.analyze(ts, ctx, options);
  if (report.certificate == nullptr) return 1;
  return analysis::cert::check_certificate(ts, *report.certificate).ok() ? 0 : 1;
}

exp::PointResult traced_point(exp::ShardedRunner& runner, const Point& point,
                              const util::Rng& rng, ReplicaCounts& counts) {
  const exp::PointConfig& config = point.config;
  const exp::AnalyzerPair& pair = point.pair;
  exp::PointResult result;
  const exp::AttemptLoopStats stats = runner.run_attempts(
      static_cast<std::size_t>(config.trials),
      static_cast<std::size_t>(config.max_attempts), rng,
      [&](std::size_t attempt, util::Rng& arng) {
        Tracer::Scope attempt_span("exp.attempt", attempt);
        ++counts.evaluated;
        Attempt out;
        std::optional<model::TaskSet> ts;
        try {
          Tracer::Scope span("gen.generate", attempt);
          ts.emplace(gen::generate_task_set(config.gen, arng));
        } catch (const gen::GenerationError&) {
          return out;
        }
        out.generated = true;
        thread_local std::optional<analysis::RtaContext> tls_ctx;
        if (!tls_ctx.has_value())
          tls_ctx.emplace(*ts);
        else
          tls_ctx->reset(*ts);
        analysis::RtaContext& ctx = *tls_ctx;
        out.verdict.baseline = traced_verdict(*pair.baseline, *ts, ctx, attempt, counts);
        const bool discarded = config.filter_baseline && !out.verdict.baseline;
        if (!discarded)
          out.verdict.proposed = traced_verdict(*pair.proposed, *ts, ctx, attempt, counts);
        if (!discarded && config.certify_sample > 0) {
          const double p = std::min(1.0, static_cast<double>(config.certify_sample) /
                                             static_cast<double>(config.trials));
          util::Rng crng = arng.fork_with(kCertifySalt);
          if (crng.bernoulli(p)) {
            Tracer::Scope span("analysis.certify", attempt);
            out.certified = true;
            out.cert_failures = certify_one(*pair.baseline, *ts, ctx) +
                                certify_one(*pair.proposed, *ts, ctx);
          }
        }
        return out;
      },
      [&](std::size_t, Attempt& out) {
        if (!out.generated) {
          ++result.generation_errors;
          return false;
        }
        if (config.filter_baseline && !out.verdict.baseline) {
          ++result.discarded;
          return false;
        }
        ++result.accepted;
        if (out.verdict.baseline) ++result.baseline_schedulable;
        if (out.verdict.proposed) ++result.proposed_schedulable;
        if (out.certified) {
          ++result.certified;
          result.cert_failures += out.cert_failures;
        }
        result.verdicts.push_back(out.verdict);
        return true;
      });
  result.attempts_exhausted = stats.exhausted;
  return result;
}

}  // namespace

Outcome run_fig2(const Options& options) {
  std::vector<Point> points;
  std::optional<exp::ExperimentEngine> engine;
  Tracer& tracer = Tracer::instance();

  // Set-up: the engine (its worker pool) and a short warm-up evaluation of
  // every point on a different seed.
  const double setup_s = timed_setup([&](int) {
    points = canonical_points(kTrials);
    engine.emplace(options.threads);
    for (const Point& point : canonical_points(kWarmupTrials)) {
      check_point(point,
                  engine->evaluate_point(point.pair, point.config, point_rng(0, point)));
    }
  });

  Outcome outcome;
  std::optional<std::vector<exp::PointResult>> first;
  const auto checked_pass = [&]() {
    std::vector<exp::PointResult> results;
    double wall = 0.0;
    for (const Point& point : points) {
      const Clock::time_point t0 = Clock::now();
      results.push_back(engine->evaluate_point(point.pair, point.config,
                                               point_rng(options.seed, point)));
      wall += seconds_since(t0);
      check_point(point, results.back());
      const exp::PointResult& r = results.back();
      outcome.attempted += r.accepted + r.discarded + r.generation_errors;
      outcome.failed += r.generation_errors;
    }
    if (!first.has_value()) {
      check_digest(options, digest(serialize(results)));
      first = results;
    } else {
      require(results == *first, "fig2: a repeated pass differs from the first");
    }
    return wall;
  };

  if (!options.trace) {
    std::size_t accepted = 0;
    for (const Point& point : points)
      accepted += static_cast<std::size_t>(point.config.trials);
    const std::vector<double> walls = repeat_passes(options.seconds, checked_pass);
    report_passes(outcome, "fig2 accepted trials", walls, static_cast<double>(accepted),
                  setup_s);
    for (std::size_t i = 0; i < points.size(); ++i)
      std::printf("  %-24s proposed ratio %.4f baseline ratio %.4f discarded %zu "
                  "certified %zu\n",
                  points[i].name.c_str(), (*first)[i].proposed_ratio(),
                  (*first)[i].baseline_ratio(), (*first)[i].discarded,
                  (*first)[i].certified);
    return outcome;
  }

  checked_pass();
  // The last replica pass run is the traced one, so its results and counts
  // are what remain.
  ReplicaCounts counts;
  std::vector<exp::PointResult> traced;
  const auto replica_pass = [&]() {
    counts.reset();
    traced.clear();
    const Clock::time_point t0 = Clock::now();
    for (const Point& point : points)
      traced.push_back(traced_point(engine->runner(), point,
                                    point_rng(options.seed, point), counts));
    const double wall = seconds_since(t0);
    require(traced == *first, std::string("fig2: the ") +
                                  (tracer.enabled() ? "traced" : "untraced") +
                                  " replica differs from evaluate_point");
    return wall;
  };
  replica_pass();
  const double untraced_s = replica_pass();
  tracer.set_enabled(true);
  const double traced_s = replica_pass();
  tracer.set_enabled(false);

  const std::vector<Span> spans = tracer.spans();
  const std::map<std::string, SpanTotals> totals = Tracer::totals(spans);
  std::size_t committed = 0, accepted_total = 0, gen_errors = 0, certified = 0;
  for (const exp::PointResult& r : traced) {
    committed += r.accepted + r.discarded + r.generation_errors;
    accepted_total += r.accepted;
    gen_errors += r.generation_errors;
    certified += r.certified;
  }
  const SpanTotals generate = total_of(totals, "gen.generate");
  const SpanTotals analyze = total_of(totals, "analysis.analyze");
  LayerMetrics layers;
  layers.set("exp.idle_share",
             1.0 - total_of(totals, "exp.attempt").total_s / (engine->workers() * traced_s));
  layers.set("exp.accept_ratio",
             static_cast<double>(accepted_total) / static_cast<double>(committed));
  layers.set("exp.useful_eval_ratio",
             static_cast<double>(committed) / static_cast<double>(counts.evaluated.load()));
  layers.set("gen.busy_s", generate.total_s);
  layers.set("gen.calls", static_cast<double>(generate.count));
  layers.set("gen.errors", static_cast<double>(gen_errors));
  layers.set("analysis.analyze_busy_s", analyze.total_s);
  layers.set("analysis.analyze_calls", static_cast<double>(analyze.count));
  layers.set("analysis.partition_busy_s", total_of(totals, "analysis.partition").total_s);
  layers.set("analysis.partition_failures",
             static_cast<double>(counts.partition_failures.load()));
  layers.set("analysis.cert_busy_s", total_of(totals, "analysis.certify").total_s);
  layers.set("analysis.certified", static_cast<double>(certified));
  print_self_times(totals);
  set_trace_overhead(layers, untraced_s, traced_s, spans.size());
  Tracer::write_chrome_trace(options.out_dir + "/trace-fig2-seed" +
                                 std::to_string(options.seed) + ".json",
                             spans, stamp_json());
  layers.add_to(outcome);
  return outcome;
}

}  // namespace perfbench
