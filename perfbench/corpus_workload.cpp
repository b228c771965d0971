// corpus: corpus::CorpusRunner over a fixed seed range at the corpus-smoke
// CI settings (m = 4, 3 windows, default analyzers, no checkpoint) with the
// default scenario recipes under a cap on simulated work per set (see
// kMaxHorizonNodes), threads = nproc. It is the only workload that
// simulates.
//
// Timed run: the same range is run again and again; every pass must equal
// the first, have no safety violation, and (for recorded seeds) match the
// reference digest of its per-analyzer counts and gap CSV.
//
// Traced run: one untimed pass through CorpusRunner, then the same range
// through exp::ShardedRunner::run_range with this file's own eval, which
// repeats CorpusRunner's generate -> analyze -> simulate steps with a span
// around each library call: once to warm up, once with the tracer off and
// once with it on. Every replica CorpusResult must equal CorpusRunner's; the
// tracing overhead is the traced pass's wall time minus the untraced one's.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>

#include "analysis/analyzer.h"
#include "analysis/rta_context.h"
#include "common.h"
#include "corpus/corpus.h"
#include "exp/sharded_runner.h"
#include "gen/taskset_generator.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace rtpool;

constexpr std::size_t kCores = 4;
constexpr double kWindows = 3.0;
/// Sets per pass.
constexpr std::uint64_t kSets = 800;
/// Seeds per shard, as in the CI job (50k seeds in 100 shards).
constexpr std::uint64_t kShardSeeds = 500;
/// Warm-up pass: the same sets for every seed (root seed 0, after the
/// measured range), so set-up time does not depend on the seed.
constexpr std::uint64_t kWarmupSets = 100;
/// Node releases the oracle may simulate for one set. The simulation cost of
/// a set grows with its horizon (windows x the longest period) over its
/// shortest periods times its node counts, and is heavy-tailed: in 4200
/// default-space sets at m = 4 the top 1% held a third of all simulation
/// time and one set took 3.7 s of a 6 s pass, so sets/s swung 2x between
/// seeds. Sets above the cap (about a tenth of them) are redrawn from the
/// same stream; every scenario recipe is otherwise the default one.
constexpr double kMaxHorizonNodes = 50000.0;

double horizon_nodes(const model::TaskSet& ts) {
  double max_period = 0.0;
  for (const model::DagTask& task : ts.tasks())
    max_period = std::max(max_period, task.period());
  double nodes = 0.0;
  for (const model::DagTask& task : ts.tasks())
    nodes += std::ceil(kWindows * max_period / task.period()) *
             static_cast<double>(task.node_count());
  return nodes;
}

/// The default scenario space with every recipe redrawing past the cap.
gen::ScenarioSpace bounded_space() {
  const gen::ScenarioSpace defaults = gen::ScenarioSpace::corpus_default();
  gen::ScenarioSpace space;
  for (std::size_t i = 0; i < defaults.size(); ++i) {
    const gen::Scenario base = defaults.scenario(i);
    space.add({base.name, [base](std::size_t cores, util::Rng& rng) {
                 for (;;) {
                   model::TaskSet ts = base.make(cores, rng);
                   if (horizon_nodes(ts) <= kMaxHorizonNodes) return ts;
                 }
               }});
  }
  return space;
}

corpus::CorpusConfig make_config(std::uint64_t root_seed, std::uint64_t begin,
                                 std::uint64_t end) {
  corpus::CorpusConfig config;
  config.seed_begin = begin;
  config.seed_end = end;
  config.shards = static_cast<std::size_t>(
      std::max<std::uint64_t>(1, (end - begin + kShardSeeds - 1) / kShardSeeds));
  config.root_seed = root_seed;
  config.cores = kCores;
  config.windows = kWindows;
  config.space = bounded_space();
  return config;
}

void check_result(const corpus::CorpusResult& r) {
  require(r.complete, "corpus: range not complete");
  require(r.safety_violations == 0,
          "corpus: " + std::to_string(r.safety_violations) + " safety violations");
  for (const corpus::AnalyzerStats& st : r.per_analyzer) {
    require(st.sets == r.sets, "corpus: " + st.analyzer + " saw a different set count");
    require(st.sim_checked == st.sim_safe + st.sim_deadline_miss + st.sim_deadlock,
            "corpus: " + st.analyzer + " simulation outcomes do not add up");
    require(st.safety_violations == 0, "corpus: " + st.analyzer + " violated safety");
  }
}

/// Digest of the deterministic summary (per-analyzer and per-scenario
/// counts) and of the gap CSV as write_gap_csv renders it.
std::string result_digest(const Options& options,
                          const corpus::CorpusConfig& config,
                          const corpus::CorpusResult& result) {
  const std::string csv_path = options.out_dir + "/corpus_gap-seed" +
                               std::to_string(options.seed) + ".csv";
  corpus::write_gap_csv(csv_path, result);
  std::ifstream in(csv_path);
  std::stringstream csv;
  csv << in.rdbuf();
  return digest(corpus::render_summary_json(config, result, 0.0) + csv.str());
}

// ---- the traced replica of CorpusRunner::run ----

struct PerAnalyzer {
  bool partition_failure = false;
  bool analysis_schedulable = false;
  bool sim_checked = false;
  sim::SimOutcome outcome = sim::SimOutcome::kOk;
  double gap = 0.0;
};

struct SetOutcome {
  bool generated = false;
  std::size_t scenario = 0;
  std::vector<PerAnalyzer> per_analyzer;
};

struct SimCounts {
  std::atomic<std::uint64_t> ok{0}, miss{0}, deadlock{0};

  void reset() {
    ok = 0;
    miss = 0;
    deadlock = 0;
  }
};

double jobs_of(const sim::SimVerdict& verdict) {
  double jobs = 0.0;
  for (const sim::TaskStats& t : verdict.result->per_task)
    jobs += static_cast<double>(t.jobs_released);
  return jobs;
}

sim::SimVerdict traced_oracle(const char* span, const model::TaskSet& ts,
                              sim::OracleOptions oracle, std::uint64_t seed,
                              SimCounts& counts) {
  Tracer::Scope scope(span, seed);
  sim::SimVerdict verdict = sim::oracle_verdict(ts, oracle);
  scope.set_value(jobs_of(verdict));
  switch (verdict.outcome) {
    case sim::SimOutcome::kOk: ++counts.ok; break;
    case sim::SimOutcome::kDeadlineMiss: ++counts.miss; break;
    case sim::SimOutcome::kDeadlock: ++counts.deadlock; break;
  }
  return verdict;
}

corpus::CorpusResult traced_run(exp::ShardedRunner& runner,
                                const corpus::CorpusConfig& config,
                                const corpus::CorpusResult& shape,
                                SimCounts& counts) {
  const gen::ScenarioSpace& space = config.space;
  const std::vector<corpus::AnalyzerSpec> specs = corpus::default_analyzer_specs();
  std::vector<const analysis::Analyzer*> analyzers;
  for (const corpus::AnalyzerSpec& spec : specs)
    analyzers.push_back(&analysis::get_analyzer(spec.name));

  corpus::CorpusResult result;
  result.scenario_names = shape.scenario_names;
  result.per_scenario_sets.assign(space.size(), 0);
  for (const corpus::AnalyzerSpec& spec : specs) {
    corpus::AnalyzerStats st;
    st.analyzer = spec.name;
    st.mode = spec.mode;
    result.per_analyzer.push_back(std::move(st));
  }

  const auto eval = [&](std::uint64_t seed, util::Rng& srng) {
    Tracer::Scope set_span("corpus.set", seed);
    SetOutcome out;
    out.scenario = space.pick_index(seed);
    std::optional<model::TaskSet> ts;
    try {
      Tracer::Scope gen_span("gen.make", seed);
      ts.emplace(space.scenario(out.scenario).make(config.cores, srng));
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

    std::optional<sim::SimVerdict> global_verdict;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const corpus::AnalyzerSpec& spec = specs[i];
      const analysis::Analyzer& analyzer = *analyzers[i];
      PerAnalyzer pa;
      analysis::PartitionResult partition;
      analysis::AnalyzerOptions options;
      if (analyzer.capabilities().uses_partition) {
        Tracer::Scope span("analysis.partition", seed);
        partition = analyzer.make_partition(*ts);
        if (!partition.success()) {
          pa.partition_failure = true;
          out.per_analyzer.push_back(pa);
          continue;
        }
        options.partition = &*partition.partition;
      }
      std::optional<analysis::Report> report;
      {
        Tracer::Scope span("analysis.analyze", seed);
        report.emplace(analyzer.analyze(*ts, ctx, options));
      }
      pa.analysis_schedulable = report->schedulable;
      if (spec.mode != corpus::OracleMode::kNoSim) {
        const sim::SimVerdict* verdict = nullptr;
        sim::SimVerdict partitioned_verdict;
        if (spec.policy == sim::SchedulingPolicy::kGlobal) {
          if (!global_verdict.has_value()) {
            sim::OracleOptions oracle;
            oracle.policy = sim::SchedulingPolicy::kGlobal;
            oracle.windows = config.windows;
            global_verdict = traced_oracle("sim.global", *ts, oracle, seed, counts);
          }
          verdict = &*global_verdict;
        } else if (partition.success()) {
          sim::OracleOptions oracle;
          oracle.policy = sim::SchedulingPolicy::kPartitioned;
          oracle.partition = partition.partition;
          oracle.windows = config.windows;
          partitioned_verdict =
              traced_oracle("sim.partitioned", *ts, oracle, seed, counts);
          verdict = &partitioned_verdict;
        }
        if (verdict != nullptr) {
          pa.sim_checked = true;
          pa.outcome = verdict->outcome;
          if (pa.analysis_schedulable && verdict->safe() &&
              report->limiting_task.has_value()) {
            const std::size_t limiting = *report->limiting_task;
            const double bound = report->per_task[limiting].response_time;
            const double observed = verdict->result->per_task[limiting].max_response;
            if (std::isfinite(bound) && observed > 0.0) pa.gap = bound / observed;
          }
        }
      }
      out.per_analyzer.push_back(pa);
    }
    return out;
  };

  const auto fold = [&](std::uint64_t, SetOutcome& out) {
    if (!out.generated) {
      ++result.generation_errors;
      return;
    }
    ++result.sets;
    ++result.per_scenario_sets.at(out.scenario);
    for (std::size_t i = 0; i < out.per_analyzer.size(); ++i) {
      const PerAnalyzer& pa = out.per_analyzer[i];
      corpus::AnalyzerStats& st = result.per_analyzer.at(i);
      ++st.sets;
      if (pa.partition_failure) {
        ++st.partition_failures;
        continue;
      }
      if (pa.analysis_schedulable) ++st.analysis_schedulable;
      if (!pa.sim_checked) continue;
      ++st.sim_checked;
      switch (pa.outcome) {
        case sim::SimOutcome::kOk: ++st.sim_safe; break;
        case sim::SimOutcome::kDeadlineMiss: ++st.sim_deadline_miss; break;
        case sim::SimOutcome::kDeadlock: ++st.sim_deadlock; break;
      }
      if (pa.analysis_schedulable && pa.outcome != sim::SimOutcome::kOk) {
        ++st.optimistic;
        if (st.mode == corpus::OracleMode::kAssertSafety) {
          ++st.safety_violations;
          ++result.safety_violations;
        }
      }
      if (!pa.analysis_schedulable && pa.outcome == sim::SimOutcome::kOk)
        ++st.pessimistic;
      if (pa.gap > 0.0) st.gap.add(pa.gap);
    }
  };

  exp::RangeOptions options;
  options.range = {config.seed_begin, config.seed_end};
  options.shards = config.shards;
  result.range = runner.run_range(
      options, util::Rng(config.root_seed), eval, fold,
      [] { return std::string(); }, [](const std::string&) {});
  result.complete = result.range.complete;
  return result;
}

void report_layers(const corpus::CorpusResult& result, const SimCounts& counts,
                   const std::vector<Span>& spans, int workers, double traced_s,
                   LayerMetrics& layers) {
  const std::map<std::string, SpanTotals> totals = Tracer::totals(spans);
  const SpanTotals global = total_of(totals, "sim.global");
  const SpanTotals partitioned = total_of(totals, "sim.partitioned");
  const double sim_busy = global.total_s + partitioned.total_s;
  const double jobs = global.value + partitioned.value;
  layers.set("sim.busy_s", sim_busy);
  layers.set("sim.global_busy_s", global.total_s);
  layers.set("sim.partitioned_busy_s", partitioned.total_s);
  layers.set("sim.runs", static_cast<double>(global.count + partitioned.count));
  layers.set("sim.jobs", jobs);
  layers.set("sim.ns_per_job", jobs > 0.0 ? sim_busy * 1e9 / jobs : 0.0);
  layers.set("sim.outcome.ok", static_cast<double>(counts.ok.load()));
  layers.set("sim.outcome.deadline_miss", static_cast<double>(counts.miss.load()));
  layers.set("sim.outcome.deadlock", static_cast<double>(counts.deadlock.load()));

  // Per-set cost and its split over the scenarios (assigned round-robin by
  // seed, as ScenarioSpace::pick_index does).
  std::vector<double> set_ms;
  std::vector<double> per_scenario(result.scenario_names.size(), 0.0);
  double set_total = 0.0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) != "corpus.set") continue;
    set_ms.push_back(s.seconds() * 1e3);
    per_scenario[s.key % per_scenario.size()] += s.seconds();
    set_total += s.seconds();
  }
  layers.set("corpus.set_ms_p50", util::percentile(set_ms, 50));
  layers.set("corpus.set_ms_p99", util::percentile(set_ms, 99));
  layers.set("corpus.set_ms_max", util::percentile(set_ms, 100));
  for (std::size_t i = 0; i < per_scenario.size(); ++i)
    layers.set("corpus.scenario_share." + result.scenario_names[i],
               set_total > 0.0 ? per_scenario[i] / set_total : 0.0);

  const double evaluated = static_cast<double>(set_ms.size());
  layers.set("exp.idle_share", 1.0 - set_total / (workers * traced_s));
  layers.set("exp.accept_ratio",
             static_cast<double>(result.sets) / static_cast<double>(result.range.seeds_evaluated));
  layers.set("exp.useful_eval_ratio",
             static_cast<double>(result.range.seeds_evaluated) / evaluated);

  const SpanTotals gen = total_of(totals, "gen.make");
  layers.set("gen.busy_s", gen.total_s);
  layers.set("gen.calls", static_cast<double>(gen.count));
  layers.set("gen.errors", static_cast<double>(result.generation_errors));
  const SpanTotals analyze = total_of(totals, "analysis.analyze");
  const SpanTotals partition = total_of(totals, "analysis.partition");
  layers.set("analysis.analyze_busy_s", analyze.total_s);
  layers.set("analysis.analyze_calls", static_cast<double>(analyze.count));
  layers.set("analysis.partition_busy_s", partition.total_s);
  std::uint64_t partition_failures = 0;
  for (const corpus::AnalyzerStats& st : result.per_analyzer)
    partition_failures += st.partition_failures;
  layers.set("analysis.partition_failures", static_cast<double>(partition_failures));
  print_self_times(totals);
}

}  // namespace

Outcome run_corpus(const Options& options) {
  const corpus::CorpusConfig config = make_config(options.seed, 0, kSets);
  std::optional<corpus::CorpusRunner> runner;
  std::optional<exp::ShardedRunner> replica_runner;
  Tracer& tracer = Tracer::instance();

  // Set-up: the runner (its worker pool) and a short warm-up pass on seeds
  // outside the measured range.
  const double setup_s = timed_setup([&](int) {
    runner.emplace(config, options.threads);
    corpus::CorpusRunner warmup(make_config(0, kSets, kSets + kWarmupSets),
                                options.threads);
    check_result(warmup.run());
    if (options.trace) replica_runner.emplace(options.threads);
  });

  Outcome outcome;
  std::optional<corpus::CorpusResult> first;
  const auto checked_pass = [&]() {
    const Clock::time_point t0 = Clock::now();
    corpus::CorpusResult result = runner->run();
    const double wall = seconds_since(t0);
    check_result(result);
    if (!first.has_value()) {
      check_digest(options, result_digest(options, config, result));
      first = result;
    } else {
      require(result == *first, "corpus: a repeated pass differs from the first");
    }
    outcome.attempted += result.range.seeds_evaluated;
    outcome.failed += result.generation_errors;
    return wall;
  };

  if (!options.trace) {
    const std::vector<double> walls = repeat_passes(options.seconds, checked_pass);
    report_passes(outcome, "corpus sets", walls, static_cast<double>(first->sets),
                  setup_s);
    return outcome;
  }

  checked_pass();
  // The last replica pass run is the traced one, so its result and counts
  // are what remain.
  SimCounts counts;
  std::optional<corpus::CorpusResult> traced;
  const auto replica_pass = [&]() {
    counts.reset();
    const Clock::time_point t0 = Clock::now();
    traced = traced_run(*replica_runner, config, *first, counts);
    const double wall = seconds_since(t0);
    require(*traced == *first, std::string("corpus: the ") +
                                   (tracer.enabled() ? "traced" : "untraced") +
                                   " replica differs from CorpusRunner");
    return wall;
  };
  replica_pass();
  const double untraced_s = replica_pass();
  tracer.set_enabled(true);
  const double traced_s = replica_pass();
  tracer.set_enabled(false);

  const std::vector<Span> spans = tracer.spans();
  LayerMetrics layers;
  report_layers(*traced, counts, spans, replica_runner->workers(), traced_s, layers);
  set_trace_overhead(layers, untraced_s, traced_s, spans.size());
  Tracer::write_chrome_trace(options.out_dir + "/trace-corpus-seed" +
                                 std::to_string(options.seed) + ".json",
                             spans, stamp_json());
  layers.add_to(outcome);
  return outcome;
}

}  // namespace perfbench
