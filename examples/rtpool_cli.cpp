// rtpool_cli: analyze a .taskset file from the command line.
//
//   rtpool_cli --file data/fig1.taskset [--scheduler global|partitioned]
//              [--analyzer NAME[,NAME...]|all] [--list-analyzers]
//              [--format=text|json] [--certify] [--simulate] [--dot]
//              [--generate N] [--seed S] ...
//
// --format=json prints each selected verdict as the lint JSON report and
// nothing else — byte-identical to the "report" member the rtpool-serve
// daemon returns for the same file/analyzer (CI diffs the two).
//
// --certify runs every selected analyzer with certificate emission on and
// validates each verdict with the independent checker (analysis/cert_check.h);
// any rejected certificate makes the process exit with status 2.
//
// Without --file, a random task set is generated (handy for exploration)
// and can be saved with --save. Every analysis runs through the
// analysis::Analyzer registry (see --list-analyzers for the names).
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/antichain.h"
#include "bench_common.h"
#include "analysis/cert_check.h"
#include "analysis/concurrency.h"
#include "analysis/deadlock.h"
#include "analysis/rta_context.h"
#include "analysis/sensitivity.h"
#include "corpus/corpus.h"
#include "corpus/witness.h"
#include "gen/taskset_generator.h"
#include "graph/dot.h"
#include "exp/report_json.h"
#include "lint/render.h"
#include "model/io.h"
#include "sim/engine.h"
#include "sim/trace_json.h"
#include "util/args.h"

namespace {

using namespace rtpool;

/// Parse an analyzer selection: "name,name,..." or "all".
std::vector<const analysis::Analyzer*> select_analyzers(const std::string& spec) {
  if (spec == "all") return analysis::registered_analyzers();
  std::vector<const analysis::Analyzer*> selected;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string name =
        spec.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!name.empty()) selected.push_back(&analysis::get_analyzer(name));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return selected;
}

/// Run an explicit analyzer selection over the task set: one shared
/// RtaContext, verdicts rendered with the lint renderer, witness notes on.
void run_analyzers_cli(const model::TaskSet& ts, const std::string& spec) {
  const std::vector<const analysis::Analyzer*> selected = select_analyzers(spec);
  analysis::RtaContext ctx(ts);
  analysis::AnalyzerOptions opts;
  opts.diagnostics = true;
  std::printf("\nANALYZERS (registry pass, shared context)\n");
  for (const analysis::Analyzer* a : selected)
    std::printf("%s", lint::render_text(a->analyze(ts, ctx, opts), ts).c_str());
}

/// --format=json: render every selected verdict with the same options the
/// admission service uses (default AnalyzerOptions, one shared RtaContext)
/// so the output is byte-identical to a served "report" member.
void run_analyzers_json(const model::TaskSet& ts, const std::string& spec) {
  analysis::RtaContext ctx(ts);
  const analysis::AnalyzerOptions opts;
  for (const analysis::Analyzer* a : select_analyzers(spec))
    std::printf("%s", lint::render_json(a->analyze(ts, ctx, opts), ts).c_str());
}

/// Certify every selected analyzer's verdict: run with diagnostics on (one
/// shared RtaContext), hand each Report's certificate to the independent
/// checker, and report OK/FAIL per analyzer. Returns the failure count.
int certify_cli(const model::TaskSet& ts, const std::string& spec) {
  analysis::RtaContext ctx(ts);
  analysis::AnalyzerOptions opts;
  opts.diagnostics = true;
  int failures = 0;
  std::printf("\nCERTIFY (independent checker over every verdict)\n");
  for (const analysis::Analyzer* a : select_analyzers(spec)) {
    const std::string name(a->name());
    const analysis::Report rep = a->analyze(ts, ctx, opts);
    if (rep.certificate == nullptr) {
      std::printf("certify '%s': FAIL — analyzer attached no certificate\n",
                  name.c_str());
      ++failures;
      continue;
    }
    const analysis::cert::CheckResult result =
        analysis::cert::check_certificate(ts, *rep.certificate);
    if (result.ok()) {
      std::printf("certify '%s': OK — %s, %zu claims checked\n", name.c_str(),
                  rep.schedulable ? "schedulable" : "unschedulable",
                  result.claims_checked);
    } else {
      const analysis::cert::CheckFailure& f = *result.failure;
      std::printf("certify '%s': FAIL [%s]", name.c_str(),
                  analysis::cert::to_string(f.kind));
      if (f.task != analysis::cert::kNoIndex && f.task < ts.size())
        std::printf(" task '%s'", ts.task(f.task).name().c_str());
      std::printf(" — %s (%zu claims checked)\n", f.detail.c_str(),
                  result.claims_checked);
      ++failures;
    }
  }
  if (failures > 0)
    std::printf("certification FAILED for %d analyzer%s\n", failures,
                failures == 1 ? "" : "s");
  return failures;
}

void analyze_global_cli(const model::TaskSet& ts) {
  analysis::RtaContext ctx(ts);
  const analysis::Report base =
      analysis::get_analyzer("global-baseline").analyze(ts, ctx);
  const analysis::Report lim =
      analysis::get_analyzer("global-limited").analyze(ts, ctx);

  std::printf("\nGLOBAL scheduling  (baseline [14] vs limited-concurrency Sec. 4.1)\n");
  std::printf("%-10s %6s %6s %10s %10s %8s\n", "task", "b̄", "l̄", "R[14]",
              "R(Eq.4)", "verdict");
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const auto& t = ts.task(i);
    std::printf("%-10s %6zu %6ld %10.1f %10.1f %8s\n", t.name().c_str(),
                analysis::max_affecting_forks(t),
                lim.per_task[i].concurrency_bound,
                base.per_task[i].response_time, lim.per_task[i].response_time,
                lim.per_task[i].schedulable ? "ok" : "reject");
  }
  std::printf("set verdict: baseline=%s  limited=%s\n",
              base.schedulable ? "schedulable" : "unschedulable",
              lim.schedulable ? "schedulable" : "unschedulable");
}

void analyze_partitioned_cli(const model::TaskSet& ts) {
  std::printf("\nPARTITIONED scheduling\n");
  const analysis::Analyzer& proposed =
      analysis::get_analyzer("partitioned-proposed");
  const auto wf =
      analysis::get_analyzer("partitioned-baseline").make_partition(ts);
  const auto a1 = proposed.make_partition(ts);
  std::printf("worst-fit: %s   Algorithm 1: %s\n",
              wf.success() ? "ok" : wf.failure.c_str(),
              a1.success() ? "ok" : a1.failure.c_str());
  if (a1.success()) {
    analysis::AnalyzerOptions opts;
    opts.partition = &*a1.partition;
    const analysis::Report rta = proposed.analyze(ts, opts);
    std::printf("%-10s %10s %10s %10s\n", "task", "R", "D", "verdict");
    for (std::size_t i = 0; i < ts.size(); ++i)
      std::printf("%-10s %10.1f %10.1f %10s\n", ts.task(i).name().c_str(),
                  rta.per_task[i].response_time, ts.task(i).deadline(),
                  rta.per_task[i].schedulable ? "ok" : "reject");
    std::printf("set verdict (Alg.1 + RTA + Lemma 3): %s\n",
                rta.schedulable ? "schedulable" : "unschedulable");
  }
}

/// --simulate: run the sim oracle and print its verdict next to every
/// simulatable analyzer's verdict (the corpus soundness table decides which
/// verdicts carry a safety claim). Returns the number of safety-direction
/// disagreements: a kAssertSafety analyzer accepting a set the simulator
/// drives into a miss/deadlock.
int simulate_cli(const model::TaskSet& ts) {
  sim::OracleOptions oracle;
  oracle.policy = sim::SchedulingPolicy::kGlobal;
  oracle.windows = 10.0;
  const sim::SimVerdict global = sim::oracle_verdict(ts, oracle);
  std::printf("\nSIMULATION ORACLE (global, horizon=%.0f)\n", global.horizon);
  if (!global.safe())
    std::printf("violation: %s — %s\n", sim::to_string(global.outcome),
                global.description.c_str());
  const sim::SimResult& r = *global.result;
  for (std::size_t i = 0; i < ts.size(); ++i)
    std::printf("%-10s jobs=%zu misses=%zu maxR=%.1f min_l=%ld\n",
                ts.task(i).name().c_str(), r.per_task[i].jobs_completed,
                r.per_task[i].deadline_misses, r.per_task[i].max_response,
                r.per_task[i].min_available_concurrency);

  std::printf("\nORACLE vs ANALYZERS (safety direction: accept => no violation)\n");
  int disagreements = 0;
  analysis::RtaContext ctx(ts);
  for (const analysis::Analyzer* a : analysis::registered_analyzers()) {
    const std::string name(a->name());
    const corpus::AnalyzerSpec spec = corpus::spec_for(name);
    if (spec.mode == corpus::OracleMode::kNoSim) continue;

    analysis::AnalyzerOptions opts;
    analysis::PartitionResult part;
    if (a->capabilities().uses_partition) {
      part = a->make_partition(ts);
      if (!part.success()) {
        std::printf("  %-34s reject   (%s)\n", name.c_str(),
                    part.failure.c_str());
        continue;
      }
      opts.partition = &*part.partition;
    }
    const bool accepts = a->analyze(ts, ctx, opts).schedulable;

    // Partitioned analyzers are judged under their own placement; global
    // ones share the one global oracle run.
    const sim::SimVerdict* verdict = &global;
    sim::SimVerdict own;
    if (spec.policy == sim::SchedulingPolicy::kPartitioned) {
      sim::OracleOptions po;
      po.policy = sim::SchedulingPolicy::kPartitioned;
      po.partition = part.partition;
      po.windows = 10.0;
      own = sim::oracle_verdict(ts, po);
      verdict = &own;
    }
    const bool violated = accepts && !verdict->safe();
    const bool asserts = spec.mode == corpus::OracleMode::kAssertSafety;
    if (violated && asserts) ++disagreements;
    std::printf("  %-34s %-8s sim=%-13s%s\n", name.c_str(),
                accepts ? "accept" : "reject",
                sim::to_string(verdict->outcome),
                !violated          ? ""
                : asserts          ? "  SAFETY VIOLATION"
                                   : "  optimistic (report-only baseline)");
  }
  if (disagreements > 0)
    std::printf("safety direction violated by %d analyzer%s\n", disagreements,
                disagreements == 1 ? "" : "s");
  return disagreements;
}

/// --replay-witness=FILE: re-run a corpus witness bundle. Exit 0 when the
/// recorded disagreement reproduces, 4 when it does not.
int replay_witness_cli(const std::string& path) {
  const corpus::WitnessBundle bundle = corpus::load_witness(path);
  // CI bundles produced by `rtpool_corpus --inject-optimistic` reference
  // the test-only analyzer, which is not registered by default.
  if (bundle.analyzer == "test-forced-optimistic")
    corpus::register_forced_optimistic_analyzer();
  std::printf("witness %s\n", path.c_str());
  std::printf("  seed=%llu root=%llu scenario=%s analyzer=%s policy=%s\n",
              static_cast<unsigned long long>(bundle.seed),
              static_cast<unsigned long long>(bundle.root_seed),
              bundle.scenario.c_str(), bundle.analyzer.c_str(),
              bundle.policy == sim::SchedulingPolicy::kGlobal ? "global"
                                                              : "partitioned");
  std::printf("  recorded: %s — %s\n", sim::to_string(bundle.outcome),
              bundle.description.c_str());
  const corpus::ReplayResult replay = corpus::replay_witness(bundle);
  std::printf("  replayed: analysis=%s sim=%s%s%s\n",
              replay.analysis_schedulable ? "accept" : "reject",
              sim::to_string(replay.verdict.outcome),
              replay.verdict.safe() ? "" : " — ",
              replay.verdict.safe() ? "" : replay.verdict.description.c_str());
  if (replay.reproduced) {
    std::printf("REPRODUCED: analyzer accepts, simulator observes %s\n",
                sim::to_string(replay.verdict.outcome));
    return 0;
  }
  std::printf("NOT REPRODUCED (analysis=%s, outcome %s recorded %s)\n",
              replay.analysis_schedulable ? "accept" : "reject",
              sim::to_string(replay.verdict.outcome),
              replay.outcome_matches ? "matches" : "differs from");
  return 4;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Shared bench flag plumbing: appends --seed/--threads/… and handles
    // --list-analyzers (prints the registry, exits 0) like every driver.
    const util::Args args = bench::parse_args(
        argc, argv,
        {"file", "save", "simulate", "dot", "generate", "m", "u", "scheduler",
         "json", "trace", "sensitivity", "analyzer", "certify", "format",
         "replay-witness"});
    const bench::CommonFlags common = bench::common_flags(args);
    const std::string format = args.get_string("format", "text");
    if (format != "text" && format != "json")
      throw std::invalid_argument("--format must be text or json, got '" +
                                  format + "'");
    // JSON mode emits ONLY the machine-readable report (no preamble), so the
    // output can be diffed byte-for-byte against a served verdict.
    const bool json_out = format == "json";

    const std::string witness_path = args.get_string("replay-witness", "");
    if (!witness_path.empty()) return replay_witness_cli(witness_path);

    model::TaskSet ts(1);
    const std::string file = args.get_string("file", "");
    if (!file.empty()) {
      ts = model::load_task_set(file);
      if (!json_out)
        std::printf("loaded %zu tasks (m=%zu) from %s\n", ts.size(),
                    ts.core_count(), file.c_str());
    } else {
      gen::TaskSetParams params;
      params.cores = static_cast<std::size_t>(args.get_int("m", 8));
      params.task_count = static_cast<std::size_t>(args.get_int("generate", 4));
      params.total_utilization =
          args.get_double("u", 0.4 * static_cast<double>(params.cores));
      util::Rng rng(common.seed);
      ts = gen::generate_task_set(params, rng);
      if (!json_out)
        std::printf("generated %zu tasks (m=%zu, U=%.2f)\n", ts.size(),
                    ts.core_count(), ts.total_utilization());
    }

    if (!json_out)
      for (const auto& t : ts.tasks())
        std::printf(
            "  %-10s |V|=%3zu vol=%8.1f len=%8.1f T=%10.1f prio=%d BF=%zu\n",
            t.name().c_str(), t.node_count(), t.volume(),
            t.critical_path_length(), t.period(), t.priority(),
            t.blocking_fork_count());

    const std::string analyzer_spec = args.get_string("analyzer", "");
    if (args.get_bool("certify", false)) {
      // --certify replaces the analysis sections: every selected analyzer
      // (default: all) must produce a certificate the independent checker
      // accepts; any rejection exits non-zero.
      if (certify_cli(ts, analyzer_spec.empty() ? "all" : analyzer_spec) > 0)
        return 2;
    } else if (json_out) {
      run_analyzers_json(ts, analyzer_spec.empty() ? "all" : analyzer_spec);
    } else if (!analyzer_spec.empty()) {
      run_analyzers_cli(ts, analyzer_spec);
    } else {
      // Default sections: the global pair, the partitioned pair, or both.
      const std::string scheduler = args.get_string("scheduler", "both");
      if (scheduler != "both" && scheduler != "global" && scheduler != "partitioned")
        throw std::invalid_argument("unknown scheduler '" + scheduler +
                                    "' (valid: global, partitioned)");
      if (scheduler != "partitioned") analyze_global_cli(ts);
      if (scheduler != "global") analyze_partitioned_cli(ts);
    }

    int safety_disagreements = 0;
    if (args.get_bool("simulate", false)) safety_disagreements = simulate_cli(ts);

    if (args.get_bool("sensitivity", false)) {
      // Critical WCET scaling per analysis: how much execution-time margin
      // (or overload) the set has under each test. One analyzer-generic
      // fast search per row (one RtaContext per search, partition-based
      // analyzers partition once).
      const auto run = [&](const char* label, const char* analyzer_name) {
        const analysis::Analyzer& a = analysis::get_analyzer(analyzer_name);
        if (a.capabilities().uses_partition && !a.make_partition(ts).success()) {
          std::printf("  %-28s (no feasible partition)\n", label);
          return;
        }
        const analysis::SensitivityResult r =
            analysis::critical_scaling_factor(ts, a);
        std::printf("  %-28s s* = %.3f  (%d probes, %d cut off)\n", label,
                    r.factor, r.probes, r.cutoff_probes);
      };
      std::printf("\nSENSITIVITY (critical WCET scaling)\n");
      run("baseline [14]", "global-baseline");
      run("limited (b̄, Sec. 4.1)", "global-limited");
      run("limited (antichain)", "global-limited-antichain");
      run("partitioned (Alg. 1)", "partitioned-proposed");
    }

    if (args.get_bool("dot", false)) {
      for (const auto& t : ts.tasks()) {
        std::vector<std::string> labels;
        for (model::NodeId v = 0; v < t.node_count(); ++v)
          labels.push_back(std::to_string(v) + ":" + model::to_string(t.type(v)));
        std::printf("%s", graph::to_dot(t.dag(), labels, t.name()).c_str());
      }
    }

    const std::string json = args.get_string("json", "");
    if (!json.empty()) {
      exp::save_analysis_report(json, ts);
      std::printf("analysis report written to %s\n", json.c_str());
    }

    const std::string trace = args.get_string("trace", "");
    if (!trace.empty()) {
      sim::SimConfig cfg;
      cfg.policy = sim::SchedulingPolicy::kGlobal;
      cfg.collect_trace = true;
      double max_period = 0.0;
      for (const auto& t : ts.tasks())
        max_period = std::max(max_period, t.period());
      cfg.horizon = 4.0 * max_period;
      sim::save_chrome_trace(trace, ts, sim::simulate(ts, cfg));
      std::printf("chrome trace written to %s (open in about://tracing)\n",
                  trace.c_str());
    }

    const std::string save = args.get_string("save", "");
    if (!save.empty()) {
      model::save_task_set(save, ts);
      std::printf("saved to %s\n", save.c_str());
    }
    if (safety_disagreements > 0) return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtpool_cli: %s\n", e.what());
    return 1;
  }
  return 0;
}
