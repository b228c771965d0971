// rtpool_corpus: the sharded, checkpointable corpus sweep (ROADMAP item 5).
//
//   rtpool_corpus --seed-range 0:50000 [--shards 64] [--threads N]
//                 [--seed ROOT] [--m CORES] [--windows W]
//                 [--analyzers name,name,...] [--scenarios SUBSTRING]
//                 [--checkpoint FILE] [--resume] [--budget-sets N]
//                 [--gap-csv FILE] [--summary FILE] [--witness-dir DIR]
//                 [--max-witnesses N] [--inject-optimistic]
//
// Every seed in the half-open range becomes one generated task set, every
// configured analyzer is run on it, and the simulator cross-checks each
// verdict in the safety direction (see src/corpus/corpus.h for the
// soundness table). Violations are written as replayable witness bundles
// (`rtpool_cli --replay-witness=FILE`).
//
// Exit codes: 0 = range complete, no safety violations; 2 = safety
// violations observed; 10 = paused at a shard boundary (--budget-sets;
// checkpoint written, rerun with --resume to continue); 1 = usage/config
// error.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "util/args.h"

namespace {

using namespace rtpool;

/// Parse "B:E" into a half-open seed range.
void parse_seed_range(const std::string& spec, corpus::CorpusConfig& config) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos)
    throw std::invalid_argument("--seed-range expects BEGIN:END, got '" +
                                spec + "'");
  const auto bound = [&spec](const std::string& text) {
    const std::optional<std::uint64_t> value = util::parse_uint64(text);
    if (!value)
      throw std::invalid_argument(
          "--seed-range expects non-negative integers BEGIN:END, got '" + text +
          "' in '" + spec + "'");
    return *value;
  };
  config.seed_begin = bound(spec.substr(0, colon));
  config.seed_end = bound(spec.substr(colon + 1));
  if (config.seed_end < config.seed_begin)
    throw std::invalid_argument("--seed-range: END < BEGIN in '" + spec + "'");
}

std::vector<corpus::AnalyzerSpec> parse_analyzers(const std::string& spec) {
  std::vector<corpus::AnalyzerSpec> specs;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string name =
        spec.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!name.empty()) specs.push_back(corpus::spec_for(name));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(
        argc, argv,
        {"seed-range", "shards", "threads", "seed", "m", "windows",
         "analyzers", "scenarios", "checkpoint", "resume", "budget-sets",
         "gap-csv", "summary", "witness-dir", "max-witnesses",
         "inject-optimistic"});

    corpus::CorpusConfig config;
    parse_seed_range(args.get_string("seed-range", "0:1000"), config);
    config.shards = args.get_uint64("shards", 16);
    config.root_seed = args.get_uint64("seed", 1);
    config.cores = args.get_uint64("m", 8);
    config.windows = args.get_double("windows", 4.0);
    config.budget_sets = args.get_uint64("budget-sets", 0);
    config.checkpoint_path = args.get_string("checkpoint", "");
    config.resume = args.get_bool("resume", false);
    config.witness_dir = args.get_string("witness-dir", "");
    config.max_witnesses = args.get_uint64("max-witnesses", 100);

    const std::string analyzers = args.get_string("analyzers", "");
    if (!analyzers.empty()) config.analyzers = parse_analyzers(analyzers);
    if (args.get_bool("inject-optimistic", false)) {
      // CI fault injection: prove the witness pipeline end-to-end with a
      // deliberately unsound analyzer.
      if (config.analyzers.empty())
        config.analyzers = corpus::default_analyzer_specs();
      config.analyzers.push_back(corpus::register_forced_optimistic_analyzer());
    }

    const std::string scenarios = args.get_string("scenarios", "");
    if (!scenarios.empty()) {
      config.space = gen::ScenarioSpace::corpus_default();
      if (config.space.filter(scenarios) == 0)
        throw std::invalid_argument("--scenarios '" + scenarios +
                                    "' matches no scenario");
    }

    const int threads = static_cast<int>(args.get_int("threads", 0));
    corpus::CorpusRunner runner(config, threads);

    const auto t0 = std::chrono::steady_clock::now();
    const corpus::CorpusResult result = runner.run();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::printf("corpus: %llu sets (%llu generation errors) over seeds "
                "[%llu, %llu), %zu/%zu shards this run (%zu restored)\n",
                static_cast<unsigned long long>(result.sets),
                static_cast<unsigned long long>(result.generation_errors),
                static_cast<unsigned long long>(config.seed_begin),
                static_cast<unsigned long long>(config.seed_end),
                result.range.shards_run, result.range.shards_total,
                result.range.shards_restored);
    for (const corpus::AnalyzerStats& st : result.per_analyzer) {
      std::printf("  %-34s [%-6s] accept=%llu sim=%llu miss=%llu deadlock=%llu "
                  "optimistic=%llu pessimistic=%llu violations=%llu "
                  "gap{n=%llu p50=%.3f p99=%.3f}\n",
                  st.analyzer.c_str(), corpus::to_string(st.mode),
                  static_cast<unsigned long long>(st.analysis_schedulable),
                  static_cast<unsigned long long>(st.sim_checked),
                  static_cast<unsigned long long>(st.sim_deadline_miss),
                  static_cast<unsigned long long>(st.sim_deadlock),
                  static_cast<unsigned long long>(st.optimistic),
                  static_cast<unsigned long long>(st.pessimistic),
                  static_cast<unsigned long long>(st.safety_violations),
                  static_cast<unsigned long long>(st.gap.count()),
                  st.gap.percentile(50), st.gap.percentile(99));
    }

    const std::string gap_csv = args.get_string("gap-csv", "");
    if (!gap_csv.empty()) {
      corpus::write_gap_csv(gap_csv, result);
      std::printf("gap statistics written to %s\n", gap_csv.c_str());
    }
    const std::string summary = args.get_string("summary", "");
    if (!summary.empty()) {
      // wall_seconds <= 0 keeps the summary deterministic; CI diffs the
      // straight-through and killed/resumed summaries byte-for-byte.
      std::ofstream out(summary);
      if (!out) throw std::runtime_error("cannot write '" + summary + "'");
      out << corpus::render_summary_json(config, result, 0.0);
    }
    std::printf("wall %.1fs (%.0f sets/s)\n", wall,
                wall > 0.0 ? static_cast<double>(result.range.seeds_evaluated) /
                                 wall
                           : 0.0);

    if (result.safety_violations > 0) {
      std::printf("SAFETY VIOLATIONS: %llu (%llu witness bundles written)\n",
                  static_cast<unsigned long long>(result.safety_violations),
                  static_cast<unsigned long long>(result.witnesses_written));
      return 2;
    }
    if (!result.complete) {
      std::printf("paused at a shard boundary (budget); resume with "
                  "--resume --checkpoint %s\n",
                  config.checkpoint_path.c_str());
      return 10;
    }
    std::printf("no safety violations\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtpool_corpus: %s\n", e.what());
    return 1;
  }
  return 0;
}
