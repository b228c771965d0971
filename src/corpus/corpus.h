// The corpus engine: sharded, checkpointable, adversarial-scale validation
// of every registered analyzer against the simulator (ROADMAP item 5).
//
// For every seed s in [seed_begin, seed_end):
//
//   scenario  = space.pick(s)                    (gen/scenario_space.h)
//   task set  = scenario.make(cores, root.fork_with(s))
//   for each configured analyzer:
//     verdict = analyzer.analyze(set)            (own partition if needed)
//     oracle  = sim::oracle_verdict(set, policy) (gen. shared per policy)
//     assert the SAFETY DIRECTION for sound analyzers:
//         analysis-schedulable  =>  no simulated miss / deadlock
//     and fold optimism/pessimism gap statistics either way.
//
// Soundness partition: the paper's own point is that the *baseline* tests
// (Melani-style global, worst-fit partitioned) ignore the concurrency a
// thread pool loses to blocking forks and are therefore optimistic under
// pool semantics — a simulated violation against them is the expected
// finding, not a bug. Only the limited-concurrency / Algorithm-1 families
// carry a safety claim, so AnalyzerSpec separates kAssertSafety (a
// violation is a hard failure + witness bundle) from kReportOnly
// (violations are counted as `optimistic`). Federated analyzers assume
// dedicated cores the simulator does not model: kNoSim.
//
// Scale machinery: the sweep rides exp::ShardedRunner::run_range — results
// are bit-identical for any thread count and any shard count, and a killed
// run resumes from the JSON checkpoint with byte-identical final output
// (the whole accumulator state, histograms included, snapshots after every
// shard). Violations become self-contained witness bundles (witness.h)
// replayable via `rtpool_cli --replay-witness`.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/sharded_runner.h"
#include "gen/scenario_space.h"
#include "sim/engine.h"
#include "util/json.h"

namespace rtpool::corpus {

/// Mergeable fixed-bin log-scale histogram of analysis/simulation response
/// ratios (R_bound / R_observed). Fixed bins keep it deterministic,
/// checkpoint-compact, and exactly restorable — percentiles are resolved
/// to a bin's lower edge (geometric), clamped to the observed [min, max].
/// Covers ratios in [2^-4, 2^12) at 12 bins per octave; outliers clamp to
/// the edge bins (min/max/mean stay exact).
class GapHistogram {
 public:
  static constexpr int kBins = 192;

  void add(double ratio);

  std::uint64_t count() const { return count_; }
  double min() const;
  double max() const;
  double mean() const;
  /// p in [0, 100]; 0 with an empty histogram.
  double percentile(double p) const;

  /// Checkpoint (de)serialization: one JSON object value.
  void to_json(util::JsonWriter& w) const;
  void from_json(const util::JsonValue& v);

  friend bool operator==(const GapHistogram&, const GapHistogram&) = default;

 private:
  static double bin_edge(int bin);

  std::array<std::uint64_t, kBins> bins_{};
  std::uint64_t count_ = 0;
  double min_ = 0.0;  ///< Valid when count_ > 0.
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// How the oracle treats an analyzer's accepts (see file comment).
enum class OracleMode : unsigned char {
  kAssertSafety,  ///< Sim violation of an accept = safety violation + witness.
  kReportOnly,    ///< Violations only counted (known-optimistic baselines).
  kNoSim,         ///< Analysis ratios only (federated: sim can't model it).
};

const char* to_string(OracleMode mode);

/// One analyzer under corpus scrutiny.
struct AnalyzerSpec {
  std::string name;  ///< Registry name (analysis/analyzer.h).
  OracleMode mode = OracleMode::kReportOnly;
  /// Which pool semantics the oracle simulates it under (kNoSim: unused).
  sim::SchedulingPolicy policy = sim::SchedulingPolicy::kGlobal;
};

/// Classify a registry name by the soundness table above (unknown names
/// default to kNoSim — no safety claim is assumed for custom analyzers).
AnalyzerSpec spec_for(const std::string& name);

/// The default corpus set: the sound proposed family under assertion
/// (global-limited, global-limited-antichain, partitioned-proposed) plus
/// the two paper baselines as report-only reference columns.
std::vector<AnalyzerSpec> default_analyzer_specs();

struct CorpusConfig {
  std::uint64_t seed_begin = 0;
  std::uint64_t seed_end = 0;
  std::size_t shards = 16;
  std::uint64_t root_seed = 1;   ///< Root of the per-seed streams.
  std::size_t cores = 8;         ///< Platform size of every generated set.
  double windows = 4.0;          ///< Oracle horizon, in max-periods.
  /// Stop at a shard boundary after this many sets this invocation
  /// (0 = run to the end). Pairs with checkpoint/resume.
  std::uint64_t budget_sets = 0;
  /// Analyzers to scrutinize; empty = default_analyzer_specs().
  std::vector<AnalyzerSpec> analyzers;
  /// Generation scenarios; empty = ScenarioSpace::corpus_default().
  gen::ScenarioSpace space;
  std::string checkpoint_path;   ///< Empty = no checkpointing.
  bool resume = false;
  /// Directory for witness bundles (must exist); empty = don't write.
  std::string witness_dir;
  std::size_t max_witnesses = 100;  ///< Bundle-file cap (violations still count).
};

/// Per-analyzer accumulated statistics.
struct AnalyzerStats {
  std::string analyzer;
  OracleMode mode = OracleMode::kReportOnly;
  std::uint64_t sets = 0;                  ///< Generated sets analyzed.
  std::uint64_t analysis_schedulable = 0;
  std::uint64_t partition_failures = 0;    ///< Partitioner declined (reject).
  std::uint64_t sim_checked = 0;           ///< Oracle ran on the set.
  std::uint64_t sim_safe = 0;
  std::uint64_t sim_deadline_miss = 0;
  std::uint64_t sim_deadlock = 0;
  /// Accepted by analysis, violated in sim — counted for every mode; a
  /// kAssertSafety analyzer also escalates these to safety_violations.
  std::uint64_t optimistic = 0;
  std::uint64_t safety_violations = 0;
  /// Rejected by analysis although the simulated horizon was clean (an
  /// upper bound on over-rejection; sim is only a necessary condition).
  std::uint64_t pessimistic = 0;
  /// R_bound / R_observed of the analyzer's limiting task, when the
  /// analyzer accepted, reported a finite bound, and the task completed
  /// jobs in the clean simulated horizon.
  GapHistogram gap;

  friend bool operator==(const AnalyzerStats&, const AnalyzerStats&) = default;
};

struct CorpusResult {
  std::vector<AnalyzerStats> per_analyzer;
  std::vector<std::string> scenario_names;
  std::vector<std::uint64_t> per_scenario_sets;  ///< Generated per scenario.
  std::uint64_t sets = 0;               ///< Successfully generated sets.
  std::uint64_t generation_errors = 0;  ///< Resampling budget exhausted.
  std::uint64_t safety_violations = 0;  ///< Sum over assert-mode analyzers.
  std::uint64_t witnesses_written = 0;  ///< Bundle files actually written.
  exp::RangeStats range;
  bool complete = false;

  friend bool operator==(const CorpusResult&, const CorpusResult&) = default;
};

/// The runner. One instance per sweep; `run()` executes (or resumes) the
/// configured range and returns the accumulated result. Throws
/// std::invalid_argument on bad configs and std::runtime_error on
/// checkpoint mismatches.
class CorpusRunner {
 public:
  explicit CorpusRunner(CorpusConfig config, int threads = 1);

  CorpusResult run();

  /// The checkpoint identity of this configuration (exposed for tests).
  std::string fingerprint() const;

 private:
  CorpusConfig config_;
  exp::ShardedRunner runner_;
};

/// Write per-analyzer gap/violation statistics as CSV (the corpus_gap.csv
/// artifact, next to gap_analysis.csv).
void write_gap_csv(const std::string& path, const CorpusResult& result);

/// Render the machine-readable run summary (schema
/// "rtpool-corpus-summary-v1", the corpus-smoke CI artifact).
/// `wall_seconds` <= 0 omits throughput numbers (deterministic output for
/// byte-identity diffs).
std::string render_summary_json(const CorpusConfig& config,
                                const CorpusResult& result,
                                double wall_seconds);

/// Register the test-only "test-forced-optimistic" analyzer (claims every
/// set schedulable with R = D) used to prove the witness pipeline
/// end-to-end; idempotent. Returns its corpus spec (kAssertSafety/global).
AnalyzerSpec register_forced_optimistic_analyzer();

}  // namespace rtpool::corpus
