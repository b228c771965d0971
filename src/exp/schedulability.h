// Schedulability-ratio experiments (Section 5).
//
// Each evaluation point generates random task sets and compares two
// registered analyzers (analysis/analyzer.h), a baseline and a proposed
// test. The paper's two pairs are
//
//   global:      "global-baseline" (Melani et al. [14], ignores reduced
//                concurrency) vs "global-limited" (Section 4.1,
//                interference divided by l̄(τ));
//   partitioned: "partitioned-baseline" (worst-fit + [10]-style RTA,
//                possibly unsafe) vs "partitioned-proposed" (Algorithm 1 +
//                the same RTA + the Lemma 3 deadlock-freedom requirement).
//
// Mirroring the paper's setup, a point can *filter* generation: task sets
// not schedulable by the baseline test are discarded and regenerated, so
// the reported proposed-ratio isolates the cost of reduced concurrency
// (used in the l_max sweeps of Figures 2(a)/(b)).
//
// Determinism & parallelism: every generation attempt k derives its own
// RNG as `rng.fork_with(k)` (a splitmix64-keyed stream independent of how
// many draws other attempts make), and accepted sets are committed in
// strict attempt order. A point's result is therefore BIT-IDENTICAL for
// any ExperimentEngine thread count — parallel fan-out across the
// library's own exec::ThreadPool only changes wall time, never numbers.
#pragma once

#include <cstdint>
#include <vector>

#include "exp/sharded_runner.h"
#include "gen/taskset_generator.h"
#include "util/rng.h"

namespace rtpool::analysis {
class Analyzer;
}

namespace rtpool::exp {

/// The baseline/proposed analyzer pair a Figure-2-style experiment
/// compares. Pointers into the registry (process lifetime).
struct AnalyzerPair {
  const analysis::Analyzer* baseline = nullptr;
  const analysis::Analyzer* proposed = nullptr;
};

struct PointConfig {
  gen::TaskSetParams gen;      ///< Generator parameters (m, n, U, NFJ, window).
  bool filter_baseline = false;///< Discard sets the baseline rejects.
  int trials = 500;            ///< Accepted task sets per point (paper: 500).
  /// Upper bound on generation attempts (incl. discarded sets) per point;
  /// prevents infinite loops when the filter is too strict.
  int max_attempts = 100000;
  /// Certificate spot-checking: re-run both analyzers with certificate
  /// emission on for roughly this many accepted sets per point (0 = off)
  /// and validate each certificate with the independent checker
  /// (analysis/cert_check.h). Each attempt decides from its own forked RNG
  /// whether it is sampled, so the sampled subset — and every count — is
  /// bit-identical for any engine thread count.
  int certify_sample = 0;
};

/// Per-set verdicts, exposed for tests and custom sweeps.
struct SetVerdict {
  bool baseline = false;
  bool proposed = false;

  friend bool operator==(const SetVerdict&, const SetVerdict&) = default;
};

struct PointResult {
  std::size_t accepted = 0;
  std::size_t baseline_schedulable = 0;
  std::size_t proposed_schedulable = 0;
  std::size_t discarded = 0;        ///< Sets rejected by the baseline filter.
  std::size_t generation_errors = 0;///< Blocking-window resampling failures.
  bool attempts_exhausted = false;  ///< Point is incomplete (filter too strict).
  /// Accepted sets whose certificates were spot-checked (certify_sample).
  std::size_t certified = 0;
  /// Certificates the independent checker rejected (two per certified set
  /// are checked: baseline and proposed). Always 0 for a sound build.
  std::size_t cert_failures = 0;
  /// Verdicts of the accepted sets, committed in attempt order (identical
  /// for every thread count; used by the determinism tests).
  std::vector<SetVerdict> verdicts;

  double baseline_ratio() const {
    return accepted == 0 ? 0.0
                         : static_cast<double>(baseline_schedulable) /
                               static_cast<double>(accepted);
  }
  double proposed_ratio() const {
    return accepted == 0 ? 0.0
                         : static_cast<double>(proposed_schedulable) /
                               static_cast<double>(accepted);
  }

  friend bool operator==(const PointResult&, const PointResult&) = default;
};

/// Figure-2 point evaluation on a deterministic parallel runner.
///
/// Owns an exp::ShardedRunner (its worker pool is the library's own
/// exec::ThreadPool: the harness dogfoods the runtime it analyzes). Work
/// units are seeded per attempt index via Rng::fork_with and committed in
/// attempt order on the calling thread, so results are thread-count
/// invariant. Other sweeps run on `runner()` directly.
class ExperimentEngine {
 public:
  /// `threads` <= 0 selects std::thread::hardware_concurrency(); 1 runs
  /// everything inline on the calling thread (no pool). The worker count
  /// is clamped to the hardware unless `clamp_to_hardware` is false (see
  /// ShardedRunner).
  explicit ExperimentEngine(int threads = 1, bool clamp_to_hardware = true)
      : runner_(threads, clamp_to_hardware) {}

  ExperimentEngine(const ExperimentEngine&) = delete;
  ExperimentEngine& operator=(const ExperimentEngine&) = delete;

  /// Effective parallelism: min(requested threads, hardware), >= 1.
  int workers() const { return runner_.workers(); }

  /// The underlying runner (pool + attempt loop + run_range), shared by
  /// sweeps that are not baseline/proposed points.
  ShardedRunner& runner() { return runner_; }

  /// Evaluate one point: generate task sets and apply the pair's two
  /// analyzers. `rng` is only read as a seed root (fork_with per attempt),
  /// never advanced.
  PointResult evaluate_point(const AnalyzerPair& pair, const PointConfig& config,
                             const util::Rng& rng);

 private:
  ShardedRunner runner_;
};

}  // namespace rtpool::exp
