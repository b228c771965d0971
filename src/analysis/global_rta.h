// Global fixed-priority response-time analysis (Section 4.1).
//
// Baseline: the DAG-task analysis of Melani et al. [14] as restated by the
// paper. For each task τ_i (in decreasing priority order) the response time
// is the least fixed point of
//
//   R_i = len(λ_i*) + (1/D) · [ vol(τ_i) − len(λ_i*) + Σ_{j ∈ hp(i)} I_{j,i}(R_i) ]
//
// with denominator D = m (baseline, [14]) or D = l̄(τ_i) (the paper's
// limited-concurrency adaptation, Lemma 4 / Eq. 4). The inter-task
// interference bound is
//
//   I_{j,i}(L) = ceil((L + R_j − vol(τ_j)/m) / T_j) · vol(τ_j)       (paper)
//
// or the refined carry-in form of [14] (ablation):
//
//   I_{j,i}(L) = floor(A/T_j)·vol(τ_j) + min(vol(τ_j), m·(A mod T_j)),
//   A = L + R_j − vol(τ_j)/m.
//
// Under the limited-concurrency test, a task with l̄(τ_i) <= 0 is deemed
// unschedulable outright: the deadlock-freedom guarantee of Section 3 is
// lost (Lemma 1).
#pragma once

#include <string>
#include <vector>

#include "model/task_set.h"
#include "util/time.h"

namespace rtpool::analysis {

namespace cert {
struct GlobalCert;
}  // namespace cert

/// Inter-task interference bound flavor.
enum class InterferenceBound {
  kPaperCeil,      ///< ceil-based bound as printed in the DAC'19 paper.
  kMelaniCarryIn,  ///< refined carry-in bound of Melani et al. [14].
};

/// Which lower bound on the available concurrency feeds Eq. (4).
enum class ConcurrencyBound {
  kMaxAffectingForks,  ///< l̄ = m − b̄ (Section 3.1, the paper's bound).
  kMaxAntichain,       ///< l̄' = m − maxAntichain(BF) (refinement, see
                       ///< antichain.h — the paper's future-work direction).
};

struct GlobalRtaOptions {
  /// false = baseline [14] (denominator m); true = Section 4.1 (denominator
  /// l̄(τ_i), plus the l̄ > 0 deadlock-freedom requirement).
  bool limited_concurrency = false;
  InterferenceBound bound = InterferenceBound::kPaperCeil;
  ConcurrencyBound concurrency = ConcurrencyBound::kMaxAffectingForks;
  /// Safety valve for the fixed-point iteration.
  int max_iterations = 100000;
  /// Analyze the task set as if every WCET were multiplied by this factor
  /// (must be > 0), without materializing a scaled copy: all WCET-derived
  /// quantities (volumes, critical-path lengths) are scaled on the fly from
  /// the cached unit-scale values. 1.0 is bit-identical to the unscaled
  /// analysis. Used by the sensitivity fast path (see sensitivity.h).
  double wcet_scale = 1.0;
};

/// Per-task analysis outcome.
struct TaskRta {
  util::Time response_time = util::kTimeInfinity;
  bool schedulable = false;
  long concurrency_bound = 0;  ///< l̄(τ) (only meaningful if limited_concurrency).
};

struct GlobalRtaResult {
  bool schedulable = false;          ///< All tasks meet their deadlines.
  std::vector<TaskRta> per_task;     ///< Indexed like TaskSet::tasks().
};

class RtaContext;

/// Run the analysis over the whole task set. Priorities must be pairwise
/// distinct (throws ModelError otherwise); tasks are processed from highest
/// to lowest priority so that hp response times are available.
///
/// `ctx` (optional) must have been built for `ts`; it caches the priority
/// orders and hoisted per-task constants across calls (see rta_context.h).
/// Without a context the call derives the same state locally — results are
/// identical either way.
///
/// `certificate` (optional): when non-null, filled with a machine-checkable
/// proof of the result (see cert.h) — per-task claims, the final iterates
/// with their interference breakdown (recorded by re-evaluating the
/// recurrence at the final iterate), and the b̄ witnesses.
GlobalRtaResult analyze_global(const model::TaskSet& ts,
                               const GlobalRtaOptions& options = {},
                               RtaContext* ctx = nullptr,
                               cert::GlobalCert* certificate = nullptr);

}  // namespace rtpool::analysis
