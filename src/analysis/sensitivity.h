// Sensitivity analysis: critical WCET scaling.
//
// For a schedulability test T, the *critical scaling factor* of a task set
// is the largest s such that the set with every WCET multiplied by s still
// passes T (periods and deadlines unchanged). s > 1 quantifies headroom,
// s < 1 the overload; comparing s across tests measures their pessimism on
// one concrete instance (e.g. paper's b̄ bound vs the antichain bound).
//
// Found by binary search, valid because all tests in this library are
// sustainable in the WCETs (scaling all C's down never turns a schedulable
// verdict unschedulable; see tests/test_global_rta.cpp).
//
// Two entry points:
//  * `critical_scaling_factor` over a predicate — generic reference path,
//    takes an arbitrary test and materializes a scaled TaskSet copy per
//    probe (full revalidation, reachability closure, cache rebuild). Any
//    test expressible as a predicate works.
//  * `critical_scaling_factor` over a registered `Analyzer` — the fast
//    path, one driver for every analysis behind the spine (analyzer.h).
//    One RtaContext carries the structural caches across probes,
//    partition-based analyzers partition once for the whole search, each
//    probe runs the analysis with `wcet_scale = s` on the *original* set
//    (no copies), and probes where some task's scaled critical path alone
//    already exceeds its deadline are cut off without running the
//    analysis at all (verdict-safe: every analysis lower-bounds a task's
//    response by s·len, so such probes always fail). The probe *sequence*
//    is identical to the generic path.
//
// The predicate path is the reference the fast path is tested against.
#pragma once

#include <functional>

#include "analysis/analyzer.h"
#include "model/task_set.h"

namespace rtpool::analysis {

struct SensitivityOptions {
  double lo = 0.0;        ///< Search bracket lower bound (assumed feasible
                          ///< direction; s = 0 degenerates, never returned).
  double hi = 8.0;        ///< Upper bracket; results are clamped below it.
  double tolerance = 1e-3;///< Absolute tolerance on s.
  int max_iterations = 64;
  /// Fast path only: fail probes whose scaled critical path already
  /// exceeds some deadline without running the analysis (verdict-safe).
  bool critical_path_cutoff = true;
};

/// Telemetry-carrying result of the fast sensitivity path.
struct SensitivityResult {
  double factor = 0.0;        ///< The critical scaling factor (0.0 = infeasible).
  int probes = 0;             ///< Schedulability probes issued (incl. cutoffs).
  int cutoff_probes = 0;      ///< Probes decided by the critical-path cutoff.
};

/// A schedulability test as a predicate over task sets.
using SchedulabilityTest = std::function<bool(const model::TaskSet&)>;

/// Scale every WCET of every task by `factor` (> 0); periods, deadlines and
/// priorities are unchanged. Throws std::invalid_argument on factor <= 0.
model::TaskSet scale_wcets(const model::TaskSet& ts, double factor);

/// Largest s in (options.lo, options.hi] with test(scale_wcets(ts, s))
/// true, up to the tolerance; returns 0.0 if even the smallest probed
/// scale fails (the bracket's low end is rejected). Generic reference
/// path: one scaled TaskSet copy per probe.
double critical_scaling_factor(const model::TaskSet& ts,
                               const SchedulabilityTest& test,
                               const SensitivityOptions& options = {});

/// Fast path, analyzer-generic: critical scaling factor of
/// `analyzer.analyze(ts, ctx, base)` with `base.wcet_scale` overwritten per
/// probe. One RtaContext serves the whole search.
/// Partition-based analyzers partition once: `base.partition` if supplied,
/// otherwise `analyzer.make_partition(ts)` — whose failure makes every
/// probe fail, i.e. factor 0.0, without throwing. Same probe sequence as
/// the predicate path; factors agree up to float association (s·ΣC vs
/// Σ s·C), i.e. within a few ULP-scaled epsilons of each other.
SensitivityResult critical_scaling_factor(const model::TaskSet& ts,
                                          const Analyzer& analyzer,
                                          const AnalyzerOptions& base = {},
                                          const SensitivityOptions& options = {});

}  // namespace rtpool::analysis
