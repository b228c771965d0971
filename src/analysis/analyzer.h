// The analysis spine: one pluggable interface over every schedulability
// analysis in the library.
//
// The repo grew three analysis families (global Melani-style RTA with the
// paper's limited-concurrency adaptation, partitioned Fonseca-style RTA
// over Algorithm-1/worst-fit partitions, federated scheduling) and every
// consumer — the experiment engine, the sensitivity search, the CLI, the
// figure sweeps — used to bind to each family through its own free-function
// signature, options struct and result struct. This header collapses those
// call shapes into a single spine, and registry names are the only way to
// select an analysis:
//
//                   ┌─────────────────────────────┐
//    name ────────► │  registry (find / get / …)  │
//                   └──────────────┬──────────────┘
//                                  ▼
//        Analyzer::analyze(TaskSet, RtaContext&, Options) -> Report
//                                  │
//            ┌─────────────────────┼──────────────────────┐
//            ▼                     ▼                      ▼
//      analyze_global      analyze_partitioned     analyze_federated
//      (global_rta.h)      (partitioned_rta.h)     (federated.h)
//
// Every registered analyzer is a stateless singleton wrapping one fixed
// configuration of a family kernel (e.g. "global-limited-antichain" is
// analyze_global with limited_concurrency + the antichain bound), so
// results are bit-identical to calling the kernel directly — asserted by
// golden tests on the recorded Figure-2 points. Adding a new analysis means
// implementing Analyzer once and registering it; no consumer changes.
//
// The Options envelope carries only the cross-cutting knobs (WCET scale,
// iteration budget, an optional explicit partition, diagnostics); anything
// that changes *which* test runs is the analyzer's identity and lives in
// its registry name. Cached per-set state (priority and topological
// orders, the flat view, partition bindings) rides in the RtaContext,
// exactly as for the kernels (see rta_context.h).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/cert.h"
#include "analysis/federated.h"
#include "analysis/global_rta.h"
#include "analysis/partition.h"
#include "analysis/partitioned_rta.h"
#include "model/task_set.h"
#include "util/time.h"

namespace rtpool::analysis {

class RtaContext;

/// Cross-cutting options envelope shared by every analyzer. Subsumes the
/// per-analysis `wcet_scale`/iteration knobs; family-specific switches
/// (interference bound, concurrency bound, deadlock-freedom requirement,
/// partitioner) are part of an analyzer's registry identity instead.
struct AnalyzerOptions {
  /// Analyze as if every WCET were multiplied by this factor (> 0); 1.0 is
  /// bit-identical to the unscaled analysis (sensitivity fast path).
  double wcet_scale = 1.0;
  /// Safety valve for fixed-point iterations.
  int max_iterations = 100000;
  /// Partition-based analyzers only: analyze under this node-to-thread
  /// partition instead of running the analyzer's own partitioner. Borrowed;
  /// must outlive the call. Ignored by analyzers without kUsesPartition.
  const TaskSetPartition* partition = nullptr;
  /// Collect human-readable witness notes (partition failures, Lemma-1
  /// l̄ <= 0 tasks, deadline misses) into Report::notes. Off by default so
  /// the experiment hot path allocates no strings.
  bool diagnostics = false;
};

/// What an analyzer consumes and produces (registry metadata).
struct AnalyzerCapabilities {
  /// Runs over a node-to-thread partition (own partitioner, overridable via
  /// AnalyzerOptions::partition).
  bool uses_partition = false;
  /// Fills TaskVerdict::response_time with a finite bound when schedulable.
  bool reports_response_times = false;
};

/// Unified per-task verdict. Family-specific fields keep their neutral
/// default when the analyzer does not compute them (e.g. federated leaves
/// response_time infinite, global leaves deadlock_free true).
struct TaskVerdict {
  util::Time response_time = util::kTimeInfinity;
  bool schedulable = false;
  /// l̄(τ) under the global limited-concurrency tests (0 otherwise).
  long concurrency_bound = 0;
  /// Lemma-3 verdict of the task's partition (partitioned family).
  bool deadlock_free = true;
  /// Federated family: task got dedicated cores (heavy / promoted).
  bool dedicated = false;
  /// Federated family: dedicated core allocation (0 for shared tasks).
  std::size_t dedicated_cores = 0;

  friend bool operator==(const TaskVerdict&, const TaskVerdict&) = default;
};

/// One witness diagnostic attached to a Report (only collected when
/// AnalyzerOptions::diagnostics is set).
struct AnalyzerNote {
  std::string code;     ///< Stable tag, e.g. "partition-failure", "lbar-zero".
  std::string task;     ///< Task name ("" = set-level).
  std::string message;  ///< Human-readable witness.

  friend bool operator==(const AnalyzerNote&, const AnalyzerNote&) = default;
};

/// Unified analysis outcome: the Verdict/Report type every consumer sees.
struct Report {
  std::string analyzer;              ///< Registry name that produced it.
  bool schedulable = false;
  std::vector<TaskVerdict> per_task; ///< Indexed like TaskSet::tasks().
  /// The limiting task: when unschedulable, the lowest-index task that
  /// fails; when schedulable, the task with the largest R/D ratio (least
  /// slack). Empty for empty sets or when no task reports a finite
  /// response (e.g. a schedulable federated set).
  std::optional<std::size_t> limiting_task;
  /// R/D of the limiting task (infinite when its response diverged).
  double limiting_ratio = 0.0;
  /// Federated family: total cores consumed by dedicated tasks.
  std::size_t dedicated_cores = 0;
  /// Witness diagnostics (see AnalyzerOptions::diagnostics).
  std::vector<AnalyzerNote> notes;
  /// Machine-checkable proof of the verdict, attached when
  /// AnalyzerOptions::diagnostics is set (see cert.h); validate with
  /// cert::check_certificate. Shared (not copied) when Reports are copied.
  std::shared_ptr<const cert::Certificate> certificate;

  /// Value equality; certificates compare by value (both absent, or both
  /// present and equal), not by pointer identity, so a Report from a reused
  /// context equals its fresh-context twin.
  friend bool operator==(const Report& a, const Report& b) {
    const bool certs_equal =
        a.certificate == b.certificate ||
        (a.certificate != nullptr && b.certificate != nullptr &&
         *a.certificate == *b.certificate);
    return certs_equal && a.analyzer == b.analyzer &&
           a.schedulable == b.schedulable && a.per_task == b.per_task &&
           a.limiting_task == b.limiting_task &&
           a.limiting_ratio == b.limiting_ratio &&
           a.dedicated_cores == b.dedicated_cores && a.notes == b.notes;
  }
};

/// A registered schedulability analysis. Implementations are stateless and
/// immutable after registration (analyze() is called concurrently from the
/// experiment engine's workers; all mutable state lives in the caller's
/// RtaContext).
class Analyzer {
 public:
  virtual ~Analyzer() = default;

  /// Registry name, e.g. "global-limited". Stable: used on CLIs and in
  /// reports.
  virtual std::string_view name() const = 0;
  /// One-line human description for --list-analyzers.
  virtual std::string_view description() const = 0;
  virtual AnalyzerCapabilities capabilities() const = 0;

  /// Run the analysis. `ctx` must have been built for `ts` (ModelError
  /// otherwise) and carries the structural caches across calls, exactly as
  /// for the family kernels.
  virtual Report analyze(const model::TaskSet& ts, RtaContext& ctx,
                         const AnalyzerOptions& options = {}) const = 0;

  /// The partition this analyzer would analyze under when
  /// options.partition is null. Fails with an explanatory message for
  /// analyzers without kUsesPartition. Used by the sensitivity driver to
  /// partition once for a whole search.
  virtual PartitionResult make_partition(const model::TaskSet& ts) const;

  /// Convenience: analyze with a throwaway context.
  Report analyze(const model::TaskSet& ts,
                 const AnalyzerOptions& options = {}) const;
};

// ---- static registry ----

/// Look up a registered analyzer; nullptr when unknown.
const Analyzer* find_analyzer(std::string_view name);

/// Look up a registered analyzer; throws std::invalid_argument whose
/// message lists every registered name when unknown.
const Analyzer& get_analyzer(std::string_view name);

/// All registered analyzers, sorted by name.
std::vector<const Analyzer*> registered_analyzers();

/// Register a custom analyzer (the "add an analysis is a one-file change"
/// hook). Throws std::invalid_argument on a duplicate or empty name. The
/// registry takes ownership; registration is permanent for the process.
void register_analyzer(std::unique_ptr<Analyzer> analyzer);

}  // namespace rtpool::analysis
