#include "analysis/sensitivity.h"

#include <stdexcept>
#include <vector>

#include "analysis/rta_context.h"
#include "util/time.h"

namespace rtpool::analysis {

namespace {

/// Shared bisection driver. `probe(s)` returns the schedulability verdict
/// at scale s; the probe sequence (lo + tol, hi, then midpoints) is shared
/// by the generic and fast paths so their searches are comparable
/// probe-for-probe.
double bisect_scaling_factor(const std::function<bool(double)>& probe,
                             const SensitivityOptions& options) {
  if (!(options.hi > options.lo) || !(options.tolerance > 0.0))
    throw std::invalid_argument("critical_scaling_factor: bad bracket");

  double lo = options.lo;
  double hi = options.hi;

  // The bracket must start from a passing point: probe just above lo.
  const double first = lo + options.tolerance;
  if (!probe(first)) return 0.0;
  if (probe(hi)) return hi;

  double best = first;
  for (int iter = 0; iter < options.max_iterations && hi - lo > options.tolerance;
       ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (probe(mid)) {
      best = mid;
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return best;
}

/// Verdict-safe probe cutoff: every analysis in this library lower-bounds
/// a task's response time by s·len (global: the fixed point starts there;
/// partitioned: segment bases dominate s·C_v and compose along the longest
/// path; federated: dedicated allocation requires D > s·len and serialized
/// tasks have C = s·vol >= s·len). So if any scaled critical path exceeds
/// its deadline the analysis is guaranteed to fail — skip it.
bool critical_path_exceeds_deadline(const model::TaskSet& ts, double s) {
  for (const model::DagTask& t : ts.tasks())
    if (util::time_lt(t.deadline(), s * t.critical_path_length())) return true;
  return false;
}

}  // namespace

model::TaskSet scale_wcets(const model::TaskSet& ts, double factor) {
  if (!(factor > 0.0))
    throw std::invalid_argument("scale_wcets: factor must be > 0");
  model::TaskSet out(ts.core_count());
  for (const model::DagTask& t : ts.tasks()) {
    graph::Dag dag = t.dag();
    std::vector<model::Node> nodes;
    nodes.reserve(t.node_count());
    for (model::NodeId v = 0; v < t.node_count(); ++v)
      nodes.push_back({t.wcet(v) * factor, t.type(v)});
    out.add(model::DagTask(t.name(), std::move(dag), std::move(nodes),
                           t.period(), t.deadline(), t.priority()));
  }
  return out;
}

double critical_scaling_factor(const model::TaskSet& ts,
                               const SchedulabilityTest& test,
                               const SensitivityOptions& options) {
  return bisect_scaling_factor(
      [&](double s) { return test(scale_wcets(ts, s)); }, options);
}

SensitivityResult critical_scaling_factor(const model::TaskSet& ts,
                                          const Analyzer& analyzer,
                                          const AnalyzerOptions& base,
                                          const SensitivityOptions& options) {
  SensitivityResult result;
  RtaContext ctx(ts);
  ctx.set_warm_start(options.warm_start);

  AnalyzerOptions probe_options = base;
  PartitionResult owned_partition;
  if (analyzer.capabilities().uses_partition && probe_options.partition == nullptr) {
    owned_partition = analyzer.make_partition(ts);
    // An unpartitionable set fails every probe: the factor is 0.0
    // (infeasible), reported without throwing — matching the analyzer's
    // own clean-Report behaviour on partition failure.
    if (!owned_partition.success()) return result;
    probe_options.partition = &*owned_partition.partition;
  }
  // Bind once: blocking vectors, per-core workloads and Lemma-3 verdicts
  // are computed a single time for the entire search (the per-probe rebind
  // inside the kernel is a content-compare no-op).
  if (probe_options.partition != nullptr)
    ctx.bind_partition(*probe_options.partition);

  result.factor = bisect_scaling_factor(
      [&](double s) {
        ++result.probes;
        if (options.critical_path_cutoff && critical_path_exceeds_deadline(ts, s)) {
          ++result.cutoff_probes;
          return false;
        }
        probe_options.wcet_scale = s;
        return analyzer.analyze(ts, ctx, probe_options).schedulable;
      },
      options);
  result.warm_hits = ctx.warm_hits();
  return result;
}

}  // namespace rtpool::analysis
