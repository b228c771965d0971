#include "analysis/partitioned_rta.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>

#include "analysis/cert.h"
#include "analysis/concurrency.h"
#include "analysis/deadlock.h"
#include "analysis/rta_context.h"
#include "graph/algorithms.h"
#include "util/bitset.h"

namespace rtpool::analysis {

namespace {

using util::Time;

/// One up-front pass over the whole partition: sizes and thread-id ranges.
/// Everything after this indexes raw vectors without bounds checks.
void validate_partition(const model::TaskSet& ts, const TaskSetPartition& partition) {
  if (partition.per_task.size() != ts.size())
    throw model::ModelError("analyze_partitioned: partition size mismatch");
  const std::size_t m = ts.core_count();
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const model::DagTask& task = ts.task(i);
    const auto& thread_of = partition.per_task[i].thread_of;
    if (thread_of.size() != task.node_count())
      throw model::ModelError("analyze_partitioned: assignment size mismatch for " +
                              task.name());
    for (ThreadId t : thread_of)
      if (t >= m)
        throw model::ModelError("analyze_partitioned: thread id out of range for " +
                                task.name());
  }
}

}  // namespace

std::vector<Time> per_core_workload_vector(const model::DagTask& task,
                                           const NodeAssignment& assignment,
                                           std::size_t cores) {
  const std::size_t n = task.node_count();
  const auto& thread_of = assignment.thread_of;
  if (thread_of.size() != n)
    throw model::ModelError("per_core_workload_vector: assignment size mismatch");
  for (ThreadId t : thread_of)
    if (t >= cores)
      throw model::ModelError("per_core_workload_vector: thread id out of range");
  std::vector<Time> w(cores, 0.0);
  for (model::NodeId v = 0; v < n; ++v) w[thread_of[v]] += task.wcet(v);
  return w;
}

std::vector<Time> fifo_blocking_vector(const model::DagTask& task,
                                       const NodeAssignment& assignment) {
  const std::size_t n = task.node_count();
  const auto& thread_of = assignment.thread_of;
  if (thread_of.size() != n)
    throw model::ModelError("fifo_blocking_vector: assignment size mismatch");

  // Group the nodes by core once (self-sizing: co-location is all that
  // matters here, the platform core count is irrelevant).
  ThreadId max_core = 0;
  for (model::NodeId v = 0; v < n; ++v) max_core = std::max(max_core, thread_of[v]);
  std::vector<util::DynamicBitset> on_core(static_cast<std::size_t>(max_core) + 1,
                                           util::DynamicBitset(n));
  for (model::NodeId v = 0; v < n; ++v) on_core[thread_of[v]].set(v);

  const graph::Reachability& reach = task.reachability();
  std::vector<Time> blocking(n, 0.0);
  util::DynamicBitset mask(n);
  for (model::NodeId v = 0; v < n; ++v) {
    if (task.type(v) == model::NodeType::BJ) continue;  // joins bypass the queue
    reach.unordered_mask(v, mask);
    mask.and_assign(on_core[thread_of[v]]);
    // Ascending-id accumulation: bit-identical to the naive double loop.
    Time b = 0.0;
    mask.for_each([&](std::size_t u) { b += task.wcet(u); });
    blocking[v] = b;
  }
  return blocking;
}

PartitionedRtaResult analyze_partitioned(const model::TaskSet& ts,
                                         const TaskSetPartition& partition,
                                         const PartitionedRtaOptions& options,
                                         RtaContext* ctx,
                                         cert::PartitionedCert* certificate) {
  if (!ts.priorities_distinct())
    throw model::ModelError("analyze_partitioned: task priorities must be distinct");
  if (!(options.wcet_scale > 0.0))
    throw model::ModelError("analyze_partitioned: wcet_scale must be > 0");
  validate_partition(ts, partition);

  // All per-(task, assignment) state — workloads W_{i,p}, blocking vectors
  // B_v, Lemma-3 verdicts, topological orders, DP scratch — lives in an
  // RtaContext. A caller-provided context amortizes it across calls
  // (sensitivity probes, the experiment engine's per-trial analyses); a
  // local one reproduces the former per-call work, minus the old O(|V|²)
  // per-call blocking lambda.
  std::optional<RtaContext> local_ctx;
  if (ctx == nullptr) {
    local_ctx.emplace(ts);
    ctx = &*local_ctx;
  } else if (&ctx->task_set() != &ts) {
    throw model::ModelError("analyze_partitioned: context bound to another task set");
  }
  ctx->bind_partition(partition);

  const std::size_t m = ts.core_count();
  const double scale = options.wcet_scale;
  if (certificate != nullptr) {
    certificate->split = options.bound == PartitionedBound::kSplitPerSegment;
    certificate->require_deadlock_free = options.require_deadlock_free;
    certificate->max_iterations = options.max_iterations;
    certificate->thread_of.clear();
    certificate->thread_of.reserve(ts.size());
    for (const NodeAssignment& a : partition.per_task)
      certificate->thread_of.push_back(a.thread_of);
    certificate->core_load = partition.core_utilization(ts);
    certificate->partition_failure.clear();
    certificate->per_task.assign(ts.size(), cert::PartitionedTaskCert{});
  }
  PartitionedRtaResult result;
  result.per_task.resize(ts.size());
  result.schedulable = true;

  const bool split = options.bound == PartitionedBound::kSplitPerSegment;

  // Incremental re-analysis: verdicts of the structural prefix are copied
  // from the prior run when the whole analysis fingerprint matches and the
  // task keeps its node-to-thread row (the RTA of a prefix task is a pure
  // function of inputs the prefix guard proves unchanged).
  const RtaContext::PartitionedSnapshot* prior_snap = nullptr;
  std::size_t inc_limit = 0;
  if (ctx->incremental_active()) {
    const RtaContext::PartitionedSnapshot& s = ctx->incremental_prior_partitioned();
    if (s.valid && s.cores == m && s.scale == scale &&
        same_analysis(s.options, options) &&
        (certificate == nullptr || s.cert.has_value())) {
      prior_snap = &s;
      inc_limit = ctx->incremental_prefix();
    }
  }

  std::vector<Time> response(ts.size(), util::kTimeInfinity);

  const std::vector<std::size_t>& order = ctx->priority_order();
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const std::size_t idx = order[pos];
    const model::DagTask& task = ts.task(idx);
    const std::size_t n = task.node_count();
    PartitionedTaskRta& rta = result.per_task[idx];
    cert::PartitionedTaskCert* tcert =
        certificate != nullptr ? &certificate->per_task[idx] : nullptr;

    if (pos < inc_limit) {
      const std::size_t j = ctx->incremental_prior_index()[idx];
      if (prior_snap->thread_of[j] == partition.per_task[idx].thread_of) {
        rta = prior_snap->per_task[j];
        response[idx] = prior_snap->committed[j];
        if (!rta.schedulable) result.schedulable = false;
        if (tcert != nullptr) *tcert = prior_snap->cert->per_task[j];
        ctx->note_incremental_hit();
        continue;
      }
      // A changed partition row changes this task's inputs, hence possibly
      // its response — everything at lower priority must run live too.
      inc_limit = pos;
    }

    rta.deadlock_free = ctx->deadlock_free(idx);
    if (tcert != nullptr) tcert->deadlock_free = rta.deadlock_free;
    if (options.require_deadlock_free && !rta.deadlock_free) {
      rta.schedulable = false;
      result.schedulable = false;
      if (tcert != nullptr) {
        // Which half of Lemma 3 failed: b̄ ≥ m (blocking chain) or Eq. (3)
        // (a BC node co-located with a dangerous fork).
        if (max_affecting_forks(task) >= m) {
          tcert->claim = cert::TaskClaim::kConcurrencyZero;
          tcert->concurrency =
              cert::make_concurrency_witness(task, /*antichain=*/false);
        } else {
          tcert->claim = cert::TaskClaim::kEq3Violation;
          const auto violation =
              find_eq3_violation(task, partition.per_task[idx]);
          if (violation.has_value())
            tcert->eq3 = cert::Eq3WitnessCert{violation->bc_node,
                                              violation->fork, violation->thread};
        }
      }
      continue;
    }

    const auto& hp = ctx->higher_priority(idx);
    const bool hp_diverged = std::any_of(hp.begin(), hp.end(), [&](std::size_t j) {
      return !std::isfinite(response[j]);
    });
    if (hp_diverged) {
      rta.schedulable = false;
      result.schedulable = false;
      if (tcert != nullptr) {
        tcert->claim = cert::TaskClaim::kHpDiverged;
        for (std::size_t j : hp) {
          if (!std::isfinite(response[j])) {
            tcert->blocker = j;
            break;
          }
        }
      }
      continue;
    }

    const auto& thread_of = partition.per_task[idx].thread_of;
    const std::span<const Time> blocking = ctx->fifo_blocking(idx);
    const std::span<const Time> my_workload = ctx->core_workload(idx);
    const Time deadline = task.deadline();

    if (!split) {
      // Holistic composition: longest path over s·(C_v + B_v), plus each hp
      // task's per-core workload charged once over the whole window.
      std::vector<Time>& weights = ctx->weights_scratch();
      weights.resize(n);
      for (model::NodeId v = 0; v < n; ++v)
        weights[v] = scale * (task.wcet(v) + blocking[v]);
      const Time base = graph::longest_path_length(task.dag(), ctx->topo_order(idx),
                                                   weights, ctx->dp_scratch());

      // Hoist the interference terms out of the fixed point: every hp
      // response is final here, so (wjp, jitter, period) per surviving
      // (j, p) pair is loop-invariant. The table preserves the j-outer /
      // p-inner accumulation order and both skip conditions, so the demand
      // sum is bit-identical to the nested-loop form.
      std::vector<RtaContext::InterferenceTerm>& terms = ctx->interference_scratch();
      terms.clear();
      for (std::size_t j : hp) {
        const std::span<const Time> wj = ctx->core_workload(j);
        const Time period_j = ts.task(j).period();
        for (std::size_t p = 0; p < m; ++p) {
          if (my_workload[p] <= 0.0) continue;  // τ_i never runs there
          const Time wjp = scale * wj[p];
          if (wjp <= 0.0) continue;
          terms.push_back({wjp, std::max(response[j] - wjp, 0.0), period_j});
        }
      }

      Time r = base;
      bool converged = false;
      for (int iter = 0; iter < options.max_iterations; ++iter) {
        Time demand = base;
        for (const RtaContext::InterferenceTerm& t : terms)
          demand += util::ceil_div(r + t.jitter, t.period) * t.wjp;
        if (util::time_le(demand, r)) {
          converged = true;
          break;
        }
        r = demand;
        if (util::time_lt(deadline, r)) break;
      }
      rta.response_time = converged ? r : util::kTimeInfinity;
      rta.schedulable = converged && util::time_le(r, deadline);
      response[idx] = rta.response_time;
      if (!rta.schedulable) {
        result.schedulable = false;
        response[idx] = util::kTimeInfinity;
      }
      if (tcert != nullptr) {
        tcert->schedulable = rta.schedulable;
        tcert->response = rta.response_time;
        tcert->holistic_base = base;
        if (converged) {
          tcert->claim = cert::TaskClaim::kConverged;
        } else {
          tcert->claim = util::time_lt(deadline, r)
                             ? cert::TaskClaim::kDeadlineMiss
                             : cert::TaskClaim::kIterationBudget;
          tcert->miss_value = r;
        }
      }
      continue;
    }

    // SPLIT: per-segment response times, composed along the longest path.
    if (tcert != nullptr) {
      tcert->segments.assign(n, cert::SegmentCert{});
      for (model::NodeId v = 0; v < n; ++v)
        tcert->segments[v].blocking = blocking[v];
    }
    bool task_diverged = false;
    std::vector<Time>& segment = ctx->weights_scratch();
    segment.assign(n, 0.0);

    // Hoist the per-core interference tables out of the per-node fixed
    // points: all hp responses are final here, so the surviving (j, core)
    // terms are invariant across this task's nodes. Core-major layout;
    // node v streams terms[offs[core] .. offs[core+1]) in the original
    // j order, so each demand sum is bit-identical to the nested form.
    std::vector<RtaContext::InterferenceTerm>& terms = ctx->interference_scratch();
    std::vector<std::size_t>& offs = ctx->interference_offset_scratch();
    terms.clear();
    offs.assign(m + 1, 0);
    for (std::size_t p = 0; p < m; ++p) {
      offs[p] = terms.size();
      for (std::size_t j : hp) {
        const Time wjp = scale * ctx->core_workload(j)[p];
        if (wjp <= 0.0) continue;
        terms.push_back(
            {wjp, std::max(response[j] - wjp, 0.0), ts.task(j).period()});
      }
    }
    offs[m] = terms.size();

    for (model::NodeId v = 0; v < n && !task_diverged; ++v) {
      const ThreadId core = thread_of[v];
      const Time base = scale * (task.wcet(v) + blocking[v]);
      const std::size_t t_begin = offs[core];
      const std::size_t t_end = offs[core + 1];
      Time x = base;
      bool converged = false;
      for (int iter = 0; iter < options.max_iterations; ++iter) {
        Time demand = base;
        for (std::size_t t = t_begin; t < t_end; ++t)
          demand += util::ceil_div(x + terms[t].jitter, terms[t].period) *
                    terms[t].wjp;
        if (util::time_le(demand, x)) {
          converged = true;
          break;
        }
        x = demand;
        if (util::time_lt(deadline, x)) break;  // segment alone misses D
      }
      segment[v] = x;
      if (tcert != nullptr) tcert->segments[v].response = x;
      if ((!converged && util::time_le(x, deadline)) ||
          util::time_lt(deadline, x)) {
        task_diverged = true;
        if (tcert != nullptr) {
          tcert->claim = util::time_lt(deadline, x)
                             ? cert::TaskClaim::kDeadlineMiss
                             : cert::TaskClaim::kIterationBudget;
          tcert->miss_node = v;
          tcert->miss_value = x;
        }
      }
    }

    if (task_diverged) {
      rta.response_time = util::kTimeInfinity;
      rta.schedulable = false;
      result.schedulable = false;
      continue;
    }

    // SPLIT composition: longest DAG path over segment response times.
    rta.response_time = graph::longest_path_length(task.dag(), ctx->topo_order(idx),
                                                   segment, ctx->dp_scratch());
    rta.schedulable = util::time_le(rta.response_time, deadline);
    response[idx] = rta.response_time;
    if (!rta.schedulable) {
      result.schedulable = false;
      response[idx] = util::kTimeInfinity;
    }
    if (tcert != nullptr) {
      tcert->claim = cert::TaskClaim::kConverged;
      tcert->schedulable = rta.schedulable;
      tcert->response = rta.response_time;
    }
  }

  if (ctx->snapshots_enabled()) {
    RtaContext::PartitionedSnapshot& snap = ctx->partitioned_snapshot();
    snap.valid = true;
    snap.scale = scale;
    snap.cores = m;
    snap.options = options;
    snap.per_task = result.per_task;
    snap.committed = response;
    snap.thread_of.clear();
    snap.thread_of.reserve(ts.size());
    for (const NodeAssignment& a : partition.per_task)
      snap.thread_of.push_back(a.thread_of);
    if (certificate != nullptr)
      snap.cert = *certificate;
    else
      snap.cert.reset();
  }
  return result;
}

}  // namespace rtpool::analysis
