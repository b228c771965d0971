#include "analysis/global_rta.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "analysis/antichain.h"
#include "analysis/cert.h"
#include "analysis/concurrency.h"
#include "analysis/rta_context.h"

namespace rtpool::analysis {

namespace {

using util::Time;

/// I_{j,i}(L): workload of higher-priority task τ_j interfering in a window
/// of length L, given τ_j's already-computed response time R_j. `svol` and
/// `svolm` are the pre-scaled vol(τ_j) and vol(τ_j)/m (hoisted out of the
/// fixed-point iteration — they are loop-invariant).
Time inter_task_interference(Time svol, Time svolm, Time period, Time rj,
                             Time window, std::size_t m, InterferenceBound bound) {
  // Worst-case release pattern: first job's workload is pushed as late as
  // possible; vol/m is the shortest time in which it can complete on m
  // threads, hence the jitter-like term R_j − vol/m ([14]).
  const Time shifted = window + rj - svolm;
  if (shifted <= 0.0) return 0.0;
  switch (bound) {
    case InterferenceBound::kPaperCeil:
      return util::ceil_div(shifted, period) * svol;
    case InterferenceBound::kMelaniCarryIn: {
      const double jobs = std::floor(shifted / period * (1.0 + util::kTimeEps));
      const Time remainder = shifted - jobs * period;
      const Time carry =
          std::min(svol, static_cast<double>(m) * std::max(remainder, 0.0));
      return jobs * svol + carry;
    }
  }
  throw std::invalid_argument("inter_task_interference: bad bound");
}

}  // namespace

GlobalRtaResult analyze_global(const model::TaskSet& ts,
                               const GlobalRtaOptions& options, RtaContext* ctx,
                               cert::GlobalCert* certificate) {
  if (!ts.priorities_distinct())
    throw model::ModelError("analyze_global: task priorities must be distinct");
  if (!(options.wcet_scale > 0.0))
    throw model::ModelError("analyze_global: wcet_scale must be > 0");

  std::optional<RtaContext> local_ctx;
  if (ctx == nullptr) {
    local_ctx.emplace(ts);
    ctx = &*local_ctx;
  } else if (&ctx->task_set() != &ts) {
    throw model::ModelError("analyze_global: context bound to another task set");
  }

  const std::size_t m = ts.core_count();
  const double scale = options.wcet_scale;
  if (certificate != nullptr) {
    certificate->limited = options.limited_concurrency;
    certificate->antichain_bound =
        options.concurrency == ConcurrencyBound::kMaxAntichain;
    certificate->carry_in = options.bound == InterferenceBound::kMelaniCarryIn;
    certificate->max_iterations = options.max_iterations;
    certificate->per_task.assign(ts.size(), cert::GlobalTaskCert{});
  }
  GlobalRtaResult result;
  result.per_task.resize(ts.size());
  result.schedulable = true;

  // Hoisted per-task constants: pre-scaled volume, volume/m and the period.
  // The fixed-point loop below reads these instead of re-deriving them from
  // the DagTask on every iteration.
  std::vector<Time>& svol = ctx->weights_scratch();
  std::vector<Time>& svolm = ctx->dp_scratch();
  std::vector<Time>& period = ctx->time_scratch();
  svol.resize(ts.size());
  svolm.resize(ts.size());
  period.resize(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    svol[i] = scale * ts.task(i).volume();
    svolm[i] = svol[i] / static_cast<double>(m);
    period[i] = ts.task(i).period();
  }

  std::vector<Time> response(ts.size(), util::kTimeInfinity);

  for (const std::size_t idx : ctx->priority_order()) {
    const model::DagTask& task = ts.task(idx);
    TaskRta& rta = result.per_task[idx];
    cert::GlobalTaskCert* tcert =
        certificate != nullptr ? &certificate->per_task[idx] : nullptr;

    if (tcert != nullptr && options.limited_concurrency)
      tcert->concurrency = cert::make_concurrency_witness(
          task, options.concurrency == ConcurrencyBound::kMaxAntichain);
    rta.concurrency_bound =
        options.concurrency == ConcurrencyBound::kMaxAntichain
            ? available_concurrency_lower_bound_antichain(task, m)
            : available_concurrency_lower_bound(task, m);

    double denominator = static_cast<double>(m);
    if (options.limited_concurrency) {
      if (rta.concurrency_bound <= 0) {
        // Lemma 1: the pool can stall; no response-time bound exists.
        rta.schedulable = false;
        rta.response_time = util::kTimeInfinity;
        result.schedulable = false;
        if (tcert != nullptr) tcert->claim = cert::TaskClaim::kConcurrencyZero;
        continue;
      }
      denominator = static_cast<double>(rta.concurrency_bound);
    }

    const Time len = scale * task.critical_path_length();
    const Time self_interference = svol[idx] - len;  // I_{i,i} ([9,14])
    const auto& hp = ctx->higher_priority(idx);

    // If any higher-priority task already diverged, so does this one.
    const bool hp_diverged = std::any_of(hp.begin(), hp.end(), [&](std::size_t j) {
      return !std::isfinite(response[j]);
    });
    if (hp_diverged) {
      rta.schedulable = false;
      rta.response_time = util::kTimeInfinity;
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

    const Time deadline = task.deadline();
    Time r = len;
    bool converged = false;
    for (int iter = 0; iter < options.max_iterations; ++iter) {
      Time interference = self_interference;
      for (std::size_t j : hp) {
        interference += inter_task_interference(svol[j], svolm[j], period[j],
                                                response[j], r, m, options.bound);
      }
      const Time next = len + interference / denominator;
      if (util::time_le(next, r)) {
        converged = true;
        break;
      }
      r = next;
      if (util::time_lt(deadline, r)) break;  // already missed
    }

    rta.response_time = r;
    rta.schedulable = converged && util::time_le(r, deadline);
    response[idx] = rta.response_time;
    if (!rta.schedulable) {
      result.schedulable = false;
      if (!converged) response[idx] = util::kTimeInfinity;
    }
    if (tcert != nullptr) {
      tcert->schedulable = rta.schedulable;
      tcert->response = r;
      tcert->denominator = denominator;
      tcert->critical_path = len;
      tcert->self_interference = self_interference;
      if (converged) {
        // The interference breakdown is re-evaluated at the final iterate:
        // the recorded operands are a function of (r, hp responses) only.
        tcert->claim = cert::TaskClaim::kConverged;
        tcert->hp_interference.reserve(hp.size());
        for (std::size_t j : hp)
          tcert->hp_interference.push_back(inter_task_interference(
              svol[j], svolm[j], period[j], response[j], r, m, options.bound));
      } else {
        tcert->claim = util::time_lt(deadline, r)
                           ? cert::TaskClaim::kDeadlineMiss
                           : cert::TaskClaim::kIterationBudget;
      }
    }
  }

  return result;
}

}  // namespace rtpool::analysis
