#include "gen/taskset_generator.h"

#include "analysis/concurrency.h"
#include "util/uunifast.h"

namespace rtpool::gen {

model::DagTask generate_task(const TaskSetParams& params, std::size_t index,
                             double utilization, util::Rng& rng) {
  if (!(utilization > 0.0))
    throw std::invalid_argument("generate_task: utilization must be > 0");
  if (params.blocking_window.has_value() &&
      params.blocking_window->bf_min > params.blocking_window->bf_max)
    throw std::invalid_argument("generate_task: empty blocking window");

  for (int attempt = 0; attempt < params.max_graph_attempts; ++attempt) {
    NfjParams nfj = params.nfj;
    std::size_t target_bf = 0;
    if (params.blocking_window.has_value()) {
      // Targeted typing: generate an untyped skeleton, then mark exactly
      // `target_bf` pairwise-concurrent fork-join sub-graphs as blocking —
      // every member of a marked region then sees exactly target_bf
      // dangerous forks, so b̄(τ) = target_bf by construction (verified
      // below). Guarantee enough concurrent sub-graphs by widening the
      // outermost fork when needed.
      target_bf = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(params.blocking_window->bf_min),
                          static_cast<std::int64_t>(params.blocking_window->bf_max)));
      nfj.allow_blocking = false;
      if (target_bf > 0) {
        nfj.force_outer_branches =
            std::max(nfj.force_outer_branches,
                     std::max(nfj.min_branches, static_cast<int>(target_bf)));
      }
    }

    GeneratedGraph g = generate_nfj_graph(nfj, rng);
    // Selection and typing read the skeleton's nesting record, not a
    // closure: a skeleton too shallow for target_bf is dropped before the
    // task (and with it the one Kahn pass and closure) is built.
    if (params.blocking_window.has_value() && target_bf > 0) {
      const auto selection = pick_concurrent_fork_joins(g, target_bf, rng);
      if (!selection.has_value()) continue;  // skeleton too shallow; resample
      apply_blocking_selection(g, *selection);
    }

    const util::Time volume = g.volume();
    const util::Time period = volume / utilization;
    model::DagTask task("tau" + std::to_string(index), std::move(g.dag),
                        std::move(g.nodes), period, period,
                        static_cast<int>(index));

    if (params.blocking_window.has_value()) {
      const std::size_t b = analysis::max_affecting_forks(task);
      if (b < params.blocking_window->bf_min || b > params.blocking_window->bf_max)
        continue;
    }
    return task;
  }
  throw GenerationError(
      "generate_task: blocking window not reachable within attempt budget");
}

model::TaskSet generate_task_set(const TaskSetParams& params, util::Rng& rng) {
  if (params.task_count == 0)
    throw std::invalid_argument("generate_task_set: task_count must be > 0");

  // Per-task utilization can never exceed the platform (m processors).
  const auto utils = util::uunifast_capped(
      params.task_count, params.total_utilization,
      static_cast<double>(params.cores), rng);

  model::TaskSet ts(params.cores);
  for (std::size_t i = 0; i < params.task_count; ++i)
    ts.add(generate_task(params, i, utils[i], rng));
  return model::assign_deadline_monotonic(std::move(ts));
}

}  // namespace rtpool::gen
