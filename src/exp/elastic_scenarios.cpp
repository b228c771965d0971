#include "exp/elastic_scenarios.h"

#include "util/rng.h"

namespace rtpool::exp {

std::vector<ElasticRequest> make_elastic_scenario(
    const ElasticScenarioParams& params, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<ElasticRequest> requests;
  requests.reserve(params.steps);
  std::vector<std::string> admitted;  // names the stream has admitted so far
  std::size_t next_index = 0;

  for (std::size_t step = 0; step < params.steps; ++step) {
    ElasticRequest req;
    const double roll = rng.uniform(0.0, 1.0);
    if (!admitted.empty() && roll < params.p_evict) {
      req.kind = exec::ModeRequestKind::kEvict;
      req.evict_name = rng.bernoulli(params.p_bogus_evict)
                           ? "never-admitted"
                           : admitted[rng.index(admitted.size())];
    } else if (roll < params.p_evict + params.p_resize) {
      req.kind = exec::ModeRequestKind::kResize;
      req.new_workers = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(params.min_workers),
                          static_cast<std::int64_t>(params.max_workers)));
    } else {
      req.kind = exec::ModeRequestKind::kAdmit;
      const double util = rng.uniform(0.05, 0.6);
      // Unique name per admission (generate_task names "tau<index>") and a
      // distinct priority so the proposal's priority order is total.
      model::DagTask task =
          gen::generate_task(params.gen, next_index, util, rng);
      req.task = task.with_priority(static_cast<int>(next_index));
      admitted.push_back(req.task->name());
      ++next_index;
    }
    requests.push_back(std::move(req));
  }
  return requests;
}

ElasticReplay replay_elastic(const std::vector<ElasticRequest>& requests,
                             const exec::ModeChangeConfig& config,
                             exec::ThreadPool* pool, bool verify_cold) {
  exec::ModeChangeController controller(config, pool);
  ElasticReplay out;
  out.log.reserve(requests.size());

  for (const ElasticRequest& req : requests) {
    exec::ModeTransition tr;
    switch (req.kind) {
      case exec::ModeRequestKind::kAdmit:
        tr = controller.admit(*req.task);
        break;
      case exec::ModeRequestKind::kEvict:
        tr = controller.evict(req.evict_name);
        break;
      case exec::ModeRequestKind::kResize:
        tr = controller.resize(req.new_workers);
        break;
    }
    if (tr.committed) ++out.committed;
    else ++out.rejected;
    out.incremental_hits += tr.incremental_hits;
    out.incremental_prefix += tr.incremental_prefix;

    // A transition is comparable when the analyzer actually ran: a
    // PROPOSE-stage reject (bogus evict, duplicate name, zero resize)
    // carries a default-constructed Report with no analyzer name.
    if (verify_cold && tr.proposed != nullptr && !tr.report.analyzer.empty()) {
      const analysis::Report cold = controller.cold_analyze(*tr.proposed);
      ++out.verified;
      if (!(cold == tr.report)) out.verdicts_agree = false;
    }
    out.log.push_back(std::move(tr));
  }
  out.log_json = controller.render_log_json(/*include_timings=*/false);
  return out;
}

}  // namespace rtpool::exp
