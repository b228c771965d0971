// Seeded online mode-change scenarios for the ModeChangeController.
//
// The controller's determinism contract (exec/mode_change.h) is only
// testable against a reproducible request stream. make_elastic_scenario
// derives one entirely from a 64-bit seed: a sequence of admit / evict /
// resize requests with generated NFJ tasks (unique names, distinct
// priorities) and occasional invalid requests (evicting a task that never
// existed) to exercise the reject path. replay_elastic feeds the stream to
// a fresh controller and hands the certificate of every analyzed proposal
// to the independent checker (cert::check_certificate), so each verdict the
// controller acted on — admission or rejection — is re-validated.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exec/mode_change.h"
#include "gen/taskset_generator.h"
#include "model/dag_task.h"

namespace rtpool::exp {

struct ElasticScenarioParams {
  std::size_t steps = 12;       ///< Requests in the stream.
  std::size_t min_workers = 2;  ///< Resize draw range (inclusive).
  std::size_t max_workers = 8;
  double p_evict = 0.25;        ///< Per-step eviction probability.
  double p_resize = 0.20;       ///< Per-step resize probability (else admit).
  double p_bogus_evict = 0.15;  ///< Eviction of a never-admitted name.
  /// Task shape for admissions; `cores` is irrelevant (the controller's
  /// mode supplies m), utilizations are drawn per step.
  gen::TaskSetParams gen;
};

/// One request of the stream.
struct ElasticRequest {
  exec::ModeRequestKind kind = exec::ModeRequestKind::kAdmit;
  std::optional<model::DagTask> task;  ///< Present for admits.
  std::string evict_name;              ///< Present for evicts.
  std::size_t new_workers = 0;         ///< Present for resizes.
};

/// Derive the request stream for (params, seed). Deterministic: the same
/// pair yields byte-identical tasks and requests. Tracks which names the
/// stream itself admitted so evictions (except the deliberate bogus ones)
/// target plausibly-live tasks.
std::vector<ElasticRequest> make_elastic_scenario(
    const ElasticScenarioParams& params, std::uint64_t seed);

struct ElasticReplay {
  std::vector<exec::ModeTransition> log;  ///< One entry per request.
  std::size_t committed = 0;
  std::size_t rejected = 0;
  /// Analyzed transitions whose certificate the checker accepted.
  std::size_t certified = 0;
  /// Analyzed transitions whose certificate was rejected or missing.
  std::size_t certificate_failures = 0;
  std::string log_json;  ///< render_log_json(include_timings=false).
};

/// Feed `requests` to a fresh controller built from `config` (and an
/// optional pool, which then receives committed resizes). Every transition
/// that reached analysis has its certificate checked against the analyzed
/// proposal.
ElasticReplay replay_elastic(const std::vector<ElasticRequest>& requests,
                             const exec::ModeChangeConfig& config,
                             exec::ThreadPool* pool = nullptr);

}  // namespace rtpool::exp
