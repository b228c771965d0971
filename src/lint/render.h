// Renderers for lint reports and analysis verdicts: compiler-style text
// and machine-readable JSON.
#pragma once

#include <ostream>
#include <string>

#include "analysis/analyzer.h"
#include "lint/diagnostics.h"
#include "model/task_set.h"

namespace rtpool::lint {

/// Compiler-style text, one finding per line plus an indented fix hint:
///
///   error[RTP-L1] task 'tau_1': Lemma 1: ...
///       hint: increase the pool size ...
///   2 errors, 1 warning, 0 notes
void render_text(const LintReport& report, std::ostream& os);

/// JSON document:
///
///   {"tool": "rtpool-lint", "version": 1,
///    "diagnostics": [{"rule_id": ..., "severity": ..., "task": ...,
///                     "node": <id or null>, "message": ..., "fix_hint": ...}],
///    "counts": {"errors": E, "warnings": W, "notes": N}}
///
/// Parsable back with util::parse_json (round-trip tested).
void render_json(const LintReport& report, std::ostream& os);

/// Convenience wrappers returning the rendered string.
std::string render_text(const LintReport& report);
std::string render_json(const LintReport& report);

/// Text rendering of a unified analysis verdict (analysis/analyzer.h):
///
///   analyzer 'global-limited': schedulable (limiting task 'tau_2', R/D = 0.93)
///     tau_0: OK    R = 12.5, D = 40 (lbar = 2)
///     tau_1: MISS  R = inf, D = 25
///     note[lbar-zero] task 'tau_1': ...
///
/// `ts` must be the task set the report was produced from (task names).
void render_text(const analysis::Report& report, const model::TaskSet& ts,
                 std::ostream& os);

/// JSON document for a unified analysis verdict:
///
///   {"tool": "rtpool-analysis", "version": 1, "analyzer": ...,
///    "schedulable": ..., "limiting_task": <name or null>,
///    "limiting_ratio": ..., "dedicated_cores": ...,
///    "per_task": [{"task": ..., "schedulable": ..., "response_time":
///                  <seconds or null when infinite>, "deadline": ...}, ...],
///    "notes": [{"code": ..., "task": ..., "message": ...}, ...]}
///
/// Parsable back with util::parse_json (round-trip tested).
void render_json(const analysis::Report& report, const model::TaskSet& ts,
                 std::ostream& os);

std::string render_text(const analysis::Report& report, const model::TaskSet& ts);
std::string render_json(const analysis::Report& report, const model::TaskSet& ts);

/// JSON document for an analysis certificate (analysis/cert.h) — a
/// complete dump of the proof payload:
///
///   {"tool": "rtpool-certificate", "version": 1, "analyzer": ...,
///    "family": "global"|"partitioned"|"federated", "wcet_scale": ...,
///    "schedulable": ...,
///    "<family>": {... per-task claims, iterates, witnesses, partition
///                 echo / allocation, with null for infinite times and
///                 absent indices ...}}
///
/// `ts` must be the task set the certificate was produced from (task
/// names); out-of-range task references render as 'task#<i>'.
/// Parsable back with util::parse_json (round-trip tested).
void render_json(const analysis::cert::Certificate& certificate,
                 const model::TaskSet& ts, std::ostream& os);

std::string render_json(const analysis::cert::Certificate& certificate,
                        const model::TaskSet& ts);

}  // namespace rtpool::lint
