// Wire protocol of the rtpool-serve admission daemon.
//
// Every request and response is ONE JSON document. Over TCP each document
// travels in a length-prefixed frame (util/net.h); on stdin the documents
// are delimited by the JSON grammar itself (util::JsonStreamParser), so
// plain `printf '{...}' | rtpool_serve --stdin` sessions work.
//
// Submission:
//
//   {"id": "r17",                     // echoed back verbatim (optional)
//    "analyzer": "global-limited",    // optional; service default otherwise
//    "wcet_scale": 1.0,               // optional; must be > 0
//    "certify": true,                 // optional; embed + check certificate
//    "taskset": "taskset cores=8\ntask ...\n"}   // required .taskset text
//
// Control:
//
//   {"cmd": "stats"}
//   {"cmd": "shutdown"}
//   {"cmd": "reload", "analyzer"?: ..., "workers"?: N, "cache"?: N}
//                                  // any other member is a ProtocolError
//
// Verdict response (the "report" member is byte-identical to
// `rtpool_cli --format=json --analyzer=<a>` on the same .taskset — the
// service renders through the same lint::render_json):
//
//   {"tool": "rtpool-serve", "id": "r17", "ok": true,
//    "schedulable": true, "analyzer": "global-limited",
//    "path": "cold" | "memo",              // "memo": the verdict of an
//                                          // earlier byte-identical request
//    "config_version": 1,
//    "report": {...},                      // lint::render_json(Report, ts)
//    "certificate": {...},                 // when certify (lint::render_json)
//    "certificate_ok": true,               // independent checker verdict
//    "claims_checked": 34}
//
// Errors: {"tool": "rtpool-serve", "id": ..., "ok": false, "error": "..."}.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/task_set.h"
#include "util/json.h"

namespace rtpool::serve {

/// Thrown on a structurally invalid request document. The server answers
/// with an error response instead of dropping the connection.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what) : std::runtime_error(what) {}
};

/// One decoded request document.
struct Request {
  enum class Kind { kSubmit, kStats, kReload, kShutdown };

  Kind kind = Kind::kSubmit;
  std::string id;  ///< Echoed into the response ("" allowed).

  // kSubmit:
  std::string analyzer;      ///< "" = use the service's current default.
  double wcet_scale = 1.0;   ///< Must be > 0.
  bool certify = false;      ///< Embed + independently check the certificate.
  std::string taskset_text;  ///< .taskset document (model::read_task_set).

  // kReload overrides (absent member = keep the current value):
  std::optional<std::string> reload_analyzer;
  std::optional<std::size_t> reload_workers;
  std::optional<std::size_t> reload_cache;
};

/// Decode a parsed JSON document into a Request. Throws ProtocolError on a
/// non-object root, an unknown "cmd", missing "taskset", a reload member
/// the service has no setting for, or out-of-domain field values.
Request decode_request(const util::JsonValue& doc);

/// Content fingerprints of a task set (FNV-1a 64-bit over the structural
/// fields — graph shape, WCET bit patterns, types, period/deadline/priority).
///
/// `set` hashes the whole set and `task[i]` task i alone. `family` groups
/// "the same system under mutation": core count plus the sorted task-name
/// multiset, so WCET-edited resubmissions keep their family. The service
/// does not call fingerprint(): it neither routes nor looks up verdicts by
/// these hashes. The benchmark's serve workloads use them to build and time
/// their request mix.
struct TaskSetFingerprint {
  std::uint64_t set = 0;
  std::uint64_t family = 0;
  std::vector<std::uint64_t> task;
};

TaskSetFingerprint fingerprint(const model::TaskSet& ts);

/// FNV-1a helpers exposed for the service's composite cache keys.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  return fnv1a(h, s.data(), s.size());
}

std::uint64_t fnv1a(std::uint64_t h, double v);
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v);

/// Render the error response document.
std::string encode_error(const std::string& id, const std::string& error);

/// Extract the raw bytes of a top-level `"key": <value>` member from a
/// compact JSON object (string/escape-aware brace matching), "" when
/// absent. Lets clients and the bench diff the embedded "report" exactly
/// as the service rendered it, never re-serialized.
std::string extract_member(const std::string& doc, const std::string& key);

}  // namespace rtpool::serve
