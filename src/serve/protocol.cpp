#include "serve/protocol.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "model/dag_task.h"

namespace rtpool::serve {

std::uint64_t fnv1a(std::uint64_t h, double v) {
  // Hash the bit pattern so 0.0 / -0.0 and every NaN payload stay distinct
  // inputs — the analyses compare doubles bitwise through their fixed
  // points, so the fingerprint must too.
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return fnv1a(h, &bits, sizeof bits);
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof v);
}

namespace {

std::uint64_t hash_task(const model::DagTask& task) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, task.name());
  h = fnv1a(h, task.period());
  h = fnv1a(h, task.deadline());
  h = fnv1a(h, static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(task.priority())));
  h = fnv1a(h, static_cast<std::uint64_t>(task.node_count()));
  for (model::NodeId v = 0; v < task.node_count(); ++v) {
    h = fnv1a(h, task.wcet(v));
    h = fnv1a(h, static_cast<std::uint64_t>(task.type(v)));
    for (const model::NodeId succ : task.dag().successors(v))
      h = fnv1a(h, static_cast<std::uint64_t>(succ));
    h = fnv1a(h, std::uint64_t{0xffffffffffffffffull});  // adjacency sentinel
  }
  return h;
}

std::size_t require_count(const util::JsonValue& v, const char* field) {
  if (!v.is_number())
    throw ProtocolError(std::string("field '") + field + "' must be a number");
  const double d = v.as_number();
  if (!(d >= 0) || d != std::floor(d) || d > 1e9)
    throw ProtocolError(std::string("field '") + field +
                        "' must be a non-negative integer");
  return static_cast<std::size_t>(d);
}

}  // namespace

TaskSetFingerprint fingerprint(const model::TaskSet& ts) {
  TaskSetFingerprint fp;
  fp.task.reserve(ts.size());
  std::uint64_t set_h = kFnvOffset;
  set_h = fnv1a(set_h, static_cast<std::uint64_t>(ts.core_count()));
  for (const model::DagTask& task : ts.tasks()) {
    fp.task.push_back(hash_task(task));
    set_h = fnv1a(set_h, fp.task.back());
  }
  fp.set = set_h;

  std::vector<const std::string*> names;
  names.reserve(ts.size());
  for (const model::DagTask& task : ts.tasks()) names.push_back(&task.name());
  std::sort(names.begin(), names.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  std::uint64_t fam_h = kFnvOffset;
  fam_h = fnv1a(fam_h, static_cast<std::uint64_t>(ts.core_count()));
  for (const std::string* n : names) {
    fam_h = fnv1a(fam_h, *n);
    fam_h = fnv1a(fam_h, std::uint64_t{0});  // name separator
  }
  fp.family = fam_h;
  return fp;
}

Request decode_request(const util::JsonValue& doc) {
  if (!doc.is_object())
    throw ProtocolError("request must be a JSON object");
  Request req;
  if (doc.contains("id")) {
    const util::JsonValue& id = doc.at("id");
    if (!id.is_string()) throw ProtocolError("field 'id' must be a string");
    req.id = id.as_string();
  }

  if (doc.contains("cmd")) {
    const util::JsonValue& cmd = doc.at("cmd");
    if (!cmd.is_string()) throw ProtocolError("field 'cmd' must be a string");
    const std::string& name = cmd.as_string();
    if (name == "stats") {
      req.kind = Request::Kind::kStats;
    } else if (name == "shutdown") {
      req.kind = Request::Kind::kShutdown;
    } else if (name == "reload") {
      req.kind = Request::Kind::kReload;
      // A member the service has no setting for fails loudly: a silently
      // ignored one would commit a reload that changes nothing.
      for (const auto& member : doc.as_object())
        if (member.first != "cmd" && member.first != "id" &&
            member.first != "analyzer" && member.first != "workers" &&
            member.first != "cache")
          throw ProtocolError("reload has no field '" + member.first + "'");
      if (doc.contains("analyzer")) {
        const util::JsonValue& a = doc.at("analyzer");
        if (!a.is_string())
          throw ProtocolError("field 'analyzer' must be a string");
        req.reload_analyzer = a.as_string();
      }
      if (doc.contains("workers"))
        req.reload_workers = require_count(doc.at("workers"), "workers");
      if (doc.contains("cache"))
        req.reload_cache = require_count(doc.at("cache"), "cache");
      if (req.reload_workers && *req.reload_workers == 0)
        throw ProtocolError("'workers' must be >= 1");
    } else {
      throw ProtocolError("unknown cmd '" + name + "'");
    }
    return req;
  }

  req.kind = Request::Kind::kSubmit;
  if (!doc.contains("taskset"))
    throw ProtocolError("submission is missing the 'taskset' field");
  const util::JsonValue& ts = doc.at("taskset");
  if (!ts.is_string())
    throw ProtocolError("field 'taskset' must be a string (.taskset text)");
  req.taskset_text = ts.as_string();

  if (doc.contains("analyzer")) {
    const util::JsonValue& a = doc.at("analyzer");
    if (!a.is_string()) throw ProtocolError("field 'analyzer' must be a string");
    req.analyzer = a.as_string();
  }
  if (doc.contains("wcet_scale")) {
    const util::JsonValue& s = doc.at("wcet_scale");
    if (!s.is_number())
      throw ProtocolError("field 'wcet_scale' must be a number");
    req.wcet_scale = s.as_number();
    if (!(req.wcet_scale > 0) || !std::isfinite(req.wcet_scale))
      throw ProtocolError("'wcet_scale' must be finite and > 0");
  }
  if (doc.contains("certify")) {
    const util::JsonValue& c = doc.at("certify");
    if (!c.is_bool()) throw ProtocolError("field 'certify' must be a boolean");
    req.certify = c.as_bool();
  }
  return req;
}

std::string encode_error(const std::string& id, const std::string& error) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.kv("tool", "rtpool-serve");
  if (!id.empty()) w.kv("id", id);
  w.kv("ok", false);
  w.kv("error", error);
  w.end_object();
  return os.str();
}

std::string extract_member(const std::string& doc, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  // Scan outside strings only, at object depth 1.
  int depth = 0;
  bool in_string = false, escape = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char c = doc[i];
    if (in_string) {
      if (escape) escape = false;
      else if (c == '\\') escape = true;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') {
      if (depth == 1 && doc.compare(i, needle.size(), needle) == 0) {
        const std::size_t start = i + needle.size();
        // Value: either a container (brace-match) or a scalar/string.
        int vdepth = 0;
        bool vstr = false, vesc = false;
        for (std::size_t j = start; j < doc.size(); ++j) {
          const char v = doc[j];
          if (vstr) {
            if (vesc) vesc = false;
            else if (v == '\\') vesc = true;
            else if (v == '"') {
              vstr = false;
              if (vdepth == 0) return doc.substr(start, j + 1 - start);
            }
            continue;
          }
          if (v == '"') { vstr = true; continue; }
          if (v == '{' || v == '[') ++vdepth;
          else if (v == '}' || v == ']') {
            if (vdepth == 0) return doc.substr(start, j - start);  // scalar
            if (--vdepth == 0) return doc.substr(start, j + 1 - start);
          } else if (vdepth == 0 && v == ',') {
            return doc.substr(start, j - start);  // scalar value
          }
        }
        return doc.substr(start);
      }
      in_string = true;
      continue;
    }
    if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
  }
  return "";
}

}  // namespace rtpool::serve
