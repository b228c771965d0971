#include "lint/render.h"

#include <cmath>
#include <sstream>

#include "util/json.h"

namespace rtpool::lint {

void render_text(const LintReport& report, std::ostream& os) {
  for (const Diagnostic& d : report.diagnostics) {
    os << to_string(d.severity) << "[" << d.rule_id << "]";
    if (!d.task.empty()) {
      os << " task '" << d.task << "'";
      if (d.node.has_value()) os << " node " << *d.node;
    }
    os << ": " << d.message << "\n";
    if (!d.fix_hint.empty()) os << "    hint: " << d.fix_hint << "\n";
  }
  os << report.error_count() << (report.error_count() == 1 ? " error, " : " errors, ")
     << report.warning_count()
     << (report.warning_count() == 1 ? " warning, " : " warnings, ")
     << report.note_count() << (report.note_count() == 1 ? " note" : " notes")
     << "\n";
}

void render_json(const LintReport& report, std::ostream& os) {
  util::JsonWriter w(os);
  w.begin_object();
  w.kv("tool", "rtpool-lint");
  w.kv("version", 1);
  w.key("diagnostics").begin_array();
  for (const Diagnostic& d : report.diagnostics) {
    w.begin_object();
    w.kv("rule_id", d.rule_id);
    w.kv("severity", to_string(d.severity));
    w.kv("task", d.task);
    w.key("node");
    if (d.node.has_value())
      w.value(static_cast<std::uint64_t>(*d.node));
    else
      w.null();
    w.kv("message", d.message);
    w.kv("fix_hint", d.fix_hint);
    w.end_object();
  }
  w.end_array();
  w.key("counts").begin_object();
  w.kv("errors", static_cast<std::uint64_t>(report.error_count()));
  w.kv("warnings", static_cast<std::uint64_t>(report.warning_count()));
  w.kv("notes", static_cast<std::uint64_t>(report.note_count()));
  w.end_object();
  w.end_object();
  os << "\n";
}

std::string render_text(const LintReport& report) {
  std::ostringstream os;
  render_text(report, os);
  return os.str();
}

std::string render_json(const LintReport& report) {
  std::ostringstream os;
  render_json(report, os);
  return os.str();
}

void render_text(const analysis::Report& report, const model::TaskSet& ts,
                 std::ostream& os) {
  os << "analyzer '" << report.analyzer << "': "
     << (report.schedulable ? "schedulable" : "unschedulable");
  if (report.limiting_task.has_value()) {
    os << " (limiting task '" << ts.task(*report.limiting_task).name()
       << "', R/D = " << report.limiting_ratio << ")";
  }
  if (report.dedicated_cores > 0)
    os << " [" << report.dedicated_cores << " dedicated cores]";
  os << "\n";
  for (std::size_t i = 0; i < report.per_task.size(); ++i) {
    const analysis::TaskVerdict& tv = report.per_task[i];
    os << "  " << ts.task(i).name() << ": " << (tv.schedulable ? "OK  " : "MISS")
       << "  R = " << tv.response_time << ", D = " << ts.task(i).deadline();
    if (tv.concurrency_bound != 0) os << " (lbar = " << tv.concurrency_bound << ")";
    if (!tv.deadlock_free) os << " (deadlock risk: Eq.3 violated)";
    if (tv.dedicated) os << " (dedicated, " << tv.dedicated_cores << " cores)";
    os << "\n";
  }
  for (const analysis::AnalyzerNote& n : report.notes) {
    os << "  note[" << n.code << "]";
    if (!n.task.empty()) os << " task '" << n.task << "'";
    os << ": " << n.message << "\n";
  }
}

void render_json(const analysis::Report& report, const model::TaskSet& ts,
                 std::ostream& os) {
  util::JsonWriter w(os);
  w.begin_object();
  w.kv("tool", "rtpool-analysis");
  w.kv("version", 1);
  w.kv("analyzer", report.analyzer);
  w.kv("schedulable", report.schedulable);
  w.key("limiting_task");
  if (report.limiting_task.has_value())
    w.value(ts.task(*report.limiting_task).name());
  else
    w.null();
  w.kv("limiting_ratio", report.limiting_ratio);
  w.kv("dedicated_cores", static_cast<std::uint64_t>(report.dedicated_cores));
  w.key("per_task").begin_array();
  for (std::size_t i = 0; i < report.per_task.size(); ++i) {
    const analysis::TaskVerdict& tv = report.per_task[i];
    w.begin_object();
    w.kv("task", ts.task(i).name());
    w.kv("schedulable", tv.schedulable);
    w.key("response_time");
    // JSON has no Infinity literal; an unbounded response renders as null.
    if (std::isfinite(tv.response_time))
      w.value(tv.response_time);
    else
      w.null();
    w.kv("deadline", ts.task(i).deadline());
    if (tv.concurrency_bound != 0)
      w.kv("concurrency_bound", static_cast<std::int64_t>(tv.concurrency_bound));
    if (!tv.deadlock_free) w.kv("deadlock_free", false);
    if (tv.dedicated)
      w.kv("dedicated_cores", static_cast<std::uint64_t>(tv.dedicated_cores));
    w.end_object();
  }
  w.end_array();
  w.key("notes").begin_array();
  for (const analysis::AnalyzerNote& n : report.notes) {
    w.begin_object();
    w.kv("code", n.code);
    w.kv("task", n.task);
    w.kv("message", n.message);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

std::string render_text(const analysis::Report& report, const model::TaskSet& ts) {
  std::ostringstream os;
  render_text(report, ts, os);
  return os.str();
}

std::string render_json(const analysis::Report& report, const model::TaskSet& ts) {
  std::ostringstream os;
  render_json(report, ts, os);
  return os.str();
}

// ---- certificate renderers ----

namespace {

namespace cert = analysis::cert;

std::string task_label(const model::TaskSet& ts, std::size_t index) {
  if (index < ts.size()) return ts.task(index).name();
  return "task#" + std::to_string(index);
}

void write_time_or_null(util::JsonWriter& w, util::Time t) {
  if (std::isfinite(t))
    w.value(t);
  else
    w.null();
}

void write_index_or_null(util::JsonWriter& w, std::size_t index) {
  if (index == cert::kNoIndex)
    w.null();
  else
    w.value(static_cast<std::uint64_t>(index));
}

void write_witness(util::JsonWriter& w, const cert::ConcurrencyWitness& cw) {
  w.begin_object();
  w.kv("bbar", static_cast<std::uint64_t>(cw.bbar));
  w.kv("antichain", cw.antichain);
  w.key("pivot");
  write_index_or_null(w, cw.pivot);
  w.key("forks").begin_array();
  for (model::NodeId fork : cw.forks) w.value(static_cast<std::uint64_t>(fork));
  w.end_array();
  w.end_object();
}

void write_global(util::JsonWriter& w, const cert::GlobalCert& g,
                  const model::TaskSet& ts) {
  w.begin_object();
  w.kv("limited", g.limited);
  w.kv("antichain_bound", g.antichain_bound);
  w.kv("carry_in", g.carry_in);
  w.kv("max_iterations", g.max_iterations);
  w.key("per_task").begin_array();
  for (std::size_t i = 0; i < g.per_task.size(); ++i) {
    const cert::GlobalTaskCert& tc = g.per_task[i];
    w.begin_object();
    w.kv("task", task_label(ts, i));
    w.kv("claim", cert::to_string(tc.claim));
    w.kv("schedulable", tc.schedulable);
    w.key("response");
    write_time_or_null(w, tc.response);
    w.kv("denominator", tc.denominator);
    w.kv("critical_path", tc.critical_path);
    w.kv("self_interference", tc.self_interference);
    w.key("hp_interference").begin_array();
    for (util::Time interference : tc.hp_interference) w.value(interference);
    w.end_array();
    w.key("concurrency");
    if (tc.concurrency.has_value())
      write_witness(w, *tc.concurrency);
    else
      w.null();
    w.key("blocker");
    write_index_or_null(w, tc.blocker);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_partitioned(util::JsonWriter& w, const cert::PartitionedCert& p,
                       const model::TaskSet& ts) {
  w.begin_object();
  w.kv("split", p.split);
  w.kv("require_deadlock_free", p.require_deadlock_free);
  w.kv("max_iterations", p.max_iterations);
  w.kv("partition_failure", p.partition_failure);
  w.key("thread_of").begin_array();
  for (const std::vector<std::uint32_t>& threads : p.thread_of) {
    w.begin_array();
    for (std::uint32_t thread : threads)
      w.value(static_cast<std::uint64_t>(thread));
    w.end_array();
  }
  w.end_array();
  w.key("core_load").begin_array();
  for (double load : p.core_load) w.value(load);
  w.end_array();
  w.key("per_task").begin_array();
  for (std::size_t i = 0; i < p.per_task.size(); ++i) {
    const cert::PartitionedTaskCert& tc = p.per_task[i];
    w.begin_object();
    w.kv("task", task_label(ts, i));
    w.kv("claim", cert::to_string(tc.claim));
    w.kv("schedulable", tc.schedulable);
    w.kv("deadlock_free", tc.deadlock_free);
    w.key("response");
    write_time_or_null(w, tc.response);
    w.kv("holistic_base", tc.holistic_base);
    w.key("segments").begin_array();
    for (const cert::SegmentCert& seg : tc.segments) {
      w.begin_object();
      w.kv("blocking", seg.blocking);
      w.kv("response", seg.response);
      w.end_object();
    }
    w.end_array();
    w.key("miss_node");
    write_index_or_null(w, tc.miss_node);
    w.key("miss_value");
    write_time_or_null(w, tc.miss_value);
    w.key("concurrency");
    if (tc.concurrency.has_value())
      write_witness(w, *tc.concurrency);
    else
      w.null();
    w.key("eq3");
    if (tc.eq3.has_value()) {
      w.begin_object();
      w.kv("bc_node", static_cast<std::uint64_t>(tc.eq3->bc_node));
      w.kv("fork", static_cast<std::uint64_t>(tc.eq3->fork));
      w.kv("thread", static_cast<std::uint64_t>(tc.eq3->thread));
      w.end_object();
    } else {
      w.null();
    }
    w.key("blocker");
    write_index_or_null(w, tc.blocker);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_federated(util::JsonWriter& w, const cert::FederatedCert& f,
                     const model::TaskSet& ts) {
  w.begin_object();
  w.kv("limited", f.limited);
  w.kv("dedicated_cores", static_cast<std::uint64_t>(f.dedicated_cores));
  w.key("shared_order").begin_array();
  for (const std::vector<std::size_t>& core : f.shared_order) {
    w.begin_array();
    for (std::size_t task : core) w.value(static_cast<std::uint64_t>(task));
    w.end_array();
  }
  w.end_array();
  w.key("per_task").begin_array();
  for (std::size_t i = 0; i < f.per_task.size(); ++i) {
    const cert::FederatedTaskCert& tc = f.per_task[i];
    w.begin_object();
    w.kv("task", task_label(ts, i));
    w.kv("claim", cert::to_string(tc.claim));
    w.kv("schedulable", tc.schedulable);
    w.kv("dedicated", tc.dedicated);
    w.kv("cores", static_cast<std::uint64_t>(tc.cores));
    w.kv("bbar", static_cast<std::uint64_t>(tc.bbar));
    w.key("concurrency");
    if (tc.concurrency.has_value())
      write_witness(w, *tc.concurrency);
    else
      w.null();
    w.key("core");
    write_index_or_null(w, tc.core);
    w.key("response");
    write_time_or_null(w, tc.response);
    w.key("blocker");
    write_index_or_null(w, tc.blocker);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

void render_json(const cert::Certificate& certificate, const model::TaskSet& ts,
                 std::ostream& os) {
  util::JsonWriter w(os);
  w.begin_object();
  w.kv("tool", "rtpool-certificate");
  w.kv("version", 1);
  w.kv("analyzer", certificate.analyzer);
  w.kv("family", cert::to_string(certificate.family));
  w.kv("wcet_scale", certificate.wcet_scale);
  w.kv("schedulable", certificate.schedulable);
  if (certificate.global.has_value()) {
    w.key("global");
    write_global(w, *certificate.global, ts);
  }
  if (certificate.partitioned.has_value()) {
    w.key("partitioned");
    write_partitioned(w, *certificate.partitioned, ts);
  }
  if (certificate.federated.has_value()) {
    w.key("federated");
    write_federated(w, *certificate.federated, ts);
  }
  w.end_object();
  os << "\n";
}

std::string render_json(const cert::Certificate& certificate,
                        const model::TaskSet& ts) {
  std::ostringstream os;
  render_json(certificate, ts, os);
  return os.str();
}

}  // namespace rtpool::lint
