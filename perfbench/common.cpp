#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "gen/scenario_space.h"
#include "util/json.h"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int host_nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string stamp_json() {
  std::ostringstream os;
  rtpool::util::JsonWriter w(os);
  w.begin_object();
  w.kv("nproc", host_nproc());
  w.kv("compiler", PERFBENCH_COMPILER);
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.kv("ndebug", true);
  w.end_object();
  return os.str();
}

std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

namespace {

/// The digest recorded for `workload` at `seed`, or "" when there is none.
std::string recorded_digest(const std::string& references_path,
                            const std::string& workload, std::uint64_t seed) {
  std::ifstream in(references_path);
  if (!in) throw std::runtime_error("cannot read references '" + references_path + "'");
  std::stringstream text;
  text << in.rdbuf();
  const rtpool::util::JsonValue doc = rtpool::util::parse_json(text.str());
  if (!doc.contains(workload)) return "";
  const rtpool::util::JsonValue& per_seed = doc.at(workload);
  const std::string key = std::to_string(seed);
  return per_seed.contains(key) ? per_seed.at(key).as_string() : "";
}

}  // namespace

void check_digest(const Options& options, const std::string& actual) {
  const std::string expected =
      recorded_digest(options.references, options.workload, options.seed);
  std::printf("reference %s seed %llu digest %s (%s)\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), actual.c_str(),
              expected.empty() ? "no recorded reference for this seed"
                               : "recorded");
  require(expected.empty() || expected == actual,
          options.workload + ": output digest " + actual +
              " differs from the reference " + expected + " recorded for seed " +
              std::to_string(options.seed));
}

double timed_setup(const std::function<void(int rep)>& setup) {
  std::vector<double> walls;
  for (int rep = 0; rep < kSetups; ++rep) {
    const Clock::time_point t0 = Clock::now();
    setup(rep);
    walls.push_back(seconds_since(t0));
  }
  return median(walls);
}

std::vector<double> repeat_passes(double seconds, const std::function<double()>& pass) {
  std::vector<double> walls;
  const Clock::time_point start = Clock::now();
  do {
    walls.push_back(pass());
  } while (seconds_since(start) + median(walls) <= seconds);
  return walls;
}

void add_end_to_end(Outcome& outcome, double per_s, double latency_p50_ms,
                    double latency_p99_ms, double setup_s) {
  outcome.add("sets_per_s", per_s, "1/s");
  outcome.add("latency_p50_ms", latency_p50_ms, "ms");
  outcome.add("latency_p99_ms", latency_p99_ms, "ms");
  outcome.add("setup_s", setup_s, "s");
  outcome.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void report_passes(Outcome& outcome, const char* label,
                   const std::vector<double>& walls, double units_per_pass,
                   double setup_s) {
  std::vector<double> rates, wall_ms;
  for (const double w : walls) {
    rates.push_back(units_per_pass / w);
    wall_ms.push_back(w * 1e3);
  }
  const double p50 = rtpool::util::percentile(wall_ms, 50);
  std::printf("%s: %zu passes of %.0f, %.2f per s, pass latency p50 %.1f ms "
              "over %zu samples\n",
              label, walls.size(), units_per_pass, median(rates), p50,
              wall_ms.size());
  add_end_to_end(outcome, median(rates), p50,
                 rtpool::util::percentile(wall_ms, 99), setup_s);
}

LayerMetrics::LayerMetrics() {
  const auto add = [&](const std::string& name, const char* unit) {
    metrics_.push_back({name, {0.0, unit}});
  };
  add("sim.busy_s", "s");
  add("sim.global_busy_s", "s");
  add("sim.partitioned_busy_s", "s");
  add("sim.runs", "count");
  add("sim.jobs", "count");
  add("sim.ns_per_job", "ns");
  add("sim.outcome.ok", "count");
  add("sim.outcome.deadline_miss", "count");
  add("sim.outcome.deadlock", "count");
  add("corpus.set_ms_p50", "ms");
  add("corpus.set_ms_p99", "ms");
  add("corpus.set_ms_max", "ms");
  const rtpool::gen::ScenarioSpace space =
      rtpool::gen::ScenarioSpace::corpus_default();
  for (std::size_t i = 0; i < space.size(); ++i)
    add("corpus.scenario_share." + space.scenario(i).name, "share");
  add("exp.idle_share", "share");
  add("exp.accept_ratio", "share");
  add("exp.useful_eval_ratio", "share");
  add("gen.busy_s", "s");
  add("gen.calls", "count");
  add("gen.errors", "count");
  add("analysis.analyze_busy_s", "s");
  add("analysis.analyze_calls", "count");
  add("analysis.partition_busy_s", "s");
  add("analysis.partition_failures", "count");
  add("analysis.cert_busy_s", "s");
  add("analysis.certified", "count");
  add("model.parse_us_per_req", "us");
  add("model.parse_mb_per_s", "MB/s");
  add("model.serialize_us_per_req", "us");
  add("serve.decode_us_per_req", "us");
  add("serve.fingerprint_us_per_req", "us");
  add("analysis.analyze_us_per_req", "us");
  add("lint.render_us_per_req", "us");
  add("serve.service_p50_ms", "ms");
  add("serve.service_p99_ms", "ms");
  add("serve.transport_p50_ms", "ms");
  add("serve.queue_wait_p50_ms", "ms");
  add("serve.path_share.fast", "share");
  add("serve.path_share.memo", "share");
  add("serve.path_share.incremental", "share");
  add("serve.path_share.cold", "share");
  add("serve.latency_p50_ms.cold", "ms");
  add("serve.latency_p50_ms.fast", "ms");
  add("serve.latency_p50_ms.memo", "ms");
  add("serve.latency_p50_ms.incremental", "ms");
  add("serve.incremental_yield", "share");
  add("serve.mean_batch", "count");
  add("serve.family_collision_share", "share");
  add("trace.overhead_s", "s");
  add("trace.spans", "count");
}

void LayerMetrics::set(const std::string& name, double value) {
  for (auto& [key, metric] : metrics_) {
    if (key == name) {
      metric.first = value;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

void LayerMetrics::add_to(Outcome& outcome) const {
  for (const auto& [name, metric] : metrics_)
    outcome.add(name, metric.first, metric.second);
}

void set_trace_overhead(LayerMetrics& layers, double untraced_s,
                        double traced_s, std::size_t spans) {
  std::printf("trace overhead: traced %.4f s - untraced %.4f s = %+.4f s "
              "(%zu spans)\n",
              traced_s, untraced_s, traced_s - untraced_s, spans);
  layers.set("trace.overhead_s", traced_s - untraced_s);
  layers.set("trace.spans", static_cast<double>(spans));
}

}  // namespace perfbench
