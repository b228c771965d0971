// Shared plumbing of the benchmark binary: options, the result line, output
// checks, set-up and pass repetition, the end-to-end metrics and the build
// stamp.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string references;  ///< JSON file of recorded per-seed digests.
  std::string out_dir;     ///< Run outputs (gap CSV, Chrome traces).
  int threads = 1;         ///< Worker threads and client cap: nproc.
};

/// A failed output check. main() prints the message and exits non-zero
/// without a result line.
class CheckFailed : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

/// What one run reports: the contract's result line plus human-readable
/// notes printed above it.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

/// Median of a non-empty sample.
inline double median(std::vector<double> values) {
  return rtpool::util::percentile(std::move(values), 50);
}

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Hardware threads of this host (>= 1).
int host_nproc();

/// nproc, compiler and build type of this binary, as a JSON object.
std::string stamp_json();

/// 64-bit FNV-1a over `text`, as 16 hex digits.
std::string digest(const std::string& text);

/// Check a run's digest against the one the references file records for
/// its workload and seed, when there is one, and print it so new seeds can
/// be recorded from the output.
void check_digest(const Options& options, const std::string& actual);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;

/// Run `setup(rep)` for rep = 0..kSetups-1, timing each, and return the
/// median wall time. Each call must rebuild the workload's inputs from
/// the start; the caller keeps the last ones.
double timed_setup(const std::function<void(int rep)>& setup);

/// Run `pass` (which returns its own wall time in seconds) at least once,
/// and again while another pass of median length still ends within
/// `seconds`. Returns the pass wall times.
std::vector<double> repeat_passes(double seconds, const std::function<double()>& pass);

/// Add every end-to-end metric: throughput, latency p50 and p99, set-up time
/// and the peak resident memory so far.
void add_end_to_end(Outcome& outcome, double per_s, double latency_p50_ms,
                    double latency_p99_ms, double setup_s);

/// The end-to-end metrics of a workload timed in whole passes of
/// `units_per_pass` units each: units/s is the median over passes, latency
/// the pass wall time. Prints a summary line headed by `label`.
void report_passes(Outcome& outcome, const char* label,
                   const std::vector<double>& walls, double units_per_pass,
                   double setup_s);

/// Every per-layer metric of the traced run, in print order. A workload sets
/// the ones its layers exercise; the others print as 0 (the layer did no
/// work), so every traced run prints the same names.
class LayerMetrics {
 public:
  LayerMetrics();
  void set(const std::string& name, double value);
  void add_to(Outcome& outcome) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Record the tracing overhead: wall time of the same work traced minus
/// untraced, and the number of spans.
void set_trace_overhead(LayerMetrics& layers, double untraced_s,
                        double traced_s, std::size_t spans);

/// Per-workload entry points (see the matching *_workload.cpp).
Outcome run_corpus(const Options& options);
Outcome run_fig2(const Options& options);
Outcome run_serve(const Options& options, bool resubmit);

}  // namespace perfbench
