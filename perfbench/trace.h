// In-memory spans for the traced run. The benchmark wraps its calls into the
// library's layers (gen, model, analysis, lint, sim, exp, corpus, serve) in
// spans; nothing inside the library is instrumented.
//
// A span records its name, start, end, parent span, thread and a key (the
// seed, attempt or request id it worked on). Spans stay in per-thread
// buffers until the run ends, when they are merged, summed per layer and
// written as Chrome trace-event JSON (opens in Perfetto). While tracing is
// off a Scope costs one branch.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  const char* name = "";   ///< Static string: "<layer>.<call>".
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span.
  std::uint32_t thread = 0;
  std::uint64_t key = 0;
  double value = 0.0;        ///< Optional payload (e.g. simulated jobs).

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Per-name sums over the merged spans.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;  ///< Summed durations.
  double self_s = 0.0;   ///< Summed durations minus time covered by children.
  double value = 0.0;    ///< Summed payloads.
};

/// The totals of `name`, zero when no span has it.
SpanTotals total_of(const std::map<std::string, SpanTotals>& totals,
                    const std::string& name);

/// Print every name's self time (s) and span count on one line.
void print_self_times(const std::map<std::string, SpanTotals>& totals);

class Tracer {
 public:
  static Tracer& instance();

  /// Call only between parallel phases, while no other thread records: the
  /// pool's dispatch and thread creation order the flag with its readers.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// RAII span on the calling thread; nested scopes become children.
  class Scope {
   public:
    Scope(const char* name, std::uint64_t key);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_value(double value) { value_ = value; }

   private:
    const char* name_;
    std::uint64_t key_;
    double value_ = 0.0;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::int64_t start_ns_ = 0;
  };

  /// Record a finished span whose start and end were taken elsewhere (a
  /// request that ends in a callback on another thread). Root span.
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t key, double value = 0.0);

  /// All spans recorded so far, merged across threads. Call only while no
  /// other thread records.
  std::vector<Span> spans() const;
  void clear();

  static std::map<std::string, SpanTotals> totals(const std::vector<Span>& spans);

  /// Chrome trace-event JSON with `stamp` as metadata.
  static void write_chrome_trace(const std::string& path,
                                 const std::vector<Span>& spans,
                                 const std::string& stamp);

 private:
  struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::uint64_t next_id = 0;
    std::vector<std::uint64_t> open;
    std::vector<Span> spans;
  };

  Tracer();
  ThreadBuffer& local();
  std::int64_t now_ns() const;
  std::int64_t to_ns(Clock::time_point t) const;

  bool enabled_ = false;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mutex_
};

}  // namespace perfbench
