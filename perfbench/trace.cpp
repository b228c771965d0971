#include "trace.h"

#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "util/json.h"

namespace perfbench {

namespace {
thread_local void* tls_buffer = nullptr;  // this thread's ThreadBuffer
}  // namespace

SpanTotals total_of(const std::map<std::string, SpanTotals>& totals,
                    const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? SpanTotals{} : it->second;
}

void print_self_times(const std::map<std::string, SpanTotals>& totals) {
  std::printf("self time per span (s): ");
  for (const auto& [name, t] : totals)
    std::printf("%s=%.4f/%llu ", name.c_str(), t.self_s,
                static_cast<unsigned long long>(t.count));
  std::printf("\n");
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : origin_(Clock::now()) {}

std::int64_t Tracer::to_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
}

std::int64_t Tracer::now_ns() const { return to_ns(Clock::now()); }

Tracer::ThreadBuffer& Tracer::local() {
  if (tls_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size());
    tls_buffer = buffers_.back().get();
  }
  return *static_cast<ThreadBuffer*>(tls_buffer);
}

Tracer::Scope::Scope(const char* name, std::uint64_t key) : name_(name), key_(key) {
  Tracer& tracer = instance();
  if (!tracer.enabled_) return;
  ThreadBuffer& buf = tracer.local();
  id_ = (static_cast<std::uint64_t>(buf.thread) << 40) | ++buf.next_id;
  parent_ = buf.open.empty() ? 0 : buf.open.back();
  buf.open.push_back(id_);
  start_ns_ = tracer.now_ns();
}

Tracer::Scope::~Scope() {
  if (id_ == 0) return;
  Tracer& tracer = instance();
  const std::int64_t end = tracer.now_ns();
  ThreadBuffer& buf = tracer.local();
  buf.open.pop_back();
  Span span;
  span.name = name_;
  span.start_ns = start_ns_;
  span.end_ns = end;
  span.id = id_;
  span.parent = parent_;
  span.thread = buf.thread;
  span.key = key_;
  span.value = value_;
  buf.spans.push_back(span);
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t key, double value) {
  if (!enabled_) return;
  ThreadBuffer& buf = local();
  Span span;
  span.name = name;
  span.start_ns = to_ns(start);
  span.end_ns = to_ns(end);
  span.id = (static_cast<std::uint64_t>(buf.thread) << 40) | ++buf.next_id;
  span.thread = buf.thread;
  span.key = key;
  span.value = value;
  buf.spans.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& buf : buffers_)
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
  return all;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buf : buffers_) buf->spans.clear();
}

std::map<std::string, SpanTotals> Tracer::totals(const std::vector<Span>& spans) {
  // Child time per parent id: scopes nest strictly on one thread, so the
  // children of a span cover disjoint parts of its interval.
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const Span& s : spans)
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans) {
    SpanTotals& t = out[s.name];
    const auto covered = child_ns.find(s.id);
    const std::int64_t self =
        (s.end_ns - s.start_ns) - (covered == child_ns.end() ? 0 : covered->second);
    ++t.count;
    t.total_s += s.seconds();
    t.self_s += static_cast<double>(self) * 1e-9;
    t.value += s.value;
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path,
                                const std::vector<Span>& spans,
                                const std::string& stamp) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace '" + path + "'");
  rtpool::util::JsonWriter w(out);
  w.begin_object();
  w.key("metadata").raw_value(stamp);
  w.kv("displayTimeUnit", "ns");
  w.key("traceEvents").begin_array();
  for (const Span& s : spans) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("ph", "X");
    w.kv("pid", 1);
    w.kv("tid", static_cast<std::uint64_t>(s.thread));
    w.kv("ts", static_cast<double>(s.start_ns) * 1e-3);
    w.kv("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    w.key("args").begin_object();
    w.kv("key", s.key);
    w.kv("id", s.id);
    w.kv("parent", s.parent);
    if (s.value != 0.0) w.kv("value", s.value);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

}  // namespace perfbench
