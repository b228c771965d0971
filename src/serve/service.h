// The admission-service core behind rtpool-serve: one job queue, one
// verdict memo, and hot reconfiguration that never drops an in-flight
// request.
//
//        submit() [connection threads: fast memo, else parse]
//                 │  one job per parsed submission
//                 ▼
//   ┌ one FIFO (exec::ThreadPool, kShared) ┐ ──▶ any free worker
//   └──────────────────────────────────────┘     (thread_local RtaContext)
//
// PERFORMANCE MODEL. The queue is the paper's work-conserving pool (global
// intra-pool scheduling, Section 2): one logical FIFO that any free worker
// serves, so no request waits while a worker idles. A job analyzes its
// request on its worker's thread_local arena-backed analysis::RtaContext,
// rebound (reset) per request, so arenas are reused, not reallocated, and
// no context is ever shared between threads. Each request is answered one
// of two ways:
//
//   * "memo": a byte-identical resubmission is answered ON THE CONNECTION
//     THREAD from a text-keyed fast memo, before the .taskset is even
//     parsed — repeat verdicts are dominated by document parsing and
//     DagTask cache construction, not analysis; hits byte-compare the
//     stored request identity, so a hash collision costs a miss, never a
//     wrong answer;
//   * "cold": everything else is parsed on the connection thread, then
//     analyzed by a pool job.
//
// Nothing else is reused. Re-serialized and WCET-edited resubmissions run
// cold: a post-parse content memo's equality witness (a full
// re-serialization) cost more than the analysis it skipped, on every
// parsed request (EXPERIMENTS.md, "One verdict cache").
//
// Every response's "report" member is rendered through the same
// lint::render_json as rtpool_cli --format=json, so service verdicts are
// byte-identical to the CLI on the same input (asserted by the benchmark's
// serve workloads, tests/test_serve.cpp and the serve-smoke CI job).
//
// HOT RECONFIGURATION. The configuration lives in an immutable epoch held
// by shared_ptr. reload() validates the next ServiceConfig, swaps the epoch
// and applies the worker delta directly to the pool
// (ThreadPool::add_workers / retire_workers; a resize the pool refuses keeps
// the old pool size). A job reads the epoch current when it starts, so a
// job already running finishes under its epoch and a queued one runs under
// the new one. Queued jobs stay in the pool's one queue throughout — a
// retiring worker finishes its current job and leaves the rest to the
// survivors — so nothing is paused, re-routed or dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "analysis/analyzer.h"
#include "exec/thread_pool.h"
#include "model/task_set.h"
#include "serve/protocol.h"
#include "util/thread_annotations.h"

namespace rtpool::serve {

struct ServiceConfig {
  /// Upper bound on `workers`, checked at construction and on every reload
  /// before anything is started: a reload request cannot make the service
  /// spawn unbounded threads.
  static constexpr std::size_t kMaxWorkers = 1024;

  std::string analyzer = "global-limited";  ///< Default registry analyzer.
  std::size_t workers = 4;  ///< Pool workers, each analyzing one request.
  /// Fast-memo entries. 0 disables the memo (every request runs cold — the
  /// naive baseline the bench compares against).
  std::size_t cache = 256;
};

/// Monotonic service counters (stats snapshot; all totals since start).
struct ServiceStats {
  std::uint64_t received = 0;      ///< Submissions accepted into a queue.
  std::uint64_t completed = 0;     ///< Verdict responses delivered.
  std::uint64_t errors = 0;        ///< Error responses delivered.
  /// Answered from the fast memo: always equal to fast_hits. Both remain
  /// because existing stats readers (the benchmark among them) read both.
  std::uint64_t memo_hits = 0;
  std::uint64_t fast_hits = 0;     ///< Pre-parse text-memo hits.
  /// Always 0: no request is answered incrementally. Kept for the same
  /// stats readers.
  std::uint64_t incremental = 0;
  std::uint64_t cold = 0;          ///< Full cold analyses.
  std::uint64_t batches = 0;       ///< Pool jobs: one per queued submission.
  std::uint64_t reloads = 0;       ///< Committed reconfigurations.
  std::uint64_t certified = 0;     ///< Certificates independently checked.
  std::uint64_t cert_failures = 0; ///< Certificates the checker rejected.
};

/// See file header. Thread-safe: submit()/control() may be called from any
/// number of connection threads; responses are delivered via the submit
/// callback ON A POOL WORKER (or inline on the submitting thread for memo
/// hits and requests rejected before queuing), so callbacks must be fast
/// and self-synchronized.
class AdmissionService {
 public:
  /// Rendered JSON response, exactly one per submitted request.
  using Callback = std::function<void(const std::string&)>;

  /// Sizes nothing in the service; kept because the benchmark's serve
  /// workload static_asserts its system count below it.
  static constexpr std::size_t kMaxFamilies = 16;

  /// Validates the config (1..kMaxWorkers workers, known analyzer name;
  /// std::invalid_argument otherwise) and spawns the worker pool.
  explicit AdmissionService(ServiceConfig config);

  /// Drains every queued request (nothing submitted is ever dropped), then
  /// joins the pool.
  ~AdmissionService();

  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;

  /// Submit one decoded request. kSubmit requests are parsed and queued
  /// (the callback fires on a pool worker once the verdict is rendered);
  /// kStats/kReload/kShutdown are handled synchronously and the
  /// callback fires inline. Invalid submissions (bad .taskset, unknown
  /// analyzer) get an inline error response. After request_shutdown() every
  /// new submission is answered with an error.
  void submit(Request request, Callback done);

  /// Hot reconfiguration (see file header). Fields left empty keep their
  /// current value. Blocks until the new config is committed; concurrent
  /// reloads serialize. Returns the committed config. Throws
  /// std::invalid_argument on a config the constructor would reject (the
  /// old config stays).
  ServiceConfig reload(const std::optional<std::string>& analyzer,
                       std::optional<std::size_t> workers,
                       std::optional<std::size_t> cache);

  /// Stop accepting new submissions and drain everything already queued.
  /// Idempotent; returns once the service is idle.
  void request_shutdown();
  bool shutdown_requested() const {
    return !accepting_.load(std::memory_order_acquire);
  }

  /// Block until every queued/in-flight request has been answered.
  void wait_idle();

  ServiceStats stats() const;
  ServiceConfig config() const { return current_epoch()->config; }
  std::uint64_t config_version() const { return current_epoch()->version; }

 private:
  /// One memoized verdict: everything needed to re-render a response minus
  /// the per-request id.
  struct MemoEntry {
    bool schedulable = false;
    std::string report_json;      ///< lint::render_json(Report, ts).
    std::string certificate_json; ///< "" when the request had certify off.
    bool certificate_ok = false;
    std::size_t claims_checked = 0;
  };

  /// One pre-parse fast-memo entry: the exact request identity (compared
  /// byte-for-byte on every hit) plus the memoized verdict.
  struct FastEntry {
    std::string taskset_text;
    std::string analyzer;  ///< Resolved registry name (never "").
    double wcet_scale = 1.0;
    bool certify = false;
    MemoEntry verdict;
  };

  template <typename Key, typename Value>
  class LruCache {
   public:
    void set_capacity(std::size_t cap) { capacity_ = cap; trim(); }
    Value* find(const Key& key) {
      auto it = index_.find(key);
      if (it == index_.end()) return nullptr;
      order_.splice(order_.begin(), order_, it->second);
      return &it->second->second;
    }
    void insert(const Key& key, Value value) {
      if (Value* existing = find(key)) {
        *existing = std::move(value);
        return;
      }
      order_.emplace_front(key, std::move(value));
      index_[key] = order_.begin();
      trim();
    }

   private:
    void trim() {
      while (order_.size() > capacity_) {
        index_.erase(order_.back().first);
        order_.pop_back();
      }
    }
    std::size_t capacity_ = 0;
    std::list<std::pair<Key, Value>> order_;
    std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator>
        index_;
  };

  /// One queued submission (parsed on the submitting thread, so a pool
  /// job never blocks on request decoding).
  struct PendingRequest {
    Request request;
    const analysis::Analyzer* analyzer = nullptr;
    std::unique_ptr<model::TaskSet> ts;
    Callback done;
  };

  /// The immutable per-reload configuration epoch. Jobs hold a shared_ptr,
  /// so a reload never invalidates what a running job observes.
  struct Epoch {
    ServiceConfig config;
    std::uint64_t version = 1;
  };

  std::shared_ptr<const Epoch> current_epoch() const;

  /// The pool job body: analyze one submission under the current epoch,
  /// then count it done.
  void run(PendingRequest& pending);

  /// Analyze one submission cold and deliver its response.
  void process_one(const Epoch& epoch, PendingRequest& pending);

  void deliver_error(const Callback& done, const std::string& id,
                     const std::string& error);

  /// Render the verdict response envelope around a memoized entry.
  static std::string render_response(const std::string& id,
                                     const std::string& analyzer,
                                     const char* path, std::uint64_t version,
                                     const MemoEntry& entry, bool certify);

  /// Key of the pre-parse fast memo (advisory; entries byte-compare).
  static std::uint64_t fast_key(const std::string& text,
                                const std::string& analyzer, double scale,
                                bool certify);

  /// Try to answer `request` from the pre-parse fast memo. True if the
  /// callback was invoked.
  bool try_fast_path(const Request& request, const std::string& analyzer,
                     std::uint64_t version, std::size_t capacity,
                     const Callback& done);

  /// Record a rendered verdict in the pre-parse fast memo.
  void remember_fast(const Request& request, const std::string& analyzer,
                     MemoEntry entry, std::size_t capacity);

  mutable util::Mutex epoch_mutex_;
  std::shared_ptr<const Epoch> epoch_ RTPOOL_GUARDED_BY(epoch_mutex_);

  /// Pre-parse fast memo (connection threads probe it before parsing).
  /// Verdicts are pure functions of the request identity, so entries
  /// survive reloads; capacity follows config.cache.
  mutable util::Mutex fast_mutex_;
  LruCache<std::uint64_t, FastEntry> fast_memo_ RTPOOL_GUARDED_BY(fast_mutex_);

  /// Serializes reload() end to end.
  util::Mutex reload_mutex_;

  /// Submissions queued or running; wait_idle() waits for 0.
  util::Mutex idle_mutex_;
  util::CondVar idle_cv_;
  std::uint64_t pending_ RTPOOL_GUARDED_BY(idle_mutex_) = 0;

  std::atomic<bool> accepting_{true};

  // Counters (relaxed: monotone telemetry, snapshot consistency not needed).
  std::atomic<std::uint64_t> received_{0}, completed_{0}, errors_{0},
      fast_hits_{0}, cold_{0}, batches_{0}, reloads_{0}, certified_{0},
      cert_failures_{0};

  /// Declared last, so it is destroyed first: its workers are joined while
  /// everything a finishing job touches is still alive.
  exec::ThreadPool pool_;
};

/// Render a ServiceStats + config snapshot as the "stats" response document.
std::string encode_stats(const std::string& id, const ServiceStats& stats,
                         const ServiceConfig& config, std::uint64_t version,
                         std::size_t pool_workers);

}  // namespace rtpool::serve
