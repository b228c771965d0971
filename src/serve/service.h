// The admission-service core behind rtpool-serve: sharded scratch contexts,
// batched dispatch, one verdict memo, and hot reconfiguration that never
// drops an in-flight request.
//
//                 submit() [connection threads: fast memo, else parse +
//                           fingerprint]
//                      │
//            shard = family(fp) % shards        ┌─ per-shard state ─┐
//                      ▼                        │ scratch RtaContext │
//   ┌ shard 0 queue ┐ ┌ shard 1 queue ┐  ...    └────────────────────┘
//   └───────┬───────┘ └───────┬───────┘
//           ▼                 ▼
//      worker s%W        worker s%W      (exec::ThreadPool, kPerWorker)
//
// PERFORMANCE MODEL. Each shard owns one arena-backed analysis::RtaContext,
// and AT MOST ONE dispatch closure per shard is in flight at any time (the
// `dispatch_scheduled` flag hands off under the queue mutex) — so the
// context needs NO locking on the hot path: the pinned dispatch closure is
// its only reader/writer, and the pool's queue mutex provides the
// happens-before edge between consecutive dispatches. A dispatch drains up
// to `batch` queued submissions in one closure, so the per-request cost of
// waking a worker and rebinding the context amortizes across the batch.
// Routing by the FAMILY fingerprint (core count + task-name multiset,
// stable across WCET mutations) sends every incarnation of a system to the
// same shard. Each request is answered one of two ways:
//
//   * "memo": a byte-identical resubmission is answered ON THE CONNECTION
//     THREAD from a text-keyed fast memo, before the .taskset is even
//     parsed — repeat verdicts are dominated by document parsing and
//     DagTask cache construction, not analysis; hits byte-compare the
//     stored request identity, so a hash collision costs a miss, never a
//     wrong answer;
//   * "cold": everything else is parsed and fingerprinted on the connection
//     thread, then analyzed on its shard's scratch context (rebound per
//     request, so arenas are reused, not reallocated).
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
// HOT RECONFIGURATION. reload() builds the next ServiceConfig, pauses
// dispatch scheduling, waits for the in-flight dispatch closures to finish
// their current batches (queued submissions stay queued — nothing is
// dropped or answered under a half-installed config), swaps the epoch
// (analyzer / shards / batch / cache) and only THEN re-routes the old
// epoch's queues into the new shards, applies a worker delta directly to
// the pool (ThreadPool::add_workers / retire_workers; a resize the pool
// refuses keeps the old pool size) and resumes. Requests that were dispatched
// before the reload complete under the old epoch (they hold a shared_ptr
// to it); requests still queued run under the new one. The
// swap-before-re-route order pairs with a re-check in enqueue(): a racing
// submission that still observed the old epoch pushed before the swap, so
// the re-route pass is guaranteed to pick its entry up; one that observes
// the new epoch migrates its shard's entries itself. Either way no
// submission can be stranded in a retired shard's queue.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/rta_context.h"
#include "exec/thread_pool.h"
#include "model/task_set.h"
#include "serve/protocol.h"
#include "util/thread_annotations.h"

namespace rtpool::serve {

struct ServiceConfig {
  /// Upper bound on `workers` and on `shards`, checked at construction and
  /// on every reload before anything is started: a reload request cannot
  /// make the service spawn unbounded threads or shard contexts.
  static constexpr std::size_t kMaxWorkersAndShards = 1024;

  std::string analyzer = "global-limited";  ///< Default registry analyzer.
  std::size_t workers = 4;  ///< Pool workers executing dispatch closures.
  std::size_t shards = 4;   ///< Context shards (>= 1).
  std::size_t batch = 8;    ///< Max submissions one dispatch closure drains.
  /// Fast-memo entries, shared by all shards. 0 disables the memo (every
  /// request runs cold — the naive baseline the bench compares against).
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
  std::uint64_t batches = 0;       ///< Dispatch closures executed.
  std::uint64_t max_batch = 0;     ///< Largest single-dispatch drain.
  std::uint64_t reloads = 0;       ///< Committed reconfigurations.
  std::uint64_t certified = 0;     ///< Certificates independently checked.
  std::uint64_t cert_failures = 0; ///< Certificates the checker rejected.
};

/// See file header. Thread-safe: submit()/control() may be called from any
/// number of connection threads; responses are delivered via the submit
/// callback ON A POOL WORKER (or inline on the submitting thread for
/// requests rejected before dispatch), so callbacks must be fast and
/// self-synchronized.
class AdmissionService {
 public:
  /// Rendered JSON response, exactly one per submitted request.
  using Callback = std::function<void(const std::string&)>;

  /// Sizes nothing in the service; kept because the benchmark's serve
  /// workload static_asserts its system count below it.
  static constexpr std::size_t kMaxFamilies = 16;

  /// Validates the config (1..kMaxWorkersAndShards workers and shards,
  /// >= 1 batch, known analyzer name; std::invalid_argument otherwise) and
  /// spawns the worker pool.
  explicit AdmissionService(ServiceConfig config);

  /// Drains every queued request (nothing submitted is ever dropped), then
  /// joins the pool.
  ~AdmissionService();

  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;

  /// Submit one decoded request. kSubmit requests are parsed, fingerprinted
  /// and queued (the callback fires on a pool worker once the verdict is
  /// rendered); kStats/kReload/kShutdown are handled synchronously and the
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
                       std::optional<std::size_t> shards,
                       std::optional<std::size_t> batch,
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
  ServiceConfig config() const;
  std::uint64_t config_version() const {
    return config_version_.load(std::memory_order_acquire);
  }

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

  /// One queued submission (parsed + routed on the submitting thread, so
  /// dispatch never blocks on request decoding).
  struct PendingRequest {
    Request request;
    const analysis::Analyzer* analyzer = nullptr;
    std::unique_ptr<model::TaskSet> ts;
    std::uint64_t family = 0;  ///< TaskSetFingerprint::family: the route.
    Callback done;
  };

  /// Hot-path state of one shard. Only the shard's single in-flight
  /// dispatch closure touches `scratch` — see file header for why that
  /// needs no mutex.
  struct Shard {
    util::Mutex queue_mutex;
    std::deque<PendingRequest> queue RTPOOL_GUARDED_BY(queue_mutex);
    bool dispatch_scheduled RTPOOL_GUARDED_BY(queue_mutex) = false;

    /// Rebound to each request; dispatch-closure-only (unsynchronized by
    /// design).
    std::unique_ptr<analysis::RtaContext> scratch;
  };

  /// The immutable per-reload configuration epoch. In-flight dispatches
  /// and racing submits hold a shared_ptr, so a reload never invalidates
  /// what they observe; shards are shared too, so a reload that keeps the
  /// shard count hands the same shard objects to the next epoch while a
  /// racing submit still pushes into the same (live) queue object.
  struct Epoch {
    ServiceConfig config;
    std::uint64_t version = 1;
    std::vector<std::shared_ptr<Shard>> shards;
  };

  static std::shared_ptr<Epoch> make_epoch(ServiceConfig config,
                                           std::uint64_t version);

  std::shared_ptr<Epoch> current_epoch() const;

  /// Queue one parsed submission on its family's shard and schedule a
  /// dispatch. Re-checks the epoch after the push and migrates entries out
  /// of shards a concurrent reload retired, so a submission racing a
  /// shard-replacing reload can never be stranded in a queue nothing will
  /// ever drain (see reload()).
  void enqueue(PendingRequest pending);

  /// Schedule a dispatch closure for `shard` unless one is already in
  /// flight or dispatching is paused. Caller must NOT hold the shard's
  /// queue mutex.
  void schedule_dispatch(const std::shared_ptr<Epoch>& epoch,
                         std::size_t shard_index);

  /// The dispatch closure body: drain up to `batch` submissions.
  void run_dispatch(std::shared_ptr<Epoch> epoch, std::size_t shard_index);

  /// Analyze one submission cold and deliver its response.
  void process_one(const Epoch& epoch, Shard& shard, PendingRequest& pending);

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

  ServiceConfig base_config_;  ///< Only for config(); epochs hold the truth.

  exec::ThreadPool pool_;

  mutable util::Mutex epoch_mutex_;
  std::shared_ptr<Epoch> epoch_ RTPOOL_GUARDED_BY(epoch_mutex_);

  /// Pre-parse fast memo, shared across shards (connection threads probe it
  /// before any routing). Verdicts are pure functions of the request
  /// identity, so entries survive reloads; capacity follows config.cache.
  mutable util::Mutex fast_mutex_;
  LruCache<std::uint64_t, FastEntry> fast_memo_ RTPOOL_GUARDED_BY(fast_mutex_);

  /// Serializes reload()/request_shutdown() end to end.
  util::Mutex reload_mutex_;

  mutable util::Mutex dispatch_mutex_;
  util::CondVar dispatch_cv_;
  std::size_t active_dispatches_ RTPOOL_GUARDED_BY(dispatch_mutex_) = 0;
  bool paused_ RTPOOL_GUARDED_BY(dispatch_mutex_) = false;
  std::uint64_t pending_total_ RTPOOL_GUARDED_BY(dispatch_mutex_) = 0;

  std::atomic<bool> accepting_{true};
  std::atomic<std::uint64_t> config_version_{1};

  // Counters (relaxed: monotone telemetry, snapshot consistency not needed).
  std::atomic<std::uint64_t> received_{0}, completed_{0}, errors_{0},
      fast_hits_{0}, cold_{0}, batches_{0}, max_batch_{0}, reloads_{0},
      certified_{0}, cert_failures_{0};
};

/// Render a ServiceStats + config snapshot as the "stats" response document.
std::string encode_stats(const std::string& id, const ServiceStats& stats,
                         const ServiceConfig& config, std::uint64_t version,
                         std::size_t pool_workers);

}  // namespace rtpool::serve
