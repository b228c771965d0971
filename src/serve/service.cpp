#include "serve/service.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/cert_check.h"
#include "lint/render.h"
#include "model/io.h"

namespace rtpool::serve {

namespace {

void validate_config(const ServiceConfig& config) {
  if (config.workers == 0)
    throw std::invalid_argument("AdmissionService: workers must be >= 1");
  if (config.shards == 0)
    throw std::invalid_argument("AdmissionService: shards must be >= 1");
  if (config.batch == 0)
    throw std::invalid_argument("AdmissionService: batch must be >= 1");
  analysis::get_analyzer(config.analyzer);  // throws listing known names
}

}  // namespace

std::string encode_stats(const std::string& id, const ServiceStats& stats,
                         const ServiceConfig& config, std::uint64_t version,
                         std::size_t pool_workers) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.kv("tool", "rtpool-serve");
  if (!id.empty()) w.kv("id", id);
  w.kv("ok", true);
  w.key("stats");
  w.begin_object();
  w.kv("received", stats.received);
  w.kv("completed", stats.completed);
  w.kv("errors", stats.errors);
  w.kv("memo_hits", stats.memo_hits);
  w.kv("fast_hits", stats.fast_hits);
  w.kv("incremental", stats.incremental);
  w.kv("cold", stats.cold);
  w.kv("batches", stats.batches);
  w.kv("max_batch", stats.max_batch);
  w.kv("reloads", stats.reloads);
  w.kv("certified", stats.certified);
  w.kv("cert_failures", stats.cert_failures);
  w.end_object();
  w.key("config");
  w.begin_object();
  w.kv("analyzer", config.analyzer);
  w.kv("workers", config.workers);
  w.kv("pool_workers", pool_workers);
  w.kv("shards", config.shards);
  w.kv("batch", config.batch);
  w.kv("cache", config.cache);
  w.kv("version", version);
  w.end_object();
  w.end_object();
  return os.str();
}

AdmissionService::AdmissionService(ServiceConfig config)
    : base_config_((validate_config(config), config)),
      pool_(config.workers, exec::ThreadPool::QueueMode::kPerWorker,
            /*steal=*/false),
      controller_(
          [&] {
            exec::ModeChangeConfig mc;
            mc.analyzer = config.analyzer;
            return mc;
          }(),
          &pool_) {
  util::MutexLock lock(epoch_mutex_);
  epoch_ = make_epoch(std::move(config), /*version=*/1);
}

AdmissionService::~AdmissionService() {
  request_shutdown();
}

std::shared_ptr<AdmissionService::Epoch> AdmissionService::make_epoch(
    ServiceConfig config, std::uint64_t version) {
  auto epoch = std::make_shared<Epoch>();
  epoch->version = version;
  epoch->shards.reserve(config.shards);
  for (std::size_t s = 0; s < config.shards; ++s)
    epoch->shards.push_back(std::make_shared<Shard>());
  epoch->config = std::move(config);
  return epoch;
}

std::shared_ptr<AdmissionService::Epoch> AdmissionService::current_epoch()
    const {
  util::MutexLock lock(epoch_mutex_);
  return epoch_;
}

void AdmissionService::deliver_error(const Callback& done,
                                     const std::string& id,
                                     const std::string& error) {
  errors_.fetch_add(1, std::memory_order_relaxed);
  done(encode_error(id, error));
}

std::string AdmissionService::render_response(const std::string& id,
                                              const std::string& analyzer,
                                              const char* path,
                                              std::uint64_t version,
                                              const MemoEntry& entry,
                                              bool certify) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.kv("tool", "rtpool-serve");
  if (!id.empty()) w.kv("id", id);
  w.kv("ok", true);
  w.kv("schedulable", entry.schedulable);
  w.kv("analyzer", analyzer);
  w.kv("path", path);
  w.kv("config_version", version);
  w.key("report");
  w.raw_value(entry.report_json);
  if (certify) {
    w.key("certificate");
    w.raw_value(entry.certificate_json);
    w.kv("certificate_ok", entry.certificate_ok);
    w.kv("claims_checked", entry.claims_checked);
  }
  w.end_object();
  return os.str();
}

std::uint64_t AdmissionService::fast_key(const std::string& text,
                                         const std::string& analyzer,
                                         double scale, bool certify) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, analyzer);
  h = fnv1a(h, scale);
  h = fnv1a(h, std::uint64_t{certify ? 1u : 0u});
  h = fnv1a(h, text);
  return h;
}

bool AdmissionService::try_fast_path(const Request& request,
                                     const std::string& analyzer,
                                     std::uint64_t version,
                                     std::size_t capacity,
                                     const Callback& done) {
  const std::uint64_t key = fast_key(request.taskset_text, analyzer,
                                     request.wcet_scale, request.certify);
  std::string response;
  {
    util::MutexLock lock(fast_mutex_);
    fast_memo_.set_capacity(capacity);
    const FastEntry* hit = fast_memo_.find(key);
    // Byte-compare the full identity: a hash collision is a miss, never a
    // wrong verdict.
    if (hit == nullptr || hit->taskset_text != request.taskset_text ||
        hit->analyzer != analyzer || hit->wcet_scale != request.wcet_scale ||
        hit->certify != request.certify)
      return false;
    response = render_response(request.id, analyzer, "memo", version,
                               hit->verdict, request.certify);
  }
  received_.fetch_add(1, std::memory_order_relaxed);
  fast_hits_.fetch_add(1, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);
  done(response);
  return true;
}

void AdmissionService::remember_fast(const Request& request,
                                     const std::string& analyzer,
                                     MemoEntry entry, std::size_t capacity) {
  FastEntry fast;
  fast.taskset_text = request.taskset_text;
  fast.analyzer = analyzer;
  fast.wcet_scale = request.wcet_scale;
  fast.certify = request.certify;
  fast.verdict = std::move(entry);
  // Key BEFORE the move: function arguments are indeterminately sequenced,
  // so fast_key(fast.taskset_text, ...) inside the insert() call could read
  // an already-moved-from string.
  const std::uint64_t key =
      fast_key(fast.taskset_text, analyzer, fast.wcet_scale, fast.certify);
  util::MutexLock lock(fast_mutex_);
  fast_memo_.set_capacity(capacity);
  fast_memo_.insert(key, std::move(fast));
}

void AdmissionService::submit(Request request, Callback done) {
  switch (request.kind) {
    case Request::Kind::kStats: {
      done(encode_stats(request.id, stats(), config(), config_version(),
                        pool_.worker_count()));
      return;
    }
    case Request::Kind::kShutdown: {
      // Respond first: request_shutdown() drains synchronously and the
      // transport wants the acknowledgment before the daemon exits.
      std::ostringstream os;
      util::JsonWriter w(os);
      w.begin_object();
      w.kv("tool", "rtpool-serve");
      if (!request.id.empty()) w.kv("id", request.id);
      w.kv("ok", true);
      w.kv("shutdown", true);
      w.end_object();
      done(os.str());
      request_shutdown();
      return;
    }
    case Request::Kind::kReload: {
      try {
        const ServiceConfig committed =
            reload(request.reload_analyzer, request.reload_workers,
                   request.reload_shards, request.reload_batch,
                   request.reload_cache);
        done(encode_stats(request.id, stats(), committed, config_version(),
                          pool_.worker_count()));
      } catch (const std::exception& e) {
        deliver_error(done, request.id, e.what());
      }
      return;
    }
    case Request::Kind::kSubmit:
      break;
  }

  if (!accepting_.load(std::memory_order_acquire)) {
    deliver_error(done, request.id, "service is shutting down");
    return;
  }

  const std::shared_ptr<Epoch> epoch = current_epoch();
  const std::string& name = request.analyzer.empty()
                                ? epoch->config.analyzer
                                : request.analyzer;

  // Fast path: a byte-identical resubmission is answered right here, before
  // the .taskset is parsed — repeat verdicts are dominated by document
  // parsing, not analysis (see file header of service.h).
  if (epoch->config.cache > 0 &&
      try_fast_path(request, name, epoch->version, epoch->config.cache, done))
    return;

  // Decode + route on the submitting thread so a malformed .taskset never
  // reaches (or stalls) a dispatch worker.
  PendingRequest pending;
  pending.done = std::move(done);
  try {
    std::istringstream is(request.taskset_text);
    pending.ts = std::make_unique<model::TaskSet>(model::read_task_set(is));
  } catch (const std::exception& e) {
    deliver_error(pending.done, request.id,
                  std::string("invalid taskset: ") + e.what());
    return;
  }

  pending.analyzer = analysis::find_analyzer(name);
  if (pending.analyzer == nullptr) {
    deliver_error(pending.done, request.id, "unknown analyzer '" + name + "'");
    return;
  }
  pending.family = fingerprint(*pending.ts).family;
  pending.request = std::move(request);

  {
    util::MutexLock lock(dispatch_mutex_);
    ++pending_total_;
  }
  received_.fetch_add(1, std::memory_order_relaxed);
  enqueue(std::move(pending));
}

void AdmissionService::enqueue(PendingRequest pending) {
  // Push, then re-check the epoch. reload() installs the new epoch BEFORE
  // re-routing the old queues, so exactly one of two things is true of a
  // push that races a shard-replacing reload: (a) the re-check still sees
  // the old epoch — then the push is ordered before the swap and the
  // reload's re-route pass is guaranteed to drain it into the new shards;
  // or (b) the re-check sees the new epoch — then the re-route pass may
  // already have run, so this thread drains the shard it pushed into and
  // retries against the new epoch. Without the re-check, a late push could
  // land in a retired shard's queue that nothing ever drains again
  // (schedule_dispatch returns early while dispatching is paused, and the
  // reload epilogue only schedules the new epoch's shards), stranding the
  // request and hanging wait_idle()/shutdown.
  std::shared_ptr<Epoch> epoch = current_epoch();
  std::vector<PendingRequest> batch;
  batch.push_back(std::move(pending));
  for (;;) {
    std::vector<std::size_t> touched;
    touched.reserve(batch.size());
    for (PendingRequest& p : batch) {
      const std::size_t index =
          static_cast<std::size_t>(p.family % epoch->config.shards);
      Shard& shard = *epoch->shards[index];
      util::MutexLock lock(shard.queue_mutex);
      shard.queue.push_back(std::move(p));
      touched.push_back(index);
    }
    batch.clear();
    const std::shared_ptr<Epoch> current = current_epoch();
    if (current == epoch || current->shards == epoch->shards) {
      // Same epoch, or a compatible reload that shares the shard objects:
      // the queues we pushed into are live (a mid-flight reload's epilogue
      // schedules these same shards, covering the paused early-return).
      for (std::size_t index : touched) schedule_dispatch(epoch, index);
      return;
    }
    // The shards we pushed into were retired. Drain them ourselves and
    // retry: every entry is popped exactly once (by the reload's re-route
    // pass, an old-epoch dispatch, or here), so nothing is lost or run
    // twice; entries pushed by other racing submitters are safe to carry
    // along — their own re-check covers at most the same work.
    for (std::size_t index : touched) {
      Shard& shard = *epoch->shards[index];
      util::MutexLock lock(shard.queue_mutex);
      while (!shard.queue.empty()) {
        batch.push_back(std::move(shard.queue.front()));
        shard.queue.pop_front();
      }
    }
    epoch = current;
    if (batch.empty()) return;  // the re-route pass beat us to every entry
  }
}

void AdmissionService::schedule_dispatch(const std::shared_ptr<Epoch>& epoch,
                                         std::size_t shard_index) {
  Shard& shard = *epoch->shards[shard_index];
  {
    util::MutexLock lock(dispatch_mutex_);
    if (paused_) return;  // the reload epilogue reschedules
    util::MutexLock qlock(shard.queue_mutex);
    if (shard.queue.empty() || shard.dispatch_scheduled) return;
    shard.dispatch_scheduled = true;
    ++active_dispatches_;
  }
  // Pin the shard to one worker slot; route_target() redirects to a live
  // worker if that slot retired after a resize.
  const std::size_t workers = std::max<std::size_t>(pool_.worker_count(), 1);
  pool_.submit([this, epoch, shard_index] { run_dispatch(epoch, shard_index); },
               shard_index % workers);
}

void AdmissionService::run_dispatch(std::shared_ptr<Epoch> epoch,
                                    std::size_t shard_index) {
  Shard& shard = *epoch->shards[shard_index];

  // Drain up to `batch` queued submissions in one closure: one worker
  // wakeup, contiguous context rebinds.
  std::vector<PendingRequest> taken;
  {
    util::MutexLock lock(shard.queue_mutex);
    const std::size_t n = std::min(shard.queue.size(), epoch->config.batch);
    taken.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      taken.push_back(std::move(shard.queue.front()));
      shard.queue.pop_front();
    }
  }

  // Per-request exception guard: a throwing analyzer, renderer or delivery
  // callback must cost one error response, not the worker — an escaping
  // exception would leave dispatch_scheduled set and the active/pending
  // counters undrained, wedging the shard and hanging wait_idle()/reload()/
  // shutdown. process_one clears pending.done once delivery succeeded, so
  // the error path never double-invokes a callback.
  for (PendingRequest& pending : taken) {
    try {
      process_one(*epoch, shard, pending);
    } catch (const std::exception& e) {
      if (pending.done) {
        try {
          deliver_error(pending.done, pending.request.id,
                        std::string("analysis failed: ") + e.what());
        } catch (...) {
          // The delivery callback itself failed; the transport owns the
          // peer — nothing further to do.
        }
      }
    } catch (...) {
      if (pending.done) {
        try {
          deliver_error(pending.done, pending.request.id, "analysis failed");
        } catch (...) {
        }
      }
    }
  }

  batches_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t prev = max_batch_.load(std::memory_order_relaxed);
  while (prev < taken.size() &&
         !max_batch_.compare_exchange_weak(prev, taken.size(),
                                           std::memory_order_relaxed)) {
  }

  bool resubmit = false;
  {
    util::MutexLock lock(dispatch_mutex_);
    pending_total_ -= taken.size();
    util::MutexLock qlock(shard.queue_mutex);
    if (!shard.queue.empty() && !paused_) {
      resubmit = true;  // keep dispatch_scheduled + active_dispatches_
    } else {
      shard.dispatch_scheduled = false;
      --active_dispatches_;
    }
    dispatch_cv_.notify_all();
  }
  if (resubmit) {
    const std::size_t workers = std::max<std::size_t>(pool_.worker_count(), 1);
    pool_.submit(
        [this, epoch, shard_index] { run_dispatch(epoch, shard_index); },
        shard_index % workers);
  }
}

void AdmissionService::process_one(const Epoch& epoch, Shard& shard,
                                   PendingRequest& pending) {
  const Request& req = pending.request;
  const model::TaskSet& ts = *pending.ts;
  const analysis::Analyzer& analyzer = *pending.analyzer;

  analysis::AnalyzerOptions opts;
  opts.wcet_scale = req.wcet_scale;
  opts.diagnostics = req.certify;

  // Bind the shard's arena-backed scratch context to this submission.
  if (shard.scratch == nullptr)
    shard.scratch = std::make_unique<analysis::RtaContext>(ts);
  else
    shard.scratch->reset(ts);
  const analysis::Report report = analyzer.analyze(ts, *shard.scratch, opts);
  cold_.fetch_add(1, std::memory_order_relaxed);

  MemoEntry entry;
  entry.schedulable = report.schedulable;
  entry.report_json = lint::render_json(report, ts);
  if (req.certify) {
    if (report.certificate != nullptr) {
      entry.certificate_json = lint::render_json(*report.certificate, ts);
      const analysis::cert::CheckResult check =
          analysis::cert::check_certificate(ts, *report.certificate);
      entry.certificate_ok = check.ok();
      entry.claims_checked = check.claims_checked;
      certified_.fetch_add(1, std::memory_order_relaxed);
      if (!check.ok())
        cert_failures_.fetch_add(1, std::memory_order_relaxed);
    } else {
      entry.certificate_json = "null";
      entry.certificate_ok = false;
    }
  }

  const std::string name(analyzer.name());
  const std::string response = render_response(
      req.id, name, "cold", epoch.version, entry, req.certify);
  // Remember the verdict before delivering it, so a byte-identical
  // resubmission sent after this response skips the parse entirely.
  if (epoch.config.cache > 0)
    remember_fast(req, name, std::move(entry), epoch.config.cache);
  completed_.fetch_add(1, std::memory_order_relaxed);
  // Move the callback out before invoking it: if it throws, run_dispatch's
  // guard sees pending.done empty and does not invoke it a second time.
  Callback done = std::move(pending.done);
  pending.done = nullptr;
  done(response);
}

ServiceConfig AdmissionService::reload(
    const std::optional<std::string>& analyzer,
    std::optional<std::size_t> workers, std::optional<std::size_t> shards,
    std::optional<std::size_t> batch, std::optional<std::size_t> cache) {
  util::MutexLock reload_lock(reload_mutex_);

  const std::shared_ptr<Epoch> old_epoch = current_epoch();
  ServiceConfig next = old_epoch->config;
  if (analyzer.has_value()) next.analyzer = *analyzer;
  if (workers.has_value()) next.workers = *workers;
  if (shards.has_value()) next.shards = *shards;
  if (batch.has_value()) next.batch = *batch;
  if (cache.has_value()) next.cache = *cache;
  validate_config(next);  // throws before anything is touched

  // Pause dispatch scheduling and wait for in-flight dispatch closures to
  // finish their current batches. Queued submissions stay queued — they are
  // re-routed to the new epoch's shards below, so nothing is dropped.
  {
    util::MutexLock lock(dispatch_mutex_);
    paused_ = true;
    while (active_dispatches_ > 0) dispatch_cv_.wait(dispatch_mutex_);
  }

  const std::uint64_t version = old_epoch->version + 1;
  std::shared_ptr<Epoch> fresh = make_epoch(next, version);

  // An unchanged shard count keeps the routing valid, so the live shard
  // objects (queues and scratch contexts) carry over as they are.
  const bool keep_shards = next.shards == old_epoch->config.shards;
  if (keep_shards) fresh->shards = old_epoch->shards;

  // Install the new epoch BEFORE re-routing the old queues. enqueue()
  // re-checks the epoch after every push, so this order makes the race
  // with concurrent submissions safe: a push whose re-check still saw the
  // old epoch is ordered before this swap and therefore before the
  // re-route pass below (which then drains it); a push whose re-check sees
  // the new epoch migrates its shard's entries itself.
  {
    util::MutexLock lock(epoch_mutex_);
    epoch_ = fresh;
  }
  config_version_.store(version, std::memory_order_release);

  if (!keep_shards) {
    // Re-route every queued submission into the new epoch's shards (no
    // dispatches are running — paused with active_dispatches_ == 0 — so
    // only racing submits touch the old queues, and those re-check).
    for (auto& old_shard : old_epoch->shards) {
      util::MutexLock qlock(old_shard->queue_mutex);
      old_shard->dispatch_scheduled = false;
      while (!old_shard->queue.empty()) {
        PendingRequest pending = std::move(old_shard->queue.front());
        old_shard->queue.pop_front();
        const std::size_t target =
            static_cast<std::size_t>(pending.family % next.shards);
        Shard& dst = *fresh->shards[target];
        util::MutexLock dlock(dst.queue_mutex);
        dst.queue.push_back(std::move(pending));
      }
    }
  }

  // Worker delta through the guarded mode-change path: analyze, drain,
  // commit (add_workers / retire_workers), log the transition.
  if (next.workers != pool_.worker_count())
    controller_.resize(next.workers);

  reloads_.fetch_add(1, std::memory_order_relaxed);
  {
    util::MutexLock lock(dispatch_mutex_);
    paused_ = false;
  }
  for (std::size_t s = 0; s < fresh->shards.size(); ++s)
    schedule_dispatch(fresh, s);
  return next;
}

void AdmissionService::request_shutdown() {
  util::MutexLock reload_lock(reload_mutex_);
  accepting_.store(false, std::memory_order_release);
  // Kick any shard whose queue still has work (e.g. submissions that raced
  // the flag), then wait for full drain.
  const std::shared_ptr<Epoch> epoch = current_epoch();
  for (std::size_t s = 0; s < epoch->shards.size(); ++s)
    schedule_dispatch(epoch, s);
  wait_idle();
}

void AdmissionService::wait_idle() {
  util::MutexLock lock(dispatch_mutex_);
  while (pending_total_ > 0 || active_dispatches_ > 0)
    dispatch_cv_.wait(dispatch_mutex_);
}

ServiceStats AdmissionService::stats() const {
  ServiceStats s;
  s.received = received_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.fast_hits = fast_hits_.load(std::memory_order_relaxed);
  s.memo_hits = s.fast_hits;
  s.cold = cold_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.max_batch = max_batch_.load(std::memory_order_relaxed);
  s.reloads = reloads_.load(std::memory_order_relaxed);
  s.certified = certified_.load(std::memory_order_relaxed);
  s.cert_failures = cert_failures_.load(std::memory_order_relaxed);
  return s;
}

ServiceConfig AdmissionService::config() const {
  return current_epoch()->config;
}

}  // namespace rtpool::serve
