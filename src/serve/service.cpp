#include "serve/service.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/cert_check.h"
#include "analysis/rta_context.h"
#include "lint/render.h"
#include "model/io.h"

namespace rtpool::serve {

namespace {

void validate_config(const ServiceConfig& config) {
  constexpr std::size_t kMax = ServiceConfig::kMaxWorkers;
  if (config.workers == 0 || config.workers > kMax)
    throw std::invalid_argument("AdmissionService: workers must be in [1, " +
                                std::to_string(kMax) + "]");
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
  w.kv("reloads", stats.reloads);
  w.kv("certified", stats.certified);
  w.kv("cert_failures", stats.cert_failures);
  w.end_object();
  w.key("config");
  w.begin_object();
  w.kv("analyzer", config.analyzer);
  w.kv("workers", config.workers);
  w.kv("pool_workers", pool_workers);
  w.kv("cache", config.cache);
  w.kv("version", version);
  w.end_object();
  w.end_object();
  return os.str();
}

AdmissionService::AdmissionService(ServiceConfig config)
    : epoch_(std::make_shared<const Epoch>(
          Epoch{(validate_config(config), config), /*version=*/1})),
      pool_(config.workers, exec::ThreadPool::QueueMode::kShared) {}

AdmissionService::~AdmissionService() {
  request_shutdown();
}

std::shared_ptr<const AdmissionService::Epoch>
AdmissionService::current_epoch() const {
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
        const ServiceConfig committed = reload(
            request.reload_analyzer, request.reload_workers,
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

  const std::shared_ptr<const Epoch> epoch = current_epoch();
  const std::string& name = request.analyzer.empty()
                                ? epoch->config.analyzer
                                : request.analyzer;

  // Fast path: a byte-identical resubmission is answered right here, before
  // the .taskset is parsed — repeat verdicts are dominated by document
  // parsing, not analysis (see file header of service.h).
  if (epoch->config.cache > 0 &&
      try_fast_path(request, name, epoch->version, epoch->config.cache, done))
    return;

  // Decode on the submitting thread so a malformed .taskset never reaches
  // (or stalls) a pool worker. A std::function must be copyable, so the
  // job holds the move-only submission through a shared_ptr.
  auto pending = std::make_shared<PendingRequest>();
  pending->done = std::move(done);
  try {
    std::istringstream is(request.taskset_text);
    pending->ts = std::make_unique<model::TaskSet>(model::read_task_set(is));
  } catch (const std::exception& e) {
    deliver_error(pending->done, request.id,
                  std::string("invalid taskset: ") + e.what());
    return;
  }

  pending->analyzer = analysis::find_analyzer(name);
  if (pending->analyzer == nullptr) {
    deliver_error(pending->done, request.id, "unknown analyzer '" + name + "'");
    return;
  }
  pending->request = std::move(request);

  {
    util::MutexLock lock(idle_mutex_);
    ++pending_;
  }
  received_.fetch_add(1, std::memory_order_relaxed);
  pool_.submit([this, pending] { run(*pending); });
}

void AdmissionService::run(PendingRequest& pending) {
  // Per-request exception guard: a throwing analyzer, renderer or delivery
  // callback must cost one error response, not the job's pending count —
  // an escaping exception would leave it undrained and hang wait_idle()
  // and shutdown. process_one clears pending.done once delivery
  // succeeded, so the error path never double-invokes a callback.
  try {
    process_one(*current_epoch(), pending);
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

  batches_.fetch_add(1, std::memory_order_relaxed);
  util::MutexLock lock(idle_mutex_);
  --pending_;
  idle_cv_.notify_all();
}

void AdmissionService::process_one(const Epoch& epoch,
                                   PendingRequest& pending) {
  const Request& req = pending.request;
  const model::TaskSet& ts = *pending.ts;
  const analysis::Analyzer& analyzer = *pending.analyzer;

  analysis::AnalyzerOptions opts;
  opts.wcet_scale = req.wcet_scale;
  opts.diagnostics = req.certify;

  // One context allocation per worker thread, rebound per request.
  thread_local std::optional<analysis::RtaContext> scratch;
  if (!scratch.has_value())
    scratch.emplace(ts);
  else
    scratch->reset(ts);
  const analysis::Report report = analyzer.analyze(ts, *scratch, opts);
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
  // Move the callback out before invoking it: if it throws, run()'s guard
  // sees pending.done empty and does not invoke it a second time.
  Callback done = std::move(pending.done);
  pending.done = nullptr;
  done(response);
}

ServiceConfig AdmissionService::reload(
    const std::optional<std::string>& analyzer,
    std::optional<std::size_t> workers, std::optional<std::size_t> cache) {
  util::MutexLock reload_lock(reload_mutex_);

  const std::shared_ptr<const Epoch> old_epoch = current_epoch();
  ServiceConfig next = old_epoch->config;
  if (analyzer.has_value()) next.analyzer = *analyzer;
  if (workers.has_value()) next.workers = *workers;
  if (cache.has_value()) next.cache = *cache;
  validate_config(next);  // throws before anything is touched

  // Jobs read the epoch when they start: a running job finishes under the
  // old one, every queued job runs under this one.
  {
    util::MutexLock lock(epoch_mutex_);
    epoch_ = std::make_shared<const Epoch>(Epoch{next, old_epoch->version + 1});
  }

  // Worker delta. A retiring worker finishes its current job; queued jobs
  // stay in the one queue for the survivors.
  const std::size_t live = pool_.worker_count();
  try {
    if (next.workers > live)
      pool_.add_workers(next.workers - live);
    else if (next.workers < live)
      pool_.retire_workers(live - next.workers);
  } catch (const std::exception&) {
    // The pool refused: it keeps its old size, which the stats response
    // reports as pool_workers next to the configured workers.
  }

  reloads_.fetch_add(1, std::memory_order_relaxed);
  return next;
}

void AdmissionService::request_shutdown() {
  accepting_.store(false, std::memory_order_release);
  wait_idle();
}

void AdmissionService::wait_idle() {
  util::MutexLock lock(idle_mutex_);
  while (pending_ > 0) idle_cv_.wait(idle_mutex_);
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
  s.reloads = reloads_.load(std::memory_order_relaxed);
  s.certified = certified_.load(std::memory_order_relaxed);
  s.cert_failures = cert_failures_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace rtpool::serve
