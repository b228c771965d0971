// serve_cold and serve_resubmit: closed-loop clients over loopback TCP to an
// in-process serve::AdmissionService plus serve::TcpServer at the daemon's
// default ServiceConfig. Closed loops, because an admission caller waits for
// its verdict before it acts.
//
// The run is a series of rounds. Each round starts a fresh service (so no
// cache survives from the round before), sends the warm-up requests, then
// the timed schedule. Every response must arrive, be ok, and carry a
// "report" byte-equal to an in-process lint::render_json reference.
//
//   serve_cold      every request is a system the service has never seen and
//                   no task repeats. Half the systems keep the generator's
//                   task names (tau0...), so sets of one size share a family
//                   fingerprint; the other half carry names unique to the
//                   system. Warm-up systems are never sent again. Any answer
//                   path other than "cold" fails the run.
//   serve_resubmit  a few uniquely named systems (fewer than one shard's
//                   donor capacity), sent cold once in warm-up, then resent
//                   as exact repeats (fast memo), re-serialized repeats with
//                   the same content in different bytes (post-parse memo) and
//                   edits of the lowest-priority task's WCET (incremental),
//                   in equal shares (see kResubmitForms).
//
// Traced run: one TCP round untimed, then the same round sent to
// AdmissionService::submit without TCP (untraced and traced), then a
// per-request stage replica of the service's path through the library:
// util::parse_json -> serve::decode_request -> model::read_task_set ->
// serve::fingerprint -> analysis (RtaContext + Analyzer::analyze) ->
// lint::render_json -> model::write_task_set.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "analysis/analyzer.h"
#include "analysis/rta_context.h"
#include "common.h"
#include "exp/sharded_runner.h"
#include "gen/taskset_generator.h"
#include "lint/render.h"
#include "model/io.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "trace.h"
#include "util/json.h"
#include "util/net.h"

namespace perfbench {

namespace {

using namespace rtpool;

/// Closed-loop clients (one connection each), capped at nproc.
constexpr std::size_t kClients = 2;
/// Timed requests per round. p99 is set by the largest systems, so a round
/// holds enough distinct systems that the top 1% is not a handful of them.
constexpr std::size_t kColdRequests = 1600;
constexpr std::size_t kColdWarmup = 40;
constexpr std::size_t kSystems = 12;         ///< serve_resubmit systems.
constexpr std::size_t kResubmitRequests = 1500;
constexpr std::size_t kResubmitWarmup = 300;
static_assert(kSystems < serve::AdmissionService::kMaxFamilies);

enum class Form { kCold, kExact, kReserialized, kEdit };

/// serve_resubmit draws each request's form uniformly from these three. The
/// equal shares are an assumption: no admission traffic mix is on record.
/// An exact repeat is answered about ten times faster than the other two
/// forms, which both parse and re-serialize, so with a third of the requests
/// exact the workload's latency_p50_ms falls in the lower quartile of the
/// re-serialized and edited requests: it reads the post-parse memo and
/// incremental paths, and not the fast memo. Each path is judged by its own
/// serve.latency_p50_ms.<path>; the timed run prints the p50 of each form.
constexpr Form kResubmitForms[] = {Form::kExact, Form::kReserialized, Form::kEdit};

const char* form_name(Form form) {
  switch (form) {
    case Form::kCold: return "cold";
    case Form::kExact: return "exact";
    case Form::kReserialized: return "reserialized";
    case Form::kEdit: return "edit";
  }
  return "?";
}

struct Doc {
  std::string body;          ///< The request document sent.
  std::size_t reference = 0; ///< Index into Inputs::references.
  Form form = Form::kCold;
  std::size_t system = 0;    ///< Base system (serve_resubmit).
};

struct Inputs {
  std::vector<Doc> warmup;
  std::vector<Doc> timed;
  std::vector<std::string> references;  ///< Expected "report" bytes.
  double family_collision_share = 0.0;
  std::size_t edits = 0;  ///< Timed requests that edit a WCET.
};

// ---- input generation ----

/// A 12-to-16-task system, or one of exactly `tasks` tasks when non-zero.
model::TaskSet generate_system(std::uint64_t seed, std::uint64_t index,
                               std::size_t tasks = 0) {
  const util::Rng root(seed);
  gen::TaskSetParams params;
  params.cores = 8;
  params.nfj.min_branches = 3;
  params.nfj.max_branches = 5;
  params.total_utilization = 0.6 * 8.0;
  for (std::uint64_t salt = 0;; ++salt) {
    util::Rng rng = root.fork_with(index * 1024 + salt);
    params.task_count =
        tasks != 0 ? tasks : static_cast<std::size_t>(rng.uniform_int(12, 16));
    try {
      Tracer::Scope span("gen.generate", index);
      return gen::generate_task_set(params, rng);
    } catch (const gen::GenerationError&) {
      if (salt > 50) throw;
    }
  }
}

std::string to_text(const model::TaskSet& ts) {
  std::ostringstream os;
  model::write_task_set(os, ts);
  return os.str();
}

/// Give every task a name unique to system `index` ("tau3" -> "s<index>t3").
std::string rename_tasks(std::string text, std::size_t index) {
  const std::string from = "task name=tau";
  std::string to = "task name=s";
  to += std::to_string(index);
  to += 't';
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size()))
    text.replace(at, from.size(), to);
  return text;
}

/// Same content in different bytes: a different leading comment line.
std::string reserialize(const std::string& text, std::size_t k) {
  return "# resubmission " + std::to_string(k) + "\n" +
         text.substr(text.find('\n') + 1);
}

/// Scale node 0's WCET of the lowest-priority task (largest priority value),
/// so the edit dirties exactly the task analysed last.
std::string edit_lowest_priority_wcet(const std::string& text, double factor) {
  std::size_t best_line = std::string::npos;
  long best_priority = -1;
  for (std::size_t at = text.find("task name="); at != std::string::npos;
       at = text.find("task name=", at + 1)) {
    const std::size_t eol = text.find('\n', at);
    const std::size_t p = text.find("priority=", at);
    if (p == std::string::npos || p > eol) continue;
    const long priority = std::stol(text.substr(p + 9));
    if (priority > best_priority) {
      best_priority = priority;
      best_line = at;
    }
  }
  require(best_line != std::string::npos, "serve: no task to edit");
  const std::size_t node = text.find("\nnode 0 wcet=", best_line);
  require(node != std::string::npos, "serve: no node to edit");
  const std::size_t value = node + 13;
  const std::size_t end = text.find(' ', value);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g",
                std::stod(text.substr(value, end - value)) * factor);
  return text.substr(0, value) + buf + text.substr(end);
}

std::string request_body(const std::string& id, const std::string& text) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.kv("id", id);
  w.kv("taskset", text);
  w.end_object();
  return os.str();
}

/// The reference verdict: what rtpool_cli --format=json prints for `ts`.
std::string reference_report(const model::TaskSet& ts, const analysis::Analyzer& analyzer) {
  analysis::RtaContext ctx(ts);
  return lint::render_json(analyzer.analyze(ts, ctx), ts);
}

model::TaskSet parse(const std::string& text) {
  std::istringstream in(text);
  return model::read_task_set(in);
}

/// Compute `count` items in parallel, deterministically, on the runner.
template <typename T, typename Make>
std::vector<T> parallel_map(exp::ShardedRunner& runner, std::size_t count, Make make) {
  std::vector<T> out(count);
  runner.map_trials(
      count, util::Rng(0), [&](std::size_t i, util::Rng&) { return make(i); },
      [&](std::size_t i, T& value) { out[i] = std::move(value); });
  return out;
}

Inputs make_cold_inputs(exp::ShardedRunner& runner, std::uint64_t seed,
                        const analysis::Analyzer& analyzer) {
  struct System {
    std::string text;
    std::string report;
    serve::TaskSetFingerprint fp;
  };
  const std::size_t total = kColdWarmup + kColdRequests;
  const std::vector<System> systems =
      parallel_map<System>(runner, total, [&](std::size_t i) {
        System s;
        const std::string text = to_text(generate_system(seed, i));
        s.text = i % 2 == 0 ? text : rename_tasks(text, i);
        const model::TaskSet ts = parse(s.text);
        s.report = reference_report(ts, analyzer);
        s.fp = serve::fingerprint(ts);
        return s;
      });

  Inputs inputs;
  std::set<std::uint64_t> tasks;
  std::map<std::uint64_t, std::size_t> family_sizes;
  for (std::size_t i = 0; i < total; ++i) {
    const System& s = systems[i];
    for (const std::uint64_t t : s.fp.task)
      require(tasks.insert(t).second, "serve_cold: a task repeats across systems");
    Doc doc;
    doc.reference = inputs.references.size();
    doc.system = i;
    inputs.references.push_back(s.report);
    if (i < kColdWarmup) {
      doc.body = request_body(std::to_string(i), s.text);
      inputs.warmup.push_back(std::move(doc));
    } else {
      doc.body = request_body(std::to_string(i), s.text);
      inputs.timed.push_back(std::move(doc));
      ++family_sizes[s.fp.family];
    }
  }
  std::size_t colliding = 0;
  for (const auto& [family, size] : family_sizes)
    if (size > 1) colliding += size;
  inputs.family_collision_share =
      static_cast<double>(colliding) / static_cast<double>(kColdRequests);
  return inputs;
}

Inputs make_resubmit_inputs(exp::ShardedRunner& runner, std::uint64_t seed,
                            const analysis::Analyzer& analyzer) {
  Inputs inputs;
  // One task count for every system keeps the task names, and so the
  // family -> shard placement, the same for every seed.
  std::vector<std::string> bases;
  for (std::size_t s = 0; s < kSystems; ++s)
    bases.push_back(rename_tasks(to_text(generate_system(seed, s, 14)), s));

  // Warm-up: every base once (cold), then the first kResubmitWarmup requests
  // of the schedule, so a fresh service's caches and arenas are in use
  // before timing. Each schedule request resends one system in one of three
  // forms; every edit has its own WCET factor, so no edit repeats.
  for (std::size_t s = 0; s < kSystems; ++s) {
    Doc doc;
    doc.body = request_body(std::to_string(s), bases[s]);
    doc.reference = s;
    doc.system = s;
    inputs.warmup.push_back(std::move(doc));
  }
  util::Rng rng = util::Rng(seed).fork_with(0x5e5ab17ULL);
  std::vector<std::string> edit_texts;
  for (std::size_t i = 0; i < kResubmitWarmup + kResubmitRequests; ++i) {
    Doc doc;
    doc.system = rng.index(kSystems);
    doc.form = kResubmitForms[rng.index(std::size(kResubmitForms))];
    std::string text;
    if (doc.form == Form::kExact) {
      text = bases[doc.system];
      doc.reference = doc.system;
    } else if (doc.form == Form::kReserialized) {
      text = reserialize(bases[doc.system], i);
      doc.reference = doc.system;
    } else {
      text = edit_lowest_priority_wcet(
          bases[doc.system], 1.0 + 1e-4 * static_cast<double>(edit_texts.size() + 1));
      doc.reference = kSystems + edit_texts.size();
      edit_texts.push_back(text);
      if (i >= kResubmitWarmup) ++inputs.edits;
    }
    doc.body = request_body(std::to_string(i), text);
    (i < kResubmitWarmup ? inputs.warmup : inputs.timed).push_back(std::move(doc));
  }

  std::vector<std::string> all = bases;
  all.insert(all.end(), edit_texts.begin(), edit_texts.end());
  inputs.references = parallel_map<std::string>(
      runner, all.size(),
      [&](std::size_t i) { return reference_report(parse(all[i]), analyzer); });
  return inputs;
}

// ---- closed-loop rounds ----

struct Answer {
  std::string response;
  double ms = 0.0;
  bool answered = false;
};

struct RoundResult {
  std::vector<Answer> warmup;
  std::vector<Answer> timed;
  double timed_s = 0.0;
  serve::ServiceStats stats;  ///< Counters of the timed phase only.
};

serve::ServiceStats minus(const serve::ServiceStats& a, const serve::ServiceStats& b) {
  serve::ServiceStats d;
  d.completed = a.completed - b.completed;
  d.memo_hits = a.memo_hits - b.memo_hits;
  d.fast_hits = a.fast_hits - b.fast_hits;
  d.incremental = a.incremental - b.incremental;
  d.cold = a.cold - b.cold;
  d.batches = a.batches - b.batches;
  return d;
}

/// One client's way of sending a request and waiting for its response.
using Exchange = std::function<std::optional<std::string>(const Doc&)>;

/// Drive `docs` through `clients` closed loops; `make_exchange()` opens one
/// client's channel.
std::vector<Answer> closed_loop(const std::vector<Doc>& docs, std::size_t clients,
                                const std::function<Exchange()>& make_exchange) {
  std::vector<Answer> answers(docs.size());
  std::atomic<std::size_t> cursor{0};
  std::vector<std::exception_ptr> errors(clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        const Exchange exchange = make_exchange();
        for (;;) {
          const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= docs.size()) break;
          const Clock::time_point start = Clock::now();
          std::optional<std::string> response = exchange(docs[i]);
          answers[i].ms =
              std::chrono::duration<double, std::milli>(Clock::now() - start).count();
          if (!response.has_value()) break;
          answers[i].response = std::move(*response);
          answers[i].answered = true;
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  return answers;
}

/// Warm-up then timed requests against a fresh service; `make_exchange`
/// opens one client's channel to it.
RoundResult round_on(serve::AdmissionService& service, const Inputs& inputs,
                     std::size_t clients,
                     const std::function<Exchange()>& make_exchange) {
  RoundResult round;
  round.warmup = closed_loop(inputs.warmup, clients, make_exchange);
  const serve::ServiceStats before = service.stats();
  const Clock::time_point t0 = Clock::now();
  round.timed = closed_loop(inputs.timed, clients, make_exchange);
  round.timed_s = seconds_since(t0);
  round.stats = minus(service.stats(), before);
  service.request_shutdown();
  return round;
}

RoundResult tcp_round(const Inputs& inputs, std::size_t clients) {
  serve::AdmissionService service{serve::ServiceConfig{}};
  serve::TcpServer server(service, "127.0.0.1", 0);
  server.start();
  const std::uint16_t port = server.port();
  RoundResult round = round_on(service, inputs, clients, [port]() -> Exchange {
    auto socket = std::make_shared<util::Socket>(util::tcp_connect("127.0.0.1", port));
    return [socket](const Doc& doc) {
      util::write_frame(*socket, doc.body);
      return util::read_frame(*socket);
    };
  });
  server.stop();
  return round;
}

/// The same round sent to AdmissionService::submit without TCP. Each
/// request is decoded on the client thread, as a connection thread would,
/// and timed from submit to callback.
RoundResult in_process_round(const Inputs& inputs, std::size_t clients) {
  serve::AdmissionService service{serve::ServiceConfig{}};
  return round_on(service, inputs, clients, [&service]() -> Exchange {
    return [&service](const Doc& doc) -> std::optional<std::string> {
      serve::Request request = serve::decode_request(util::parse_json(doc.body));
      std::mutex mutex;
      std::condition_variable cv;
      std::optional<std::string> response;
      Clock::time_point end;
      const Clock::time_point start = Clock::now();
      service.submit(std::move(request), [&](const std::string& r) {
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(mutex);
        response = r;
        end = now;
        cv.notify_one();
      });
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return response.has_value(); });
      Tracer::instance().record("serve.request", start, end, doc.system);
      return response;
    };
  });
}

std::string member(const std::string& response, const char* key) {
  return serve::extract_member(response, key);
}

/// The path that answered `answer`, as the response names it ("cold",
/// "memo", "incremental"), except that an exact repeat answered from the
/// memo is "fast": the service answers those from its pre-parse text memo
/// and names both memos "memo".
std::string answer_path(const Doc& doc, const Answer& answer) {
  const std::string path = member(answer.response, "path");
  const std::string name = path.size() >= 2 ? path.substr(1, path.size() - 2) : path;
  return name == "memo" && doc.form == Form::kExact ? "fast" : name;
}

/// p50 of each group's latencies, 0 for a group without answers.
double p50_or_zero(const std::vector<double>& ms) {
  return ms.empty() ? 0.0 : util::percentile(ms, 50);
}

/// Every request answered, ok, with the reference report; serve_cold also
/// requires every answer to take the cold path.
void check_round(const Inputs& inputs, const RoundResult& round, bool cold_only) {
  const auto check = [&](const std::vector<Doc>& docs, const std::vector<Answer>& answers) {
    for (std::size_t i = 0; i < docs.size(); ++i) {
      const Answer& a = answers[i];
      require(a.answered, "serve: request " + std::to_string(i) + " was dropped");
      require(member(a.response, "ok") == "true",
              "serve: error response: " + a.response.substr(0, 200));
      require(member(a.response, "report") + "\n" == inputs.references[docs[i].reference],
              "serve: report of request " + std::to_string(i) +
                  " differs from the in-process reference");
      if (cold_only)
        require(member(a.response, "path") == "\"cold\"",
                "serve_cold: request answered on path " + member(a.response, "path"));
    }
  };
  check(inputs.warmup, round.warmup);
  check(inputs.timed, round.timed);
  if (cold_only)
    require(round.stats.memo_hits == 0 && round.stats.incremental == 0,
            "serve_cold: the service reused a cached answer");
}

// ---- the per-request stage replica ----

/// Runs every request of the schedule through the library calls the
/// service makes for it, on one thread, with a span per call. Returns the
/// CPU time of the stages between submit and callback per timed request.
std::vector<double> run_stage_replica(const Inputs& inputs,
                                      const analysis::Analyzer& analyzer,
                                      bool keep_donors, std::size_t& parsed_bytes) {
  struct Donor {
    std::unique_ptr<model::TaskSet> ts;
    std::unique_ptr<analysis::RtaContext> ctx;
    serve::TaskSetFingerprint fp;
  };
  std::map<std::size_t, Donor> donors;  // by system
  Tracer& tracer = Tracer::instance();
  const bool tracing = tracer.enabled();

  const auto run = [&](const Doc& doc, std::uint64_t key) -> double {
    Tracer::Scope request_span("serve.replica", key);
    std::optional<serve::Request> request;
    {
      Tracer::Scope span("serve.decode", key);
      request.emplace(serve::decode_request(util::parse_json(doc.body)));
    }
    if (doc.form == Form::kExact) return 0.0;  // fast memo: answered unparsed
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<model::TaskSet> ts;
    {
      Tracer::Scope span("model.read_task_set", key);
      std::istringstream in(request->taskset_text);
      ts = std::make_unique<model::TaskSet>(model::read_task_set(in));
    }
    parsed_bytes += request->taskset_text.size();
    serve::TaskSetFingerprint fp;
    {
      Tracer::Scope span("serve.fingerprint", key);
      fp = serve::fingerprint(*ts);
    }
    std::unique_ptr<analysis::RtaContext> ctx;
    if (doc.form != Form::kReserialized) {  // a memo hit skips analysis
      ctx = std::make_unique<analysis::RtaContext>(*ts);
      std::string report;
      {
        Tracer::Scope span("analysis.analyze", key);
        ctx->set_snapshots(true);
        const auto donor = donors.find(doc.system);
        if (doc.form == Form::kEdit && donor != donors.end()) {
          const Donor& d = donor->second;
          std::vector<std::optional<std::size_t>> task_map(ts->size());
          std::vector<char> dirty(ts->size(), 0);
          for (std::size_t i = 0; i < ts->size(); ++i) {
            for (std::size_t j = 0; j < d.ts->size(); ++j) {
              if (ts->task(i).name() == d.ts->task(j).name()) {
                task_map[i] = j;
                dirty[i] = fp.task[i] != d.fp.task[j] ? 1 : 0;
                break;
              }
            }
          }
          ctx->begin_incremental(*d.ctx, task_map, dirty);
        }
        const analysis::Report result = analyzer.analyze(*ts, *ctx);
        Tracer::Scope render("lint.render_json", key);
        report = lint::render_json(result, *ts);
      }
      require(report == inputs.references[doc.reference],
              "serve: the stage replica's report differs from the reference");
    }
    {
      Tracer::Scope span("model.write_task_set", key);  // the memo's canonical text
      std::ostringstream os;
      model::write_task_set(os, *ts);
    }
    const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (keep_donors && ctx != nullptr)
      donors[doc.system] = Donor{std::move(ts), std::move(ctx), std::move(fp)};
    return ms;
  };

  tracer.set_enabled(false);
  for (std::size_t i = 0; i < inputs.warmup.size(); ++i)
    run(inputs.warmup[i], inputs.timed.size() + i);
  parsed_bytes = 0;
  tracer.set_enabled(tracing);
  std::vector<double> stage_ms;
  for (std::size_t i = 0; i < inputs.timed.size(); ++i)
    stage_ms.push_back(run(inputs.timed[i], i));
  return stage_ms;
}

}  // namespace

Outcome run_serve(const Options& options, bool resubmit) {
  const analysis::Analyzer& analyzer =
      analysis::get_analyzer(serve::ServiceConfig{}.analyzer);
  const std::size_t clients =
      std::min<std::size_t>(kClients, static_cast<std::size_t>(options.threads));
  Tracer& tracer = Tracer::instance();
  exp::ShardedRunner runner(options.threads);
  Inputs inputs;

  // Set-up: generate the systems, compute their reference reports, and run
  // the warm-up requests against a fresh service once.
  const double setup_s = timed_setup([&](int rep) {
    tracer.set_enabled(options.trace && rep == kSetups - 1);
    inputs = resubmit ? make_resubmit_inputs(runner, options.seed, analyzer)
                      : make_cold_inputs(runner, options.seed, analyzer);
    tracer.set_enabled(false);
    Inputs warmup_only;
    warmup_only.warmup = inputs.warmup;
    warmup_only.references = inputs.references;
    check_round(warmup_only, tcp_round(warmup_only, clients), !resubmit);
  });
  const std::vector<Span> setup_spans = tracer.spans();
  tracer.clear();

  // Every metric is the median over rounds of that round's value, so a
  // round slowed by something outside the service does not move it.
  Outcome outcome;
  std::vector<double> rates, p50s, p99s;
  std::map<std::string, std::vector<double>> form_p50s;
  const auto timed_round = [&]() {
    const Clock::time_point r0 = Clock::now();
    const RoundResult round = tcp_round(inputs, clients);
    const double wall = seconds_since(r0);
    check_round(inputs, round, !resubmit);
    outcome.attempted += inputs.timed.size();
    rates.push_back(static_cast<double>(inputs.timed.size()) / round.timed_s);
    std::vector<double> latencies;
    std::map<std::string, std::vector<double>> by_form;
    for (std::size_t i = 0; i < round.timed.size(); ++i) {
      latencies.push_back(round.timed[i].ms);
      by_form[form_name(inputs.timed[i].form)].push_back(round.timed[i].ms);
    }
    p50s.push_back(util::percentile(latencies, 50));
    p99s.push_back(util::percentile(latencies, 99));
    for (const auto& [form, ms] : by_form) form_p50s[form].push_back(p50_or_zero(ms));
    return wall;
  };
  if (options.trace) {
    timed_round();  // the traced run's TCP reference
  } else {
    repeat_passes(options.seconds, timed_round);
    std::printf("%s: %zu rounds of %zu requests from %zu clients, requests_per_s "
                "%.1f, latency p50 %.3f ms p99 %.3f ms (%zu samples a round), "
                "family collision share %.3f\n",
                options.workload.c_str(), rates.size(), inputs.timed.size(), clients,
                median(rates), median(p50s), median(p99s), inputs.timed.size(),
                inputs.family_collision_share);
    std::printf("latency p50 by request form (ms):");
    for (const auto& [form, values] : form_p50s)
      std::printf(" %s %.3f", form.c_str(), median(values));
    std::printf("\n");
    add_end_to_end(outcome, median(rates), median(p50s), median(p99s), setup_s);
    return outcome;
  }

  // Traced run: the in-process round untraced and traced, then the replica.
  const RoundResult plain = in_process_round(inputs, clients);
  check_round(inputs, plain, !resubmit);
  tracer.set_enabled(true);
  const RoundResult traced = in_process_round(inputs, clients);
  check_round(inputs, traced, !resubmit);
  std::size_t parsed_bytes = 0;
  const std::vector<double> stage_ms =
      run_stage_replica(inputs, analyzer, resubmit, parsed_bytes);
  tracer.set_enabled(false);

  std::vector<Span> spans = tracer.spans();
  const std::map<std::string, SpanTotals> totals = Tracer::totals(spans);
  const double n = static_cast<double>(inputs.timed.size());
  const auto us_per_req = [&](const char* span) {
    return total_of(totals, span).total_s * 1e6 / n;
  };
  LayerMetrics layers;
  const SpanTotals setup_generate = total_of(Tracer::totals(setup_spans), "gen.generate");
  layers.set("gen.busy_s", setup_generate.total_s);
  layers.set("gen.calls", static_cast<double>(setup_generate.count));
  const double parse_s = total_of(totals, "model.read_task_set").total_s;
  layers.set("model.parse_us_per_req", us_per_req("model.read_task_set"));
  layers.set("model.parse_mb_per_s",
             parse_s > 0.0 ? static_cast<double>(parsed_bytes) / 1e6 / parse_s : 0.0);
  layers.set("model.serialize_us_per_req", us_per_req("model.write_task_set"));
  layers.set("serve.decode_us_per_req", us_per_req("serve.decode"));
  layers.set("serve.fingerprint_us_per_req", us_per_req("serve.fingerprint"));
  const SpanTotals analyze = total_of(totals, "analysis.analyze");
  layers.set("analysis.analyze_us_per_req", analyze.self_s * 1e6 / n);
  layers.set("analysis.analyze_busy_s", analyze.self_s);
  layers.set("analysis.analyze_calls", static_cast<double>(analyze.count));
  layers.set("lint.render_us_per_req", us_per_req("lint.render_json"));

  std::vector<double> service_ms, queue_ms;
  std::map<std::string, std::vector<double>> by_path;
  for (std::size_t i = 0; i < traced.timed.size(); ++i) {
    service_ms.push_back(traced.timed[i].ms);
    queue_ms.push_back(traced.timed[i].ms - stage_ms[i]);
    by_path[answer_path(inputs.timed[i], traced.timed[i])].push_back(traced.timed[i].ms);
  }
  for (std::size_t i = 0; i < traced.warmup.size(); ++i)
    by_path[answer_path(inputs.warmup[i], traced.warmup[i])].push_back(traced.warmup[i].ms);
  const double service_p50 = util::percentile(service_ms, 50);
  layers.set("serve.service_p50_ms", service_p50);
  layers.set("serve.service_p99_ms", util::percentile(service_ms, 99));
  layers.set("serve.transport_p50_ms", p50s.front() - service_p50);
  layers.set("serve.queue_wait_p50_ms", util::percentile(queue_ms, 50));
  const serve::ServiceStats& st = traced.stats;
  layers.set("serve.path_share.fast", static_cast<double>(st.fast_hits) / n);
  layers.set("serve.path_share.memo", static_cast<double>(st.memo_hits - st.fast_hits) / n);
  layers.set("serve.path_share.incremental", static_cast<double>(st.incremental) / n);
  layers.set("serve.path_share.cold", static_cast<double>(st.cold) / n);
  for (const char* path : {"cold", "fast", "memo", "incremental"})
    layers.set(std::string("serve.latency_p50_ms.") + path, p50_or_zero(by_path[path]));
  if (inputs.edits > 0)
    layers.set("serve.incremental_yield",
               static_cast<double>(st.incremental) / static_cast<double>(inputs.edits));
  if (st.batches > 0)
    layers.set("serve.mean_batch", static_cast<double>(st.completed - st.fast_hits) /
                                       static_cast<double>(st.batches));
  layers.set("serve.family_collision_share", inputs.family_collision_share);
  std::printf("%s traced: paths fast %llu memo %llu incremental %llu cold %llu of "
              "%zu (edits %zu), batches %llu\n",
              options.workload.c_str(), static_cast<unsigned long long>(st.fast_hits),
              static_cast<unsigned long long>(st.memo_hits - st.fast_hits),
              static_cast<unsigned long long>(st.incremental),
              static_cast<unsigned long long>(st.cold), inputs.timed.size(),
              inputs.edits, static_cast<unsigned long long>(st.batches));
  print_self_times(totals);

  set_trace_overhead(layers, plain.timed_s, traced.timed_s, spans.size());
  spans.insert(spans.end(), setup_spans.begin(), setup_spans.end());
  Tracer::write_chrome_trace(options.out_dir + "/trace-" + options.workload + "-seed" +
                                 std::to_string(options.seed) + ".json",
                             spans, stamp_json());
  layers.add_to(outcome);
  return outcome;
}

}  // namespace perfbench
