// Tests for the rtpool-serve admission service: wire protocol decoding,
// content fingerprints, the cold and memo service paths and their
// counters, verdict bit-identity against a direct analyzer run, hot
// reconfiguration under load (nothing dropped), and the TCP frame server.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/rta_context.h"
#include "gen/taskset_generator.h"
#include "lint/render.h"
#include "model/io.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/json.h"
#include "util/net.h"
#include "util/rng.h"

namespace rtpool::serve {
namespace {

// ---------------------------------------------------------------------------
// Fixtures: a small generated system and textual mutations of it.

std::string generate_taskset_text(std::uint64_t seed, std::size_t tasks = 6) {
  gen::TaskSetParams params;
  params.cores = 4;
  params.task_count = tasks;
  params.total_utilization = 0.5 * 4.0;
  for (std::uint64_t salt = 0;; ++salt) {
    util::Rng rng(seed * 7919 + salt);
    try {
      std::ostringstream os;
      model::write_task_set(os, gen::generate_task_set(params, rng));
      return os.str();
    } catch (const gen::GenerationError&) {
      if (salt > 50) throw;
    }
  }
}

/// Scale the first `node ... wcet=` line of the LOWEST-priority task block
/// (numerically largest `priority=`): keeps the task-name multiset (same
/// family) while dirtying exactly one task, the last in priority order.
std::string mutate_lowest_priority_task(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::size_t best_task_line = std::string::npos;
  long best_priority = -1;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t at = lines[i].rfind("priority=");
    if (lines[i].rfind("task ", 0) != 0 || at == std::string::npos) continue;
    const long priority = std::stol(lines[i].substr(at + 9));
    if (priority > best_priority) {
      best_priority = priority;
      best_task_line = i;
    }
  }
  EXPECT_NE(best_task_line, std::string::npos);
  for (std::size_t i = best_task_line + 1; i < lines.size(); ++i) {
    if (lines[i].rfind("endtask", 0) == 0) break;
    const std::size_t at = lines[i].find("wcet=");
    if (lines[i].rfind("node ", 0) != 0 || at == std::string::npos) continue;
    std::size_t end = lines[i].find(' ', at);
    if (end == std::string::npos) end = lines[i].size();
    const double wcet = std::stod(lines[i].substr(at + 5, end - (at + 5)));
    std::ostringstream patched;
    patched << lines[i].substr(0, at + 5) << wcet * 1.25
            << lines[i].substr(end);
    lines[i] = patched.str();
    break;
  }
  std::ostringstream out;
  for (const std::string& l : lines) out << l << '\n';
  return out.str();
}

model::TaskSet parse_taskset(const std::string& text) {
  std::istringstream in(text);
  return model::read_task_set(in);
}

/// What the service must embed as "report": the same render the CLI's
/// --format=json path produces (default options, shared context).
std::string reference_report(const std::string& text, const std::string& name) {
  const model::TaskSet ts = parse_taskset(text);
  analysis::RtaContext ctx(ts);
  const analysis::AnalyzerOptions opts;
  return lint::render_json(analysis::get_analyzer(name).analyze(ts, ctx, opts),
                           ts);
}

Request submit_request(const std::string& text, const std::string& id,
                       const std::string& analyzer = "global-limited") {
  Request req;
  req.kind = Request::Kind::kSubmit;
  req.id = id;
  req.analyzer = analyzer;
  req.taskset_text = text;
  return req;
}

/// Submit synchronously: returns the rendered response document.
std::string submit_sync(AdmissionService& service, Request req) {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  service.submit(std::move(req),
                 [&promise](const std::string& r) { promise.set_value(r); });
  return future.get();
}

// ---------------------------------------------------------------------------
// Protocol decoding.

TEST(ServeProtocolTest, DecodesSubmission) {
  const Request req = decode_request(util::parse_json(
      R"({"id":"r1","analyzer":"federated","wcet_scale":1.5,)"
      R"("certify":true,"taskset":"taskset cores=1\n"})"));
  EXPECT_EQ(req.kind, Request::Kind::kSubmit);
  EXPECT_EQ(req.id, "r1");
  EXPECT_EQ(req.analyzer, "federated");
  EXPECT_DOUBLE_EQ(req.wcet_scale, 1.5);
  EXPECT_TRUE(req.certify);
  EXPECT_EQ(req.taskset_text, "taskset cores=1\n");
}

TEST(ServeProtocolTest, DecodesControlCommands) {
  EXPECT_EQ(decode_request(util::parse_json(R"({"cmd":"stats"})")).kind,
            Request::Kind::kStats);
  EXPECT_EQ(decode_request(util::parse_json(R"({"cmd":"shutdown"})")).kind,
            Request::Kind::kShutdown);
  const Request reload = decode_request(util::parse_json(
      R"({"cmd":"reload","workers":3,"batch":16,"analyzer":"federated"})"));
  EXPECT_EQ(reload.kind, Request::Kind::kReload);
  EXPECT_EQ(reload.reload_workers, std::optional<std::size_t>{3});
  EXPECT_EQ(reload.reload_batch, std::optional<std::size_t>{16});
  EXPECT_EQ(reload.reload_analyzer, std::optional<std::string>{"federated"});
  EXPECT_FALSE(reload.reload_shards.has_value());
  EXPECT_FALSE(reload.reload_cache.has_value());
}

TEST(ServeProtocolTest, RejectsMalformedRequests) {
  EXPECT_THROW(decode_request(util::parse_json("[1,2]")), ProtocolError);
  EXPECT_THROW(decode_request(util::parse_json(R"({"cmd":"nope"})")),
               ProtocolError);
  EXPECT_THROW(decode_request(util::parse_json(R"({"id":"x"})")),
               ProtocolError);  // no taskset, no cmd
  EXPECT_THROW(decode_request(util::parse_json(
                   R"({"taskset":"t","wcet_scale":0})")),
               ProtocolError);
  EXPECT_THROW(decode_request(util::parse_json(
                   R"({"taskset":"t","wcet_scale":-1})")),
               ProtocolError);
}

TEST(ServeProtocolTest, ExtractMemberReturnsRawBytes) {
  const std::string doc =
      R"({"a":{"nested":"}b{"},"report":{"x":[1,2],"s":"\"}\""},"z":1})";
  EXPECT_EQ(extract_member(doc, "report"), R"({"x":[1,2],"s":"\"}\""})");
  EXPECT_EQ(extract_member(doc, "z"), "1");
  EXPECT_EQ(extract_member(doc, "missing"), "");
}

// ---------------------------------------------------------------------------
// Fingerprints.

TEST(ServeFingerprintTest, MutationKeepsFamilyChangesOneTask) {
  const std::string base = generate_taskset_text(11);
  const std::string mutated = mutate_lowest_priority_task(base);
  ASSERT_NE(base, mutated);
  const TaskSetFingerprint a = fingerprint(parse_taskset(base));
  const TaskSetFingerprint b = fingerprint(parse_taskset(mutated));
  EXPECT_EQ(a.family, b.family) << "WCET mutation must keep the family";
  EXPECT_NE(a.set, b.set);
  ASSERT_EQ(a.task.size(), b.task.size());
  std::size_t changed = 0;
  for (std::size_t i = 0; i < a.task.size(); ++i)
    changed += a.task[i] != b.task[i] ? 1 : 0;
  EXPECT_EQ(changed, 1u) << "exactly the mutated task's hash must change";
}

TEST(ServeFingerprintTest, DeterministicAcrossReparse) {
  const std::string text = generate_taskset_text(12);
  const TaskSetFingerprint a = fingerprint(parse_taskset(text));
  const TaskSetFingerprint b = fingerprint(parse_taskset(text));
  EXPECT_EQ(a.set, b.set);
  EXPECT_EQ(a.family, b.family);
  EXPECT_EQ(a.task, b.task);
}

// ---------------------------------------------------------------------------
// Service paths, counters, and verdict bit-identity.

TEST(AdmissionServiceTest, ColdAndMemoPaths) {
  ServiceConfig config;
  config.workers = 2;
  config.shards = 2;
  AdmissionService service(config);
  const std::string text = generate_taskset_text(21);
  const std::string expected = reference_report(text, "global-limited");

  // 1. Cold: full analysis; report must be byte-identical to the reference.
  const std::string first = submit_sync(service, submit_request(text, "a"));
  EXPECT_EQ(util::parse_json(first).at("path").as_string(), "cold");
  EXPECT_TRUE(util::parse_json(first).at("ok").as_bool());
  EXPECT_EQ(extract_member(first, "report") + "\n", expected);

  // 2. Byte-identical resubmission: answered pre-parse from the fast memo.
  const std::string second = submit_sync(service, submit_request(text, "b"));
  EXPECT_EQ(util::parse_json(second).at("path").as_string(), "memo");
  EXPECT_EQ(extract_member(second, "report"), extract_member(first, "report"));
  EXPECT_EQ(service.stats().fast_hits, 1u);

  // 3. Same content, different bytes (trailing blank line): misses the
  //    text-keyed fast memo and is analyzed cold, to the same report.
  const std::string third = submit_sync(service, submit_request(text + "\n", "c"));
  EXPECT_EQ(util::parse_json(third).at("path").as_string(), "cold");
  EXPECT_EQ(extract_member(third, "report"), extract_member(first, "report"));

  // 4. Mutated resubmission of the same family: analyzed cold, and the
  //    verdict is byte-identical to a reference run of the mutated set.
  const std::string mutated = mutate_lowest_priority_task(text);
  const std::string fourth = submit_sync(service, submit_request(mutated, "d"));
  EXPECT_EQ(util::parse_json(fourth).at("path").as_string(), "cold");
  EXPECT_EQ(extract_member(fourth, "report") + "\n",
            reference_report(mutated, "global-limited"));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.received, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.cold, 3u);
  EXPECT_EQ(stats.fast_hits, 1u);
  EXPECT_EQ(stats.memo_hits, stats.fast_hits);
  EXPECT_EQ(stats.incremental, 0u);
}

TEST(AdmissionServiceTest, CacheZeroDisablesEveryWarmPath) {
  ServiceConfig config;
  config.workers = 1;
  config.shards = 1;
  config.cache = 0;  // the naive baseline the bench compares against
  AdmissionService service(config);
  const std::string text = generate_taskset_text(22);
  for (const char* id : {"a", "b", "c"}) {
    const std::string response =
        submit_sync(service, submit_request(text, id));
    EXPECT_EQ(util::parse_json(response).at("path").as_string(), "cold");
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cold, 3u);
  EXPECT_EQ(stats.memo_hits, 0u);
  EXPECT_EQ(stats.fast_hits, 0u);
}

TEST(AdmissionServiceTest, VerdictsMatchEveryRegisteredAnalyzer) {
  ServiceConfig config;
  config.workers = 2;
  AdmissionService service(config);
  const std::string text = generate_taskset_text(23);
  for (const analysis::Analyzer* analyzer : analysis::registered_analyzers()) {
    const std::string name(analyzer->name());
    const std::string response =
        submit_sync(service, submit_request(text, "id-" + name, name));
    const util::JsonValue doc = util::parse_json(response);
    ASSERT_TRUE(doc.at("ok").as_bool()) << name << ": " << response;
    EXPECT_EQ(doc.at("analyzer").as_string(), name);
    EXPECT_EQ(extract_member(response, "report") + "\n",
              reference_report(text, name))
        << "served report differs from direct render for " << name;
  }
}

TEST(AdmissionServiceTest, InvalidSubmissionsGetErrorResponses) {
  AdmissionService service(ServiceConfig{});
  {
    const std::string response =
        submit_sync(service, submit_request("not a taskset", "bad1"));
    const util::JsonValue doc = util::parse_json(response);
    EXPECT_FALSE(doc.at("ok").as_bool());
    EXPECT_EQ(doc.at("id").as_string(), "bad1");
  }
  {
    const std::string response = submit_sync(
        service,
        submit_request(generate_taskset_text(24), "bad2", "no-such-analyzer"));
    EXPECT_FALSE(util::parse_json(response).at("ok").as_bool());
  }
  {
    // A NaN WCET fails every comparison, so only the model's finiteness
    // check stops it; the error names the task.
    std::string text = generate_taskset_text(24);
    const std::size_t name_at = text.find("task name=") + 10;
    const std::string task_name =
        text.substr(name_at, text.find(' ', name_at) - name_at);
    const std::size_t wcet_at = text.find("wcet=", name_at) + 5;
    text.replace(wcet_at, text.find(' ', wcet_at) - wcet_at, "nan");
    const util::JsonValue doc =
        util::parse_json(submit_sync(service, submit_request(text, "bad3")));
    EXPECT_FALSE(doc.at("ok").as_bool());
    EXPECT_NE(doc.at("error").as_string().find(task_name), std::string::npos)
        << doc.at("error").as_string();
  }
  EXPECT_EQ(service.stats().errors, 3u);
}

TEST(AdmissionServiceTest, ShutdownRejectsNewSubmissions) {
  AdmissionService service(ServiceConfig{});
  const std::string text = generate_taskset_text(25);
  EXPECT_TRUE(util::parse_json(submit_sync(service, submit_request(text, "x")))
                  .at("ok")
                  .as_bool());
  service.request_shutdown();
  EXPECT_TRUE(service.shutdown_requested());
  EXPECT_FALSE(util::parse_json(submit_sync(service, submit_request(text, "y")))
                   .at("ok")
                   .as_bool());
}

TEST(AdmissionServiceTest, ReloadUnderLoadDropsNothing) {
  ServiceConfig config;
  config.workers = 2;
  config.shards = 2;
  config.batch = 4;
  AdmissionService service(config);

  std::vector<std::string> texts;
  for (std::uint64_t seed = 30; seed < 34; ++seed)
    texts.push_back(generate_taskset_text(seed));

  // Every report must be byte-identical to a fresh-context analysis,
  // whichever epoch served it.
  std::vector<std::string> references;
  for (const std::string& text : texts)
    references.push_back(reference_report(text, "global-limited"));

  constexpr int kRequests = 120;
  std::atomic<int> answered{0};
  std::atomic<int> failed{0};
  std::atomic<int> mismatched{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  const auto on_response = [&](const std::string& response) {
    const util::JsonValue doc = util::parse_json(response);
    if (!doc.at("ok").as_bool()) {
      failed.fetch_add(1, std::memory_order_relaxed);
    } else {
      const std::size_t i = std::stoul(doc.at("id").as_string().substr(1));
      if (extract_member(response, "report") + "\n" !=
          references[i % references.size()])
        mismatched.fetch_add(1, std::memory_order_relaxed);
    }
    if (answered.fetch_add(1, std::memory_order_relaxed) + 1 == kRequests) {
      std::lock_guard<std::mutex> lock(done_mutex);
      done_cv.notify_all();
    }
  };

  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = t; i < kRequests; i += 3)
        service.submit(
            submit_request(texts[static_cast<std::size_t>(i) % texts.size()],
                           "r" + std::to_string(i)),
            on_response);
    });
  }
  // Reconfigure while the submitters are blasting: workers down, batch up.
  const ServiceConfig committed =
      service.reload(std::nullopt, 1, std::nullopt, 8, std::nullopt);
  EXPECT_EQ(committed.workers, 1u);
  EXPECT_EQ(committed.batch, 8u);
  for (std::thread& t : submitters) t.join();

  std::unique_lock<std::mutex> lock(done_mutex);
  ASSERT_TRUE(done_cv.wait_for(lock, std::chrono::seconds(60), [&] {
    return answered.load(std::memory_order_relaxed) == kRequests;
  })) << "only " << answered.load() << "/" << kRequests << " answered";
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(mismatched.load(), 0);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.received, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_GE(stats.reloads, 1u);
  // The worker delta reached the pool: the stats response reports it.
  Request stats_request;
  stats_request.kind = Request::Kind::kStats;
  const util::JsonValue reply =
      util::parse_json(submit_sync(service, stats_request));
  EXPECT_EQ(reply.at("config").at("pool_workers").as_number(), 1.0);
}

TEST(AdmissionServiceTest, RejectsWorkerAndShardCountsAboveTheBound) {
  // Validation runs before any thread or shard exists, at construction and
  // on reload, so these calls start nothing they reject.
  constexpr std::size_t kTooMany = ServiceConfig::kMaxWorkersAndShards + 1;
  ServiceConfig too_many_workers;
  too_many_workers.workers = kTooMany;
  EXPECT_THROW(AdmissionService{too_many_workers}, std::invalid_argument);
  ServiceConfig too_many_shards;
  too_many_shards.shards = kTooMany;
  EXPECT_THROW(AdmissionService{too_many_shards}, std::invalid_argument);

  AdmissionService service(ServiceConfig{});
  EXPECT_THROW(service.reload(std::nullopt, kTooMany, std::nullopt,
                              std::nullopt, std::nullopt),
               std::invalid_argument);
  EXPECT_THROW(service.reload(std::nullopt, std::nullopt, kTooMany,
                              std::nullopt, std::nullopt),
               std::invalid_argument);
  EXPECT_EQ(service.config_version(), 1u);
  EXPECT_EQ(service.config().workers, ServiceConfig{}.workers);
  EXPECT_EQ(service.config().shards, ServiceConfig{}.shards);
}

TEST(AdmissionServiceTest, ReloadKeepingShardCountSwitchesAnalyzerAndCache) {
  // Same shard count: the shard objects carry over, while the new default
  // analyzer and the disabled memo apply to the next request.
  ServiceConfig config;
  config.workers = 2;
  config.shards = 2;
  AdmissionService service(config);
  const std::string text = generate_taskset_text(28);
  const std::string first =
      submit_sync(service, submit_request(text, "a", /*analyzer=*/""));
  EXPECT_EQ(util::parse_json(first).at("analyzer").as_string(),
            "global-limited");

  service.reload("global-baseline", std::nullopt, std::nullopt, std::nullopt,
                 /*cache=*/0);
  const std::string second =
      submit_sync(service, submit_request(text, "b", /*analyzer=*/""));
  const util::JsonValue doc = util::parse_json(second);
  EXPECT_EQ(doc.at("analyzer").as_string(), "global-baseline");
  EXPECT_EQ(doc.at("path").as_string(), "cold");
  EXPECT_EQ(extract_member(second, "report") + "\n",
            reference_report(text, "global-baseline"));
  EXPECT_EQ(service.stats().cold, 2u);
}

TEST(AdmissionServiceTest, ThrowingDeliveryCallbackDoesNotWedgeDispatch) {
  // Regression: an exception escaping per-request processing on a pool
  // worker used to leave dispatch_scheduled set and the active/pending
  // counters undrained, permanently wedging the shard — wait_idle() and
  // the destructor would hang.
  AdmissionService service(ServiceConfig{});
  std::promise<void> first_called;
  service.submit(submit_request(generate_taskset_text(26), "boom"),
                 [&](const std::string&) {
                   first_called.set_value();
                   throw std::runtime_error("client callback exploded");
                 });
  first_called.get_future().wait();
  service.wait_idle();  // hangs without the run_dispatch exception guard

  // The shard still dispatches subsequent work.
  const std::string response =
      submit_sync(service, submit_request(generate_taskset_text(27), "after"));
  EXPECT_TRUE(util::parse_json(response).at("ok").as_bool());
  EXPECT_EQ(service.stats().completed, 2u);
}

TEST(AdmissionServiceTest, ShardReplacingReloadStormDropsNothing) {
  // Hammers the submit/reload race: every reload here changes the shard
  // count, so queued submissions are re-routed into brand-new shard
  // objects — the exact path where a racing push used to land in a retired
  // shard's queue after its re-route pass and sit there forever.
  ServiceConfig config;
  config.workers = 2;
  config.shards = 2;
  config.batch = 2;
  AdmissionService service(config);

  std::vector<std::string> texts;
  for (std::uint64_t seed = 50; seed < 54; ++seed)
    texts.push_back(generate_taskset_text(seed));

  constexpr int kRequests = 160;
  std::atomic<int> answered{0};
  std::atomic<int> failed{0};
  const auto on_response = [&](const std::string& response) {
    if (!util::parse_json(response).at("ok").as_bool())
      failed.fetch_add(1, std::memory_order_relaxed);
    answered.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = t; i < kRequests; i += 4)
        service.submit(
            submit_request(texts[static_cast<std::size_t>(i) % texts.size()],
                           "s" + std::to_string(i)),
            on_response);
    });
  }
  for (int r = 0; r < 6; ++r)
    service.reload(std::nullopt, std::nullopt, r % 2 == 0 ? 3 : 2,
                   std::nullopt, std::nullopt);
  for (std::thread& t : submitters) t.join();
  service.wait_idle();  // hangs if any submission was stranded

  EXPECT_EQ(answered.load(), kRequests);
  EXPECT_EQ(failed.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.received, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_GE(stats.reloads, 6u);
}

// ---------------------------------------------------------------------------
// Frame transport + TCP server end to end.

TEST(ServeNetTest, FrameRoundTripOverLoopback) {
  util::TcpListener listener("127.0.0.1", 0);
  std::string received;
  std::thread echo([&] {
    util::Socket conn = listener.accept();
    ASSERT_TRUE(conn.valid());
    const std::optional<std::string> frame = util::read_frame(conn);
    ASSERT_TRUE(frame.has_value());
    received = *frame;
    util::write_frame(conn, "pong:" + *frame);
  });
  util::Socket client = util::tcp_connect("127.0.0.1", listener.port());
  // Embedded NUL and non-ASCII bytes must survive the frame transport.
  const std::string payload = std::string("ping\0\xff\n", 7);
  util::write_frame(client, payload);
  const std::optional<std::string> reply = util::read_frame(client);
  echo.join();
  EXPECT_EQ(received, payload);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "pong:" + payload);
}

TEST(ServeNetTest, TcpServerAnswersAndShutsDown) {
  ServiceConfig config;
  config.workers = 2;
  AdmissionService service(config);
  TcpServer server(service, "127.0.0.1", 0);  // ephemeral port
  server.start();

  const std::string text = generate_taskset_text(40);
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object().kv("id", "tcp1").kv("taskset", text).end_object();

  util::Socket client = util::tcp_connect("127.0.0.1", server.port());
  util::write_frame(client, os.str());
  const std::optional<std::string> response = util::read_frame(client);
  ASSERT_TRUE(response.has_value());
  const util::JsonValue doc = util::parse_json(*response);
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("id").as_string(), "tcp1");
  EXPECT_EQ(extract_member(*response, "report") + "\n",
            reference_report(text, service.config().analyzer));

  // A malformed document gets an error response, not a dropped connection.
  util::write_frame(client, "{\"cmd\":\"nope\"}");
  const std::optional<std::string> error = util::read_frame(client);
  ASSERT_TRUE(error.has_value());
  EXPECT_FALSE(util::parse_json(*error).at("ok").as_bool());

  util::write_frame(client, R"({"cmd":"shutdown"})");
  const std::optional<std::string> ack = util::read_frame(client);
  ASSERT_TRUE(ack.has_value());
  server.wait();
  server.stop();
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(ServeNetTest, ReapsFinishedConnectionThreads) {
  // A long-lived daemon must not hold one joinable thread handle per
  // connection it has ever served: housekeeping reaps finished connection
  // threads, so after every client disconnects the tracked count drains
  // back to zero without stop().
  AdmissionService service(ServiceConfig{});
  TcpServer server(service, "127.0.0.1", 0);
  server.start();
  for (int i = 0; i < 5; ++i) {
    util::Socket client = util::tcp_connect("127.0.0.1", server.port());
    util::write_frame(client, R"({"cmd":"stats"})");
    ASSERT_TRUE(util::read_frame(client).has_value());
  }  // client closes at scope exit
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.tracked_connections() > 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server.tracked_connections(), 0u);
  server.stop();
}

}  // namespace
}  // namespace rtpool::serve
