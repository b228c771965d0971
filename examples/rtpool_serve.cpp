// rtpool-serve: the streaming admission daemon (and its test client).
//
// Server (TCP):
//   rtpool_serve --port 7411 [--host 127.0.0.1] [--analyzer NAME]
//                [--workers N] [--cache N] [--config serve.json]
//                [--print-port]
//
//   Speaks length-prefixed frames (4-byte big-endian length + one JSON
//   request document per frame; see src/serve/protocol.h). Responses are
//   framed the same way and may arrive OUT OF ORDER relative to pipelined
//   submissions — match them by "id". `--print-port` prints the bound port
//   (resolving --port 0) on the first stdout line, for scripts and tests.
//   SIGHUP re-reads --config (the "reload" command's JSON, "cmd" optional:
//   {"workers": 2, "analyzer": "global-baseline"} is a complete file) and
//   applies it as a hot reload; in-flight requests are never dropped.
//
// Server (stdin stream):
//   rtpool_serve --stdin < requests.jsonl
//
//   Newline/whitespace-delimited JSON documents on stdin (framed by the
//   JSON grammar itself — util::JsonStreamParser — so split buffers and
//   multiple documents per line both work); responses are printed to
//   stdout one per line, matched by "id".
//
// Client (one-shot, for scripts and the serve-smoke CI job):
//   rtpool_serve --connect HOST:PORT --file x.taskset [--analyzer NAME]
//                [--certify] [--id ID] [--extract-report]
//   rtpool_serve --connect HOST:PORT --cmd stats|shutdown
//   rtpool_serve --connect HOST:PORT --cmd reload [--workers N] [--cache N]
//                [--analyzer NAME]
//
//   Sends one request and prints the response. With --extract-report only
//   the raw "report" member is printed — byte-identical to
//   `rtpool_cli --file x.taskset --analyzer NAME --format=json`, which is
//   exactly what the CI smoke job diffs.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/args.h"
#include "util/json.h"
#include "util/net.h"

namespace {

using namespace rtpool;

volatile std::sig_atomic_t g_reload_requested = 0;

void on_sighup(int) { g_reload_requested = 1; }

serve::ServiceConfig config_from_args(const util::Args& args) {
  serve::ServiceConfig config;
  config.analyzer = args.get_string("analyzer", config.analyzer);
  config.workers = args.get_uint64("workers", config.workers);
  config.cache = args.get_uint64("cache", config.cache);
  return config;
}

/// Apply a --config file (the "reload" JSON shape) as a hot reload.
void reload_from_file(serve::AdmissionService& service, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "rtpool_serve: cannot read config '%s'\n", path.c_str());
    return;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  try {
    // A bare {"analyzer": ..., "workers": ...} object (no "cmd") is the
    // natural config-file shape: it is a reload.
    util::JsonValue::Object members =
        util::parse_json(buffer.str()).as_object();
    members.emplace("cmd", util::JsonValue(std::string("reload")));
    const serve::Request req =
        serve::decode_request(util::JsonValue(std::move(members)));
    if (req.kind != serve::Request::Kind::kReload)
      throw std::invalid_argument("config 'cmd' must be \"reload\"");
    const serve::ServiceConfig committed = service.reload(
        req.reload_analyzer, req.reload_workers, req.reload_cache);
    std::fprintf(stderr,
                 "rtpool_serve: reloaded (analyzer=%s workers=%zu cache=%zu, "
                 "version %llu)\n",
                 committed.analyzer.c_str(), committed.workers, committed.cache,
                 static_cast<unsigned long long>(service.config_version()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtpool_serve: reload failed: %s\n", e.what());
  }
}

int run_server_tcp(const util::Args& args) {
  const std::uint64_t port = args.get_uint64("port", 7411);
  if (port > 65535)
    throw std::invalid_argument("--port " + std::to_string(port) +
                                " is outside 0-65535");
  serve::AdmissionService service(config_from_args(args));
  const std::string config_file = args.get_string("config", "");
  if (!config_file.empty()) std::signal(SIGHUP, on_sighup);

  serve::TcpServer server(service, args.get_string("host", "127.0.0.1"),
                          static_cast<std::uint16_t>(port));
  if (args.get_bool("print-port", false)) {
    std::printf("%u\n", server.port());
    std::fflush(stdout);
  }
  std::fprintf(stderr, "rtpool_serve: listening on port %u\n", server.port());
  server.start();

  // SIGHUP watcher: applies --config as a hot reload without blocking the
  // accept loop.
  std::thread reload_watcher;
  std::atomic<bool> stop_watcher{false};
  if (!config_file.empty()) {
    reload_watcher = std::thread([&] {
      while (!stop_watcher.load(std::memory_order_acquire)) {
        if (g_reload_requested) {
          g_reload_requested = 0;
          reload_from_file(service, config_file);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }

  server.wait();  // until a "shutdown" request closes the listener
  stop_watcher.store(true, std::memory_order_release);
  if (reload_watcher.joinable()) reload_watcher.join();
  server.stop();
  service.request_shutdown();
  return 0;
}

int run_server_stdin(const util::Args& args) {
  serve::AdmissionService service(config_from_args(args));
  std::mutex write_mutex;
  const auto respond = [&write_mutex](const std::string& response) {
    std::lock_guard<std::mutex> lock(write_mutex);
    std::fwrite(response.data(), 1, response.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  };

  util::JsonStreamParser parser;
  char buffer[1 << 16];
  bool eof = false;
  while (!eof && !service.shutdown_requested()) {
    std::cin.read(buffer, sizeof buffer);
    const std::streamsize n = std::cin.gcount();
    if (n > 0) parser.feed(buffer, static_cast<std::size_t>(n));
    if (!std::cin) {
      parser.finish();
      eof = true;
    }
    for (;;) {
      std::optional<util::JsonValue> doc;
      try {
        doc = parser.next();
      } catch (const util::JsonParseError& e) {
        respond(serve::encode_error("", e.what()));
        continue;  // the stream stays usable past the bad document
      }
      if (!doc.has_value()) break;
      try {
        service.submit(serve::decode_request(*doc), respond);
      } catch (const serve::ProtocolError& e) {
        std::string id;
        if (doc->is_object() && doc->contains("id") && doc->at("id").is_string())
          id = doc->at("id").as_string();
        respond(serve::encode_error(id, e.what()));
      }
      if (service.shutdown_requested()) break;
    }
  }
  service.request_shutdown();
  return 0;
}

int run_client(const util::Args& args) {
  const std::string endpoint = args.get_string("connect", "");
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos)
    throw std::invalid_argument("--connect expects HOST:PORT");
  const std::string port_text = endpoint.substr(colon + 1);
  const std::optional<std::uint64_t> port = util::parse_uint64(port_text);
  if (!port || *port == 0 || *port > 65535)
    throw std::invalid_argument("--connect expects a port in 1-65535, got '" +
                                port_text + "'");
  util::Socket socket = util::tcp_connect(endpoint.substr(0, colon),
                                          static_cast<std::uint16_t>(*port));

  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  const std::string cmd = args.get_string("cmd", "");
  const std::string id = args.get_string("id", "");
  if (!id.empty()) w.kv("id", id);
  if (!cmd.empty()) {
    w.kv("cmd", cmd);
    if (cmd == "reload") {
      // Forward the override flags the server flavor of these keys uses.
      const std::string analyzer = args.get_string("analyzer", "");
      if (!analyzer.empty()) w.kv("analyzer", analyzer);
      for (const char* key : {"workers", "cache"})
        if (args.has(key)) w.kv(key, args.get_uint64(key, 0));
    }
  } else {
    const std::string file = args.get_string("file", "");
    if (file.empty())
      throw std::invalid_argument("client mode needs --file or --cmd");
    std::ifstream in(file);
    if (!in) throw std::runtime_error("cannot read " + file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    w.kv("taskset", buffer.str());
    const std::string analyzer = args.get_string("analyzer", "");
    if (!analyzer.empty()) w.kv("analyzer", analyzer);
    if (args.get_bool("certify", false)) w.kv("certify", true);
    const double scale = args.get_double("wcet-scale", 1.0);
    if (scale != 1.0) w.kv("wcet_scale", scale);
  }
  w.end_object();
  util::write_frame(socket, os.str());

  const std::optional<std::string> response = util::read_frame(socket);
  if (!response.has_value()) {
    std::fprintf(stderr, "rtpool_serve: connection closed without response\n");
    return 1;
  }
  if (args.get_bool("extract-report", false)) {
    const std::string report = serve::extract_member(*response, "report");
    if (report.empty()) {
      std::fprintf(stderr, "rtpool_serve: no report in response: %s\n",
                   response->c_str());
      return 1;
    }
    std::printf("%s\n", report.c_str());
  } else {
    std::printf("%s\n", response->c_str());
  }
  // Exit status mirrors the verdict so scripts can branch on it.
  const util::JsonValue doc = util::parse_json(*response);
  if (doc.is_object() && doc.contains("ok") && doc.at("ok").is_bool() &&
      !doc.at("ok").as_bool())
    return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(
        argc, argv,
        {"port", "host", "stdin", "analyzer", "workers", "cache", "config",
         "print-port", "connect", "file", "cmd", "id", "certify", "wcet-scale",
         "extract-report"});
    if (!args.get_string("connect", "").empty()) return run_client(args);
    if (args.get_bool("stdin", false)) return run_server_stdin(args);
    return run_server_tcp(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtpool_serve: %s\n", e.what());
    return 1;
  }
}
