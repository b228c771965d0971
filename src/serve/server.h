// TCP front end of the admission service: accept loop + per-connection
// frame pumps, shared by the rtpool_serve daemon and the benchmark's serve
// workloads (so the benchmark measures exactly the transport the daemon
// ships).
//
// Each connection gets one reader thread: it decodes framed request
// documents and submits them to the AdmissionService; responses are framed
// back from the pool workers' completion callbacks under a per-connection
// write lock, so pipelined submissions complete OUT OF ORDER (clients match
// by "id"). A torn connection drops only its unread responses — queued
// submissions still run to completion. Finished connection threads are
// reaped continuously by the housekeeping thread (and on every accept), so
// a long-lived daemon holds handles only for connections that are still
// open, not for every connection it has ever served.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/service.h"
#include "util/net.h"
#include "util/thread_annotations.h"

namespace rtpool::serve {

/// See file header. start() spawns the accept loop; stop() (or a service
/// shutdown request) unblocks it, joins every connection and returns.
class TcpServer {
 public:
  /// Binds immediately (port 0 picks an ephemeral port; read it back with
  /// port()). Throws util::NetError on bind failure.
  TcpServer(AdmissionService& service, const std::string& host,
            std::uint16_t port);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Spawn the accept loop (idempotent). A watcher thread closes the
  /// listener as soon as the service reports shutdown_requested(), so a
  /// protocol-level {"cmd": "shutdown"} also stops the server.
  void start();

  /// Unblock the accept loop, join every connection thread, and return.
  /// Idempotent; also called by the destructor.
  void stop();

  /// Block until the accept loop exits (shutdown command or stop()).
  void wait();

  /// Connection threads currently tracked (open connections plus any
  /// finished ones not yet reaped). Bounded by the number of simultaneously
  /// open connections once housekeeping runs; exposed for tests/telemetry.
  std::size_t tracked_connections() const;

 private:
  void accept_loop();
  /// Join every connection thread that has announced completion. Called by
  /// the housekeeping thread and before each accept; never blocks long (a
  /// finished thread is at most a few instructions from exiting).
  void reap_finished();
  static void serve_connection(AdmissionService& service, util::Socket socket);

  AdmissionService& service_;
  util::TcpListener listener_;
  std::thread acceptor_;
  std::thread housekeeper_;
  std::atomic<bool> stopping_{false};

  mutable util::Mutex connections_mutex_;
  std::unordered_map<std::uint64_t, std::thread> connections_
      RTPOOL_GUARDED_BY(connections_mutex_);
  std::vector<std::uint64_t> finished_ RTPOOL_GUARDED_BY(connections_mutex_);
  std::uint64_t next_connection_ RTPOOL_GUARDED_BY(connections_mutex_) = 0;
};

}  // namespace rtpool::serve
