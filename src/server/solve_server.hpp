// archex/server/solve_server.hpp
//
// Wire front-end of the archex_server (DESIGN.md §5): a TCP listener
// speaking one JSON document per line ("archex-request" in,
// "archex-response" out; core/serialize.hpp), a fixed worker pool running
// the solves, and admission control that sheds load with an explicit
// `rejected` response instead of queueing without bound.
//
// Threading model:
//  * one acceptor thread polls the listener with a timeout so it can
//    observe the stop flag between waits;
//  * one lightweight thread per connection reads request lines and blocks
//    on its request's future (clients pipeline by opening connections, so
//    per-connection requests stay ordered);
//  * `workers` pool threads execute SolveService::handle — the only
//    CPU-heavy work. The B&B allocates its own search workers per solve,
//    so `workers * (1 + max solver threads)` bounds total solve threads.
//
// Graceful drain (SIGTERM → stop()): stop accepting, shut down every
// connection's read side (in-flight solves finish and their responses are
// still written), join everything. A request that was queued but not yet
// started also runs to completion — admission control bounds how many such
// requests can exist.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "server/solve_service.hpp"
#include "support/socket.hpp"
#include "support/thread_pool.hpp"

namespace archex::server {

struct SolveServerOptions {
  /// Port to listen on; 0 picks a free port (see SolveServer::port()).
  std::uint16_t port = 0;
  /// Worker threads executing solves concurrently.
  int workers = 2;
  /// Admission bound: requests accepted but not yet started. A request
  /// arriving with the queue full is answered `rejected` immediately.
  /// Clamped to >= 1 (a bound of 0 would reject every request, even with
  /// all workers idle).
  int max_queue = 16;
  /// Acceptor poll period (stop-flag observation latency).
  int accept_poll_ms = 100;
  SolveServiceOptions service;
};

class SolveServer {
 public:
  explicit SolveServer(SolveServerOptions options = {});
  ~SolveServer();

  SolveServer(const SolveServer&) = delete;
  SolveServer& operator=(const SolveServer&) = delete;

  /// Bind the listener and start the acceptor and worker pool.
  void start();

  /// Graceful drain; idempotent. Safe to call while requests are in
  /// flight — their responses are written before the connections close.
  void stop();

  /// The bound port (after start(); resolves port-0 binds).
  [[nodiscard]] std::uint16_t port() const;

  [[nodiscard]] SolveService& service() { return service_; }

  struct Stats {
    long connections = 0;  // accepted sockets
    long requests = 0;     // request lines answered (any status)
    long shed = 0;         // ... of which: rejected by admission control
    long malformed = 0;    // ... of which: SpecError or overlong line
  };
  [[nodiscard]] Stats stats() const;

  /// Connections currently tracked: open ones plus any finished since the
  /// last accept (the acceptor reaps finished connections before each
  /// accept, so this converges to the number of open sockets).
  [[nodiscard]] std::size_t live_connections() const;

 private:
  struct Connection {
    std::thread thread;
    int fd = -1;  // -1 once the stream is closed (guarded by conn_mu_)
  };

  void accept_loop();
  void serve_connection(Connection* conn, support::TcpStream stream);
  void reap_finished_locked();
  [[nodiscard]] core::SolveResponse dispatch(const std::string& line);

  SolveServerOptions options_;
  SolveService service_;

  std::optional<support::TcpListener> listener_;
  std::unique_ptr<support::ThreadPool> pool_;
  std::thread acceptor_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  mutable std::mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;

  std::atomic<int> queued_{0};
  std::atomic<long> stat_connections_{0};
  std::atomic<long> stat_requests_{0};
  std::atomic<long> stat_shed_{0};
  std::atomic<long> stat_malformed_{0};
};

}  // namespace archex::server
