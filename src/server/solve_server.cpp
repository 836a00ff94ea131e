#include "server/solve_server.hpp"

#include <sys/socket.h>

#include <future>
#include <string>
#include <utility>

#include "support/stopwatch.hpp"

namespace archex::server {

SolveServer::SolveServer(SolveServerOptions options)
    : options_(options), service_(options.service) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.max_queue < 1) options_.max_queue = 1;
}

SolveServer::~SolveServer() { stop(); }

void SolveServer::start() {
  listener_.emplace(options_.port);
  // ThreadPool(n) spawns n - 1 workers; the caller slot is never used here
  // (connection threads block on futures instead of draining the queue), so
  // workers + 1 yields exactly `workers` concurrent solves.
  pool_ = std::make_unique<support::ThreadPool>(options_.workers + 1);
  stop_.store(false);
  acceptor_ = std::thread(&SolveServer::accept_loop, this);
  started_ = true;
}

void SolveServer::stop() {
  if (!started_) return;
  stop_.store(true);
  if (acceptor_.joinable()) acceptor_.join();
  listener_.reset();
  {
    // Unblock every connection reader; SHUT_RD only, so responses of
    // in-flight requests still reach their clients.
    const std::lock_guard<std::mutex> lock(conn_mu_);
    for (const auto& conn : connections_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
    }
  }
  for (const auto& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  connections_.clear();
  pool_.reset();  // drains any still-queued work
  started_ = false;
}

std::uint16_t SolveServer::port() const {
  return listener_ ? listener_->port() : 0;
}

std::size_t SolveServer::live_connections() const {
  const std::lock_guard<std::mutex> lock(conn_mu_);
  return connections_.size();
}

SolveServer::Stats SolveServer::stats() const {
  Stats out;
  out.connections = stat_connections_.load();
  out.requests = stat_requests_.load();
  out.shed = stat_shed_.load();
  out.malformed = stat_malformed_.load();
  return out;
}

void SolveServer::accept_loop() {
  while (!stop_.load()) {
    std::optional<support::TcpStream> stream;
    try {
      stream = listener_->accept_for(options_.accept_poll_ms);
    } catch (const support::SocketError&) {
      break;  // listener died; stop() will clean up
    }
    if (!stream) continue;
    stat_connections_.fetch_add(1);
    const std::lock_guard<std::mutex> lock(conn_mu_);
    if (stop_.load()) break;  // raced with stop(): drop the connection
    reap_finished_locked();
    auto conn = std::make_unique<Connection>();
    conn->fd = stream->fd();
    Connection* raw = conn.get();
    connections_.push_back(std::move(conn));
    raw->thread = std::thread(&SolveServer::serve_connection, this, raw,
                              std::move(*stream));
  }
}

// Join-and-erase connections whose stream has closed. fd == -1 is set under
// conn_mu_ as the serving thread's last critical section, so observing it
// here (also under conn_mu_) means the thread is past any lock use and the
// join returns almost immediately. Without this sweep every connection ever
// accepted would keep a joinable thread (and its stack) alive until stop().
void SolveServer::reap_finished_locked() {
  auto it = connections_.begin();
  while (it != connections_.end()) {
    if ((*it)->fd == -1) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void SolveServer::serve_connection(Connection* conn,
                                   support::TcpStream stream) {
  try {
    std::string line;
    while (!stop_.load() && stream.read_line(line)) {
      if (line.empty()) continue;
      const core::SolveResponse response = dispatch(line);
      stat_requests_.fetch_add(1);
      stream.write_line(core::to_json(response));
    }
  } catch (const support::LineTooLongError& e) {
    // An unterminated line past the cap: answer it once, then close.
    stat_requests_.fetch_add(1);
    stat_malformed_.fetch_add(1);
    core::SolveResponse response;
    response.status = "error";
    response.error = std::string("request: ") + e.what();
    try {
      stream.write_line(core::to_json(response));
    } catch (const support::SocketError&) {
      // The peer is gone already.
    }
  } catch (const support::SocketError&) {
    // Peer hung up mid-exchange; nothing to clean beyond the stream itself.
  }
  // Close under the connection lock so stop()'s shutdown sweep can never
  // touch a recycled descriptor.
  const std::lock_guard<std::mutex> lock(conn_mu_);
  stream = support::TcpStream(-1);
  conn->fd = -1;
}

core::SolveResponse SolveServer::dispatch(const std::string& line) {
  core::SolveRequest request;
  try {
    request = core::request_from_json(line, "request");
  } catch (const core::SpecError& e) {
    stat_malformed_.fetch_add(1);
    core::SolveResponse response;
    response.status = "error";
    response.error = e.what();
    return response;
  }

  // Admission control: with `max_queue` requests already waiting for a
  // worker, shed the new one with an explicit rejection rather than growing
  // the queue (the client can back off or retry elsewhere).
  int queued = queued_.load();
  while (true) {
    if (queued >= options_.max_queue) {
      stat_shed_.fetch_add(1);
      core::SolveResponse response;
      response.id = request.id;
      response.status = "rejected";
      response.error = "queue full (" + std::to_string(queued) +
                       " requests queued)";
      return response;
    }
    if (queued_.compare_exchange_weak(queued, queued + 1)) break;
  }

  Stopwatch queue_watch;
  queue_watch.start();
  std::future<core::SolveResponse> future =
      pool_->submit([this, request = std::move(request), &queue_watch] {
        queued_.fetch_sub(1);
        const double queue_seconds = queue_watch.elapsed_seconds();
        core::SolveResponse response = service_.handle(request);
        response.queue_seconds = queue_seconds;
        return response;
      });
  return future.get();
}

}  // namespace archex::server
