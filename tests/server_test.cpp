// Tests for the archex_server subsystem: SolveService request execution
// (cross-request cache and nogood reuse, deadline expiry, validation) and
// SolveServer wire behavior (loopback request/response, concurrent clients
// sharing the cache, admission rejection, the request-line cap, graceful
// stop).
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/serialize.hpp"
#include "server/solve_server.hpp"
#include "server/solve_service.hpp"
#include "support/socket.hpp"

namespace archex {
namespace {

core::SolveRequest eps_request(const std::string& id, int generators,
                               double target) {
  core::SolveRequest request;
  request.id = id;
  request.mode = core::SolveMode::kMr;
  request.eps_generators = generators;
  request.target_failure = target;
  return request;
}

/// One request/response exchange over an already-connected stream.
core::SolveResponse exchange(support::TcpStream& stream,
                             const core::SolveRequest& request) {
  stream.write_line(core::to_json(request));
  std::string line;
  EXPECT_TRUE(stream.read_line(line));
  return core::response_from_json(line);
}

// ---- SolveService (transport-free) -----------------------------------------

TEST(SolveServiceTest, MrSolveReturnsOptimalArchitecture) {
  server::SolveService service;
  const core::SolveResponse response =
      service.handle(eps_request("r-opt", 2, 1e-3));
  EXPECT_EQ(response.id, "r-opt");
  EXPECT_EQ(response.status, "optimal");
  EXPECT_GT(response.cost, 0.0);
  EXPECT_LE(response.failure, 1e-3);
  EXPECT_FALSE(response.selected_edges.empty());
  EXPECT_GT(response.solve_seconds, 0.0);
}

TEST(SolveServiceTest, CrossRequestCacheAndNogoodReuse) {
  server::SolveService service;
  const core::SolveResponse cold =
      service.handle(eps_request("r-cold", 1, 1e-4));
  EXPECT_EQ(cold.status, "unfeasible");

  const core::SolveResponse warm =
      service.handle(eps_request("r-warm", 1, 1e-4));
  EXPECT_EQ(warm.status, "unfeasible");

  // The shared EvalCache served the warm request from the cold one's
  // entries, and the per-family nogood store persisted across requests.
  EXPECT_GT(warm.cache_hits, cold.cache_hits);
  EXPECT_GT(warm.cache_hit_rate, 0.0);
  EXPECT_GT(warm.nogood_store_size, 0);
  EXPECT_LE(warm.iterations, cold.iterations);
  EXPECT_EQ(service.nogood_families(), 1u);
}

TEST(SolveServiceTest, DistinctTargetsAreDistinctProblemFamilies) {
  server::SolveService service;
  (void)service.handle(eps_request("r-a", 1, 1e-4));
  (void)service.handle(eps_request("r-b", 1, 1e-5));
  EXPECT_EQ(service.nogood_families(), 2u);
}

TEST(SolveServiceTest, UnknownMethodIsAnErrorResponse) {
  server::SolveService service;
  core::SolveRequest request = eps_request("r-method", 1, 1e-4);
  request.method = "quantum";
  const core::SolveResponse response = service.handle(request);
  EXPECT_EQ(response.status, "error");
  EXPECT_NE(response.error.find("$.method"), std::string::npos);
  EXPECT_NE(response.error.find("quantum"), std::string::npos);
}

TEST(SolveServiceTest, ExpiredDeadlineYieldsTimeLimit) {
  server::SolveService service;
  // An instance far too large for the budget: the solve must observe the
  // absolute deadline and report time_limit instead of running on.
  core::SolveRequest request = eps_request("r-deadline", 3, 1e-8);
  request.deadline_seconds = 0.05;
  const core::SolveResponse response = service.handle(request);
  EXPECT_EQ(response.status, "time_limit");
}

TEST(SolveServiceTest, LearningOffSolvesColdEveryTime) {
  server::SolveServiceOptions options;
  options.learning = false;
  server::SolveService service(options);
  (void)service.handle(eps_request("r-1", 1, 1e-4));
  const core::SolveResponse second =
      service.handle(eps_request("r-2", 1, 1e-4));
  EXPECT_EQ(second.status, "unfeasible");
  EXPECT_EQ(second.nogood_store_size, 0);
  EXPECT_EQ(service.nogood_families(), 0u);
}

// ---- SolveServer (wire protocol) -------------------------------------------

TEST(SolveServerTest, RemovedExactMethodsAreErrorResponses) {
  // Inclusion–exclusion and series-parallel reduction are test oracles,
  // not exact methods: a request naming one gets an error, not a solve
  // with a substitute method.
  server::SolveServer server;
  server.start();
  support::TcpStream client =
      support::TcpStream::connect("127.0.0.1", server.port());
  for (const std::string method : {"inclusion-exclusion", "series-parallel"}) {
    core::SolveRequest request = eps_request("r-" + method, 1, 1e-4);
    request.method = method;
    const core::SolveResponse response = exchange(client, request);
    EXPECT_EQ(response.id, "r-" + method);
    EXPECT_EQ(response.status, "error") << method;
    EXPECT_NE(response.error.find("$.method"), std::string::npos) << method;
    EXPECT_NE(response.error.find(method), std::string::npos) << method;
  }
  server.stop();
}

TEST(SolveServerTest, LoopbackRequestResponse) {
  server::SolveServer server;  // port 0: kernel-picked free port
  server.start();
  ASSERT_NE(server.port(), 0);

  support::TcpStream client =
      support::TcpStream::connect("127.0.0.1", server.port());
  const core::SolveResponse response =
      exchange(client, eps_request("r-wire", 1, 1e-4));
  EXPECT_EQ(response.id, "r-wire");
  EXPECT_EQ(response.status, "unfeasible");
  EXPECT_GE(response.queue_seconds, 0.0);

  server.stop();
  const server::SolveServer::Stats stats = server.stats();
  EXPECT_EQ(stats.connections, 1);
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.malformed, 0);
}

TEST(SolveServerTest, ArResponseReportsApproxAndExactFailure) {
  // "optimal" for ar certifies r̃ <= target; the exact failure rides beside
  // it, and mr answers (exactly checked) carry no r̃.
  server::SolveServer server;
  server.start();
  support::TcpStream client =
      support::TcpStream::connect("127.0.0.1", server.port());
  core::SolveRequest ar = eps_request("r-ar", 1, 1e-3);
  ar.mode = core::SolveMode::kAr;
  const core::SolveResponse response = exchange(client, ar);
  EXPECT_EQ(response.status, "optimal");
  ASSERT_TRUE(response.approx_failure.has_value());
  EXPECT_GT(*response.approx_failure, 0.0);
  EXPECT_LE(*response.approx_failure, 1e-3);
  EXPECT_GT(response.failure, 0.0);
  EXPECT_NE(response.failure, *response.approx_failure);

  const core::SolveResponse mr = exchange(client, eps_request("r-mr", 2, 1e-3));
  EXPECT_EQ(mr.status, "optimal");
  EXPECT_FALSE(mr.approx_failure.has_value());
  server.stop();
}

TEST(SolveServerTest, MalformedLineGetsErrorResponseAndConnectionSurvives) {
  server::SolveServer server;
  server.start();

  support::TcpStream client =
      support::TcpStream::connect("127.0.0.1", server.port());
  client.write_line("{this is not json");
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  const core::SolveResponse error = core::response_from_json(line);
  EXPECT_EQ(error.status, "error");
  EXPECT_NE(error.error.find("request"), std::string::npos);

  // The connection stays usable after a malformed request.
  const core::SolveResponse ok =
      exchange(client, eps_request("r-after", 1, 1e-4));
  EXPECT_EQ(ok.status, "unfeasible");

  server.stop();
  EXPECT_EQ(server.stats().malformed, 1);
}

TEST(SolveServerTest, ConcurrentClientsShareTheCache) {
  server::SolveServerOptions options;
  options.workers = 4;
  server::SolveServer server(options);
  server.start();

  constexpr int kClients = 4;
  constexpr int kRequestsEach = 3;
  std::atomic<int> unfeasible{0};
  std::atomic<int> mismatched{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      support::TcpStream stream =
          support::TcpStream::connect("127.0.0.1", server.port());
      for (int r = 0; r < kRequestsEach; ++r) {
        const std::string id =
            "c" + std::to_string(c) + "-r" + std::to_string(r);
        const core::SolveResponse response =
            exchange(stream, eps_request(id, 1, 1e-4));
        if (response.id != id) mismatched.fetch_add(1);
        if (response.status == "unfeasible") unfeasible.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(mismatched.load(), 0);
  EXPECT_EQ(unfeasible.load(), kClients * kRequestsEach);
  // All clients hit one process-lifetime cache: after the first request the
  // template family's evaluations are warm.
  EXPECT_GT(server.service().cache().stats().hits, 0u);
  EXPECT_EQ(server.service().nogood_families(), 1u);

  server.stop();
  EXPECT_EQ(server.stats().requests, kClients * kRequestsEach);
}

TEST(SolveServerTest, MaxQueueZeroIsClampedAndStillAdmitsWhenIdle) {
  server::SolveServerOptions options;
  options.workers = 1;
  options.max_queue = 0;  // clamped to 1: an idle server must not shed
  server::SolveServer server(options);
  server.start();

  support::TcpStream client =
      support::TcpStream::connect("127.0.0.1", server.port());
  const core::SolveResponse response =
      exchange(client, eps_request("r-idle", 1, 1e-4));
  EXPECT_EQ(response.id, "r-idle");
  EXPECT_EQ(response.status, "unfeasible");

  server.stop();
  EXPECT_EQ(server.stats().shed, 0);
}

TEST(SolveServerTest, FinishedConnectionsAreReaped) {
  server::SolveServer server;
  server.start();
  {
    support::TcpStream first =
        support::TcpStream::connect("127.0.0.1", server.port());
    const core::SolveResponse response =
        exchange(first, eps_request("r-first", 1, 1e-4));
    EXPECT_EQ(response.status, "unfeasible");
  }  // closed: the serving thread sees EOF and marks itself finished

  // Each accept reaps connections already finished, so the tracked set
  // converges to the live set instead of growing per connection forever.
  bool reaped = false;
  for (int attempt = 0; attempt < 50 && !reaped; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    support::TcpStream probe =
        support::TcpStream::connect("127.0.0.1", server.port());
    const core::SolveResponse response =
        exchange(probe, eps_request("r-probe", 1, 1e-4));
    EXPECT_EQ(response.status, "unfeasible");
    reaped = server.live_connections() <= 1;  // just the open probe
  }
  EXPECT_TRUE(reaped);
  server.stop();
}

TEST(SolveServerTest, OverloadShedsButAdmittedRequestsComplete) {
  server::SolveServerOptions options;
  options.workers = 1;
  options.max_queue = 1;
  server::SolveServer server(options);
  server.start();

  // Occupy the single worker with a request whose deadline bounds it to
  // about one second of wall clock regardless of build flavor.
  core::SolveRequest slow = eps_request("r-slow", 3, 1e-8);
  slow.deadline_seconds = 1.0;
  support::TcpStream slow_client =
      support::TcpStream::connect("127.0.0.1", server.port());
  slow_client.write_line(core::to_json(slow));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Second request takes the single queue slot...
  support::TcpStream queued_client =
      support::TcpStream::connect("127.0.0.1", server.port());
  queued_client.write_line(core::to_json(eps_request("r-queued", 1, 1e-4)));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // ...so a third is shed immediately, before the others finish.
  support::TcpStream shed_client =
      support::TcpStream::connect("127.0.0.1", server.port());
  const core::SolveResponse shed =
      exchange(shed_client, eps_request("r-shed", 1, 1e-4));
  EXPECT_EQ(shed.status, "rejected");

  std::string line;
  ASSERT_TRUE(slow_client.read_line(line));
  EXPECT_EQ(core::response_from_json(line).status, "time_limit");
  ASSERT_TRUE(queued_client.read_line(line));
  const core::SolveResponse queued = core::response_from_json(line);
  EXPECT_EQ(queued.status, "unfeasible");
  EXPECT_GT(queued.queue_seconds, 0.0);

  server.stop();
  EXPECT_EQ(server.stats().shed, 1);
}

TEST(SolveServerTest, StopUnblocksIdleConnections) {
  server::SolveServer server;
  server.start();
  support::TcpStream client =
      support::TcpStream::connect("127.0.0.1", server.port());
  // Prove the connection is live before stopping.
  const core::SolveResponse response =
      exchange(client, eps_request("r-live", 1, 1e-4));
  EXPECT_EQ(response.status, "unfeasible");

  std::thread stopper([&server] { server.stop(); });
  // The server shut down its read side; the client sees EOF, not a hang.
  std::string line;
  EXPECT_FALSE(client.read_line(line));
  stopper.join();
}

TEST(SolveServerTest, StopIsIdempotentAndRestartable) {
  server::SolveServer server;
  server.start();
  const std::uint16_t first_port = server.port();
  ASSERT_NE(first_port, 0);
  server.stop();
  server.stop();  // idempotent

  server.start();  // a stopped server can be started again
  support::TcpStream client =
      support::TcpStream::connect("127.0.0.1", server.port());
  const core::SolveResponse response =
      exchange(client, eps_request("r-again", 1, 1e-4));
  EXPECT_EQ(response.status, "unfeasible");
  server.stop();
}

TEST(SolveServerTest, OverlongLineGetsErrorThenEof) {
  // A client that streams past the line cap without a newline gets one
  // error line and then EOF, instead of growing the server's buffer.
  server::SolveServer server;
  server.start();
  {
    support::TcpStream client =
        support::TcpStream::connect("127.0.0.1", server.port());
    client.write_all(std::string(support::kMaxLineBytes + 1, 'x'));
    std::string line;
    ASSERT_TRUE(client.read_line(line));
    const core::SolveResponse error = core::response_from_json(line);
    EXPECT_EQ(error.status, "error");
    EXPECT_NE(error.error.find("exceeds"), std::string::npos);
    EXPECT_FALSE(client.read_line(line));
  }
  // The server keeps serving other connections.
  support::TcpStream other =
      support::TcpStream::connect("127.0.0.1", server.port());
  const core::SolveResponse ok =
      exchange(other, eps_request("r-next", 1, 1e-4));
  EXPECT_EQ(ok.status, "unfeasible");
  server.stop();
  EXPECT_EQ(server.stats().malformed, 1);
}

}  // namespace
}  // namespace archex
