// Connection-churn regression tests: thousands of short-lived connections
// (connect -> one "health" line -> close) must leave a daemon's address
// space and thread count where they were. Every connection runs on its own
// session thread; a session that ends without being joined keeps its stack
// mapped (8 MB of VmSize each), so a leak shows up as VmSize growth long
// before anything else fails. Suite names start with "Svc"/"Route" so the
// TSan job's concurrency label picks them up.
//
// glibc also reserves a 64 MB heap per malloc arena, and creates arenas
// (up to 8 per core) whenever more threads allocate at once than ever
// before — which connection churn keeps provoking. That reservation is
// bounded and unrelated to session reaping, so the tests pin the arena
// count (mallopt) to keep it out of the VmSize they measure.
#include <gtest/gtest.h>
#include <malloc.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "route/router.h"
#include "svc/server.h"
#include "svc/socket.h"
#include "util/json.h"

namespace {

using namespace mecsc;

constexpr int kWarmupCycles = 200;
constexpr int kChurnCycles = 5000;
constexpr double kMaxVmGrowthMb = 256.0;
constexpr long kThreadSlack = 4;

struct ProcStatus {
  double vmsize_mb = 0.0;
  long threads = 0;
};

ProcStatus read_proc_status() {
  std::ifstream in("/proc/self/status");
  ProcStatus status;
  std::string key;
  while (in >> key) {
    if (key == "VmSize:") {
      double kb = 0.0;
      in >> kb;
      status.vmsize_mb = kb / 1024.0;
    } else if (key == "Threads:") {
      in >> status.threads;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return status;
}

/// `cycles` fresh connections, each answering one health request.
void churn(int port, int cycles) {
  for (int i = 0; i < cycles; ++i) {
    const svc::ConnectionPtr conn = svc::connect_tcp("127.0.0.1", port);
    ASSERT_TRUE(conn->write_line(R"({"type":"health"})"));
    const auto response = conn->read_line(1 << 20);
    ASSERT_TRUE(response.has_value()) << "cycle " << i;
    ASSERT_NE(response->find("\"ok\":true"), std::string::npos) << *response;
  }
}

/// Blocks until every churned session has seen its EOF.
template <class Daemon>
void wait_for_idle(Daemon& daemon) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (daemon.metrics_json()
             .at("wall_gauges")
             .number_at("connections_in_flight") != 0.0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Warm up (thread-local and allocator state settle), then churn and
/// compare the process status before and after.
template <class Daemon>
void expect_bounded_churn(Daemon& daemon) {
  mallopt(M_ARENA_MAX, 1);
  churn(daemon.port(), kWarmupCycles);
  wait_for_idle(daemon);
  const ProcStatus before = read_proc_status();

  churn(daemon.port(), kChurnCycles);
  wait_for_idle(daemon);
  const ProcStatus after = read_proc_status();

  EXPECT_LT(after.vmsize_mb - before.vmsize_mb, kMaxVmGrowthMb)
      << "VmSize " << before.vmsize_mb << " -> " << after.vmsize_mb
      << " MB over " << kChurnCycles << " connections";
  EXPECT_LE(after.threads, before.threads + kThreadSlack)
      << "threads " << before.threads << " -> " << after.threads;
}

TEST(SvcChurn, SessionsAreReapedAsConnectionsClose) {
  svc::ServerOptions options;
  options.tcp_port = 0;
  options.threads = 1;
  svc::SolverServer server(std::move(options));
  server.start();
  expect_bounded_churn(server);
  server.request_shutdown();
  server.wait();
}

TEST(RouteChurn, SessionsAreReapedAsConnectionsClose) {
  svc::ServerOptions backend_options;
  backend_options.tcp_port = 0;
  backend_options.threads = 1;
  svc::SolverServer backend(std::move(backend_options));
  backend.start();

  route::RouterOptions options;
  options.tcp_port = 0;
  options.health_interval_ms = 0.0;  // no probe traffic during the churn
  route::BackendSpec spec;
  spec.name = "b1";
  spec.endpoint = "tcp:127.0.0.1:" + std::to_string(backend.port());
  options.backends.push_back(std::move(spec));
  route::Router router(std::move(options));
  router.start();
  expect_bounded_churn(router);
  router.request_shutdown();
  router.wait();
  backend.request_shutdown();
  backend.wait();
}

}  // namespace
