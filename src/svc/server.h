// Long-running solver daemon core: bounded worker pool, digest-keyed
// single-flight result cache, and per-request deadlines, behind the shared
// serving front end (svc/frontend.h: listener, sessions, drain, telemetry).
//
// Wire protocol (newline-delimited JSON, one request per line, one
// response line per request — full reference in DESIGN.md "Serving"):
//
//   {"id": 7, "type": "solve", "algorithm": "lcf", "one_minus_xi": 0.3,
//    "instance": { ...core/io.h instance document... },
//    "deadline_ms": 5000, "cache": true}
//   -> {"id": 7, "ok": true, "type": "solve", "cached": false,
//       "result": { ...assignment document..., "algorithm": "lcf"},
//       "wall_queue_ms": 0.1, "wall_service_ms": 12.9}
//
//   {"type": "poa" | "stats" | "health" | "metrics" | "shutdown", ...}
//
// Errors are structured, never a dropped connection:
//   {"id": null, "ok": false,
//    "error": {"code": "overloaded", "message": "..."}}
// with codes: parse_error, bad_request, overloaded, deadline_exceeded,
// shutting_down, internal.
//
// Threading model: the Frontend runs one session thread per connection
// and reaps it when the connection ends. Sessions admit each request line
// into a bounded queue (admission control — a full queue answers
// "overloaded" immediately instead of stalling the socket); `threads`
// workers pop, solve, and write the response under the connection's write
// lock. Responses therefore may interleave across a pipelining connection
// — the echoed "id" is the correlator. Graceful drain (SIGTERM or a
// "shutdown" request): stop accepting, wake idle readers, answer
// everything already admitted, then join every thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "svc/bounded_queue.h"
#include "svc/frontend.h"
#include "svc/result_cache.h"

namespace mecsc::svc {

struct ServerOptions : FrontendOptions {
  std::size_t threads = 4;          ///< worker pool size (min 1)
  std::size_t queue_capacity = 64;  ///< admitted-but-unserved requests
  std::size_t cache_capacity = 128; ///< resident solve results (0 = off)

  /// Applied when a request carries no deadline_ms; <= 0 means none.
  double default_deadline_ms = 0.0;

  /// Test-only hook, run by a worker after dequeue and before processing;
  /// lets tests hold a worker deterministically (backpressure, drain).
  std::function<void()> test_hook_before_request;
};

/// Point-in-time server counters for the "stats" response and tests.
struct ServerStats : FrontendStats {
  std::uint64_t overloaded = 0;       ///< subset of responses_error
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t solves_executed = 0;  ///< actual solver runs (cache misses)
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  ResultCache::Stats cache;
};

class SolverServer : public Frontend {
 public:
  explicit SolverServer(ServerOptions options);
  ~SolverServer() override;

  ServerStats stats() const;

 private:
  struct Job {
    std::string line;
    ConnectionPtr conn;
    util::Timer admitted;  ///< queue wait + service time base
    /// Admission stamp on the telemetry clock: the server-timeline base
    /// for this request's trace events.
    double admitted_at_ms = 0.0;
  };

  void admit(const ConnectionPtr& conn, std::string line,
             std::uint32_t session) override;
  Response handle(Request& request) override;
  void on_start() override;
  void on_drain() override;
  void on_sessions_done() override;
  void add_gauges(obs::ServiceGauges& gauges) const override;

  void worker_loop(std::uint32_t ordinal);
  std::string health(const Request& request);
  std::string stats_response(const Request& request) const;
  /// "solve" and "poa": deadline, digest, single-flight cache, compute.
  std::string solve(Request& request);

  ServerOptions options_;
  BoundedQueue<Job> queue_;
  ResultCache cache_;

  std::atomic<std::size_t> workers_busy_{0};
  std::atomic<std::uint64_t> overloaded_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> solves_executed_{0};

  std::vector<std::thread> workers_;  ///< start()/wait() only (owning thread)
};

}  // namespace mecsc::svc
