// Digest-sharded front router: terminates client NDJSON connections and
// forwards each request to the `mecsc_serve` backend that owns its
// instance digest, so every backend's single-flight result cache stays
// hot for exactly its shard of the keyspace.
//
// Request path (one hop, no decode):
//
//   client line ──► arena parse ──► canonical dump of the "instance"
//   subtree ──► fnv1a64_hex digest ──► ShardMap preference order ──►
//   forward the *raw line* (with router-minted request_id / traceparent
//   fields spliced in) over a pooled backend connection ──► relay the
//   backend's response line (with "route_backend" spliced in).
//
// The router never decodes an instance and never re-serializes a request
// or response: field injection exploits the protocol's last-duplicate-
// wins rule (util/json_arena.h — at(), the canonical dump and
// to_json_value() all resolve duplicate object keys to the final
// occurrence), so appending `,"key":value` before the closing '}' of a
// line overrides the field without touching the rest of the bytes.
//
// Spillover + drain share one mechanism: the ShardMap's clockwise
// preference order. A backend is skipped when it is draining (the
// "drain_backend" request), marked unhealthy (probe failures or a failed
// forward), or — when probed load data is fresh — its queue is above the
// spill threshold; the request then lands on the next backend in
// preference order. Because the ring itself never changes, the keys of
// every untouched backend keep their owner (the ≤1/N movement property
// tests/test_shard_map.cpp pins down).
//
// Cross-process tracing: the router opens a "route.request" root span
// (parented on the client's traceparent when present), hangs a
// "route.forward" child on it, and splices *that* span's id into the
// forwarded traceparent — so the backend's "svc.request" root parents on
// the router's forward span and the two processes' spans form one tree.
//
// Router-answered request types (never forwarded): "health" (aggregated
// backend view), "stats", "metrics" (router RED telemetry + per-backend
// "route" section), "drain_backend", "shutdown". Everything else routes:
// requests with an "instance" object by digest, the rest to a fixed
// shard (the empty-digest owner), so placement is a pure function of the
// request bytes.
//
// Threading: the shared front end (svc/frontend.h) runs one session thread
// per client connection and reaps it when the connection ends; the router
// answers each line inline on its session thread, so a session holds at
// most one pooled backend connection at a time. One prober thread sweeps
// backend health. Drain: stop accepting, wake idle readers, let in-flight
// forwards finish, then join the prober and close the pools.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "route/shard_map.h"
#include "svc/frontend.h"

namespace mecsc::route {

struct RouterOptions : svc::FrontendOptions {
  /// The topology. At least one backend; see ShardMap for the hash
  /// identity rules.
  std::vector<BackendSpec> backends;

  /// Health-probe sweep period; <= 0 disables the prober (forward
  /// failures still mark backends unhealthy, but nothing marks them
  /// healthy again — determinism runs disable probing so no probe
  /// traffic consumes backend request-id sequence numbers).
  double health_interval_ms = 1000.0;

  /// Consecutive probe failures before a backend is marked unhealthy.
  std::size_t probe_failure_threshold = 2;

  /// Pre-spill threshold: with fresh probe data, a backend whose queue
  /// occupancy (wall_queue_depth / queue_capacity) is at or above this
  /// fraction is skipped in preference order. >= 1 disables pre-spill
  /// (reactive spill on "overloaded" responses still happens).
  double spill_queue_fraction = 0.9;
};

/// Point-in-time router counters for the "stats" response and tests.
struct RouterStats : svc::FrontendStats {
  std::uint64_t forwarded = 0;       ///< requests sent to some backend
  std::uint64_t spilled = 0;         ///< landed off their preferred shard
  std::uint64_t backend_reconnects = 0;  ///< sum of per-backend reconnects
  std::uint64_t backend_failures = 0;  ///< forwards that lost a backend
};

/// One backend's live view for health aggregation / the "route" metrics
/// section.
struct BackendView {
  std::string name;
  std::string endpoint;
  std::size_t weight = 1;
  bool draining = false;
  bool healthy = true;
  bool probed = false;  ///< load fields below are fresh probe data
  std::size_t queue_capacity = 0;
  std::size_t workers = 0;
  double queue_depth = 0.0;       ///< wall_ in serialized form
  double inflight = 0.0;          ///< wall_
  double service_time_ms = 0.0;   ///< wall_
  std::uint64_t forwarded = 0;
  std::uint64_t spilled_to = 0;   ///< received as a spill target
  std::uint64_t failures = 0;
  std::uint64_t reconnects = 0;
};

class Router : public svc::Frontend {
 public:
  /// Bad topologies throw std::invalid_argument here, before any socket
  /// exists; start() (inherited) binds and spawns the acceptor and the
  /// health prober when enabled.
  explicit Router(RouterOptions options);
  ~Router() override;

  RouterStats stats() const;
  std::vector<BackendView> backend_views() const;

  /// Marks a backend draining so new requests rehash past it (in-flight
  /// forwards finish on their own). Returns false when the name is
  /// unknown or this would leave no backend accepting keys.
  bool drain_backend(const std::string& name);

  /// Shard lookup for tests: which backend (index into options.backends)
  /// owns this digest right now, honoring draining/unhealthy skips.
  std::size_t shard_of(const std::string& digest) const;

 private:
  /// Per-backend runtime state: connection pool, health flags, probe
  /// data, counters. Fixed at construction — topology changes are flag
  /// flips, never vector surgery, so sessions index it without a lock.
  struct BackendState {
    BackendSpec spec;

    /// Idle pooled connections (exclusive per in-flight request: the
    /// backend's worker pool may interleave responses across a pipelined
    /// connection, so a pooled connection carries one request at a time).
    util::Mutex pool_mutex;
    std::vector<svc::ConnectionPtr> idle MECSC_GUARDED_BY(pool_mutex);

    std::atomic<bool> draining{false};
    std::atomic<bool> healthy{true};

    /// Probe results (prober writes, sessions/exports read).
    mutable util::Mutex health_mutex;
    bool probed MECSC_GUARDED_BY(health_mutex) = false;
    std::size_t queue_capacity MECSC_GUARDED_BY(health_mutex) = 0;
    std::size_t workers MECSC_GUARDED_BY(health_mutex) = 0;
    double queue_depth MECSC_GUARDED_BY(health_mutex) = 0.0;
    double inflight MECSC_GUARDED_BY(health_mutex) = 0.0;
    double service_time_ms MECSC_GUARDED_BY(health_mutex) = 0.0;
    std::size_t probe_failures MECSC_GUARDED_BY(health_mutex) = 0;

    std::atomic<std::uint64_t> forwarded{0};
    std::atomic<std::uint64_t> spilled_to{0};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> reconnects{0};
  };

  /// Outcome of one forward attempt chain.
  struct ForwardResult {
    std::string response;      ///< raw backend response line
    std::size_t backend = 0;   ///< index that answered
    bool spilled = false;      ///< not the first preference
    bool ok = false;           ///< relayed response parsed as ok:true
    std::string error_code;    ///< from the relayed response when !ok
  };

  void admit(const svc::ConnectionPtr& conn, std::string line,
             std::uint32_t session) override;
  Response handle(Request& request) override;
  void on_start() override;
  void on_drain() override;
  void on_sessions_done() override;
  void add_metrics(util::JsonObject& doc) const override;
  void add_prometheus(std::string& text) const override;

  std::string health(const Request& request) const;
  std::string stats_response(const Request& request) const;
  std::string drain_response(const Request& request);
  /// Forwards the request to its shard and relays the backend's answer.
  Response route(Request& request);

  /// True when `backend` should be skipped in preference order right now.
  bool should_skip(const BackendState& backend) const;
  /// Forwards `line` down the digest's preference order; nullopt when
  /// every backend failed at the transport level (no response exists).
  std::optional<ForwardResult> forward(const std::string& digest,
                                       const std::string& line);
  /// One attempt against one backend: pooled connection, single retry on
  /// a stale pooled connection, pool return on success. nullopt = the
  /// backend is gone (marked unhealthy).
  std::optional<std::string> forward_once(BackendState& backend,
                                          const std::string& line);

  void prober_loop();
  /// One probe sweep over all backends. Exposed to the loop only.
  void probe_all();

  RouterOptions options_;
  std::unique_ptr<ShardMap> shard_map_;  ///< immutable after construction
  std::vector<std::unique_ptr<BackendState>> backends_;

  /// Prober sleep/wakeup: wait_for_ms between sweeps, notified on drain.
  util::Mutex prober_mutex_;
  bool prober_stop_ MECSC_GUARDED_BY(prober_mutex_) = false;
  util::CondVar prober_cv_;

  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> spilled_{0};
  std::atomic<std::uint64_t> backend_failures_{0};

  std::thread prober_thread_;  ///< start()/wait() only (owning thread)
};

}  // namespace mecsc::route
