// Serving front end shared by the solver daemon (svc::SolverServer) and the
// routing tier (route::Router): the listener, one session thread per
// connection, graceful drain, and everything a protocol response carries
// besides its payload — envelope, request id, trace context, tail-sampled
// trace, flight-recorder entry, wide event, and the telemetry exports.
//
// A role (the server or the router) derives from Frontend and supplies
// only what differs:
//   - admit(): what happens to a request line a session has read. The
//     server queues it for its worker pool (answering "overloaded" when the
//     queue is full); the router answers it inline on the session thread.
//     Either way the answer comes from serve_line().
//   - handle(): the request types the role answers. The front end answers
//     "metrics" and "shutdown" itself, identically for both roles.
//   - lifecycle hooks (on_start / on_drain / on_sessions_done) for the
//     role's own threads, and gauge/metrics hooks for its own sections.
// A FrontendRole constant names the role's spans, metrics, and minted
// request ids ("s-<n>" / "r-<n>").
//
// Sessions are reaped as they end: a finished session erases its own
// entry and joins the session that finished before it, so thread handles
// and connection entries cover only live sessions (plus at most one exited
// thread awaiting its join) no matter how many connections came and went.
// wait() joins the acceptor, waits for the last session, and joins it.
//
// Locking: lifecycle_mutex_ guards the session table and the drain flag,
// and is a leaf — nothing else is locked while it is held (the acceptor
// writes its drain notice after releasing it). Counters are atomics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/telemetry.h"
#include "obs/tracing.h"
#include "svc/admin.h"
#include "svc/socket.h"
#include "util/json.h"
#include "util/json_arena.h"
#include "util/sync.h"
#include "util/timer.h"

namespace mecsc::svc {

/// Protocol version echoed by "health" and "stats"; bump on incompatible
/// wire changes.
inline constexpr int kSvcProtocolVersion = 1;

/// Longest accepted request line (instances are a few hundred KB at
/// paper scale; 64 MB is generous headroom, not an invitation).
inline constexpr std::size_t kMaxRequestBytes = 64u << 20;

/// Endpoint and observability settings shared by both roles
/// (ServerOptions and RouterOptions extend this).
struct FrontendOptions {
  /// Exactly one of the two endpoints: a Unix-domain socket path, or a
  /// loopback TCP port (0 = ephemeral, see Frontend::port()).
  std::string unix_socket_path;
  int tcp_port = -1;

  /// Wide-event request log: one JSON-lines record per request (schema in
  /// obs/telemetry.h RequestEvent). Empty disables logging.
  std::string request_log_path;

  /// Requests with total latency >= this mirror their wide event to
  /// stderr as they complete, and their causal trace is tail-kept even
  /// when head sampling did not select it; < 0 disables both.
  double slow_request_ms = -1.0;

  /// Request-log growth cap in MiB: when the current log file would
  /// exceed it, the file rotates once to "<path>.1" (replacing any
  /// previous rollover) and a fresh file begins. <= 0 disables rotation.
  double request_log_max_mb = 0.0;

  /// Head-sampling rate for causal traces in [0, 1]: the fraction of
  /// trace ids kept independent of outcome (error and slow requests are
  /// always kept — tail-based sampling). Deterministic per trace id.
  double trace_sample_rate = 0.0;

  /// Kept traces are appended to this file as Chrome trace-event JSON
  /// (Perfetto-loadable; see obs/tracing.h). Empty disables the writer —
  /// span trees are still built for the flight recorder.
  std::string trace_out;

  /// Flight-recorder ring size: the last N completed requests (wide
  /// event + span tree) held in memory for GET /debug/flight / SIGQUIT
  /// dumps. Always on; values < 1 are clamped to 1.
  std::size_t flight_recorder_capacity = 256;

  /// Read-only admin HTTP endpoint (loopback): GET /metrics (Prometheus
  /// text), GET /stats (telemetry JSON), GET /debug/flight. -1 disables;
  /// 0 binds an ephemeral port resolved by admin_port().
  int admin_port = -1;

  /// Sliding RED window span for telemetry rates (ms).
  double telemetry_window_ms = 60000.0;
};

/// Per-role names. Span names must be string literals (TraceSpan and the
/// profiler keep the pointer).
struct FrontendRole {
  const char* name;          ///< "server" | "router" (drain notices)
  const char* id_prefix;     ///< minted request ids: "s-" | "r-"
  const char* layer;         ///< metric namespace: "svc" | "route"
  const char* request_span;  ///< trace root and profiler scope
  const char* parse_span;
  const char* queue_span;    ///< nullptr when lines are answered inline
};

/// Counters every role keeps (ServerStats / RouterStats extend this).
struct FrontendStats {
  std::uint64_t accepted_connections = 0;
  std::uint64_t requests_total = 0;   ///< lines read (incl. rejected)
  std::uint64_t responses_ok = 0;
  std::uint64_t responses_error = 0;  ///< structured errors of any code
};

/// A structured protocol error with its own code ("deadline_exceeded",
/// "unavailable", ...). Other exceptions map to bad_request (invalid
/// arguments, JSON type errors, "io: " decode errors) or internal.
struct RequestError : std::runtime_error {
  RequestError(std::string error_code, const std::string& message)
      : std::runtime_error(message), code(std::move(error_code)) {}
  std::string code;
};

/// Typed optional fields of a request object, with defaults.
double require_number(const util::JsonArena::View& request,
                      const std::string& key, double fallback);
bool require_bool(const util::JsonArena::View& request, const std::string& key,
                  bool fallback);
/// The field must be present and a string.
std::string require_string(const util::JsonArena::View& request,
                           const std::string& key);

/// {"id":…, "ok":true, "type":…, "request_id":…}: the fields every
/// successful response starts from.
util::JsonObject ok_envelope(const util::JsonValue& id, const std::string& type,
                             const std::string& request_id);

class Frontend {
 public:
  virtual ~Frontend();
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Binds the endpoint, opens the telemetry sinks, runs on_start(), and
  /// spawns the acceptor. Throws std::runtime_error when the endpoint
  /// cannot be bound.
  void start();

  /// Begins graceful drain: stop accepting, wake blocked session readers,
  /// answer everything admitted. Safe from any thread (a "shutdown"
  /// request, a signal watcher); idempotent.
  void request_shutdown();

  /// Blocks until the drain completes and every thread is joined, then
  /// flushes and closes the telemetry sinks. Call from the owning thread
  /// after start(); calling it again is a no-op.
  void wait();

  /// True once request_shutdown() has been called.
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Bound TCP port (after start(); 0 for Unix endpoints).
  int port() const;
  /// Bound admin HTTP port (after start(); -1 when the endpoint is off).
  int admin_port() const;
  /// "unix:<path>" or "tcp:127.0.0.1:<port>" (after start()).
  const std::string& endpoint() const;

  /// Telemetry snapshot + live gauges (obs::telemetry_to_json shape), plus
  /// the role's own sections: the "metrics" response body and admin /stats.
  util::JsonValue metrics_json();
  /// The same data as Prometheus text exposition (admin /metrics body).
  std::string metrics_prometheus();
  /// Flight-recorder dump: the last N completed requests, oldest first
  /// (admin GET /debug/flight body, SIGQUIT).
  util::JsonValue flight_json() const;

 protected:
  Frontend(const FrontendRole& role, const FrontendOptions& options);

  /// One parsed request on its way to a role handler.
  struct Request {
    Request(std::string raw, const util::Timer& admitted_timer, double queued)
        : line(std::move(raw)), admitted(admitted_timer), queue_ms(queued) {}

    std::string line;             ///< the raw request bytes
    const util::Timer& admitted;  ///< queue wait + service time base
    double queue_ms;
    /// Root object of the parsed line; valid only inside handle().
    util::JsonArena::View doc;
    util::JsonValue id;      ///< null when the client sent none
    std::string request_id;  ///< the client's, or minted
    std::string type;
    obs::RequestEvent event;
    std::optional<obs::RequestTrace> trace;
  };

  /// A role handler's answer: the response line and its verdict.
  struct Response {
    std::string line;
    bool ok = true;
  };

  /// Answers one request line end to end: parse, resolve the envelope and
  /// trace context, dispatch ("metrics"/"shutdown" here, everything else to
  /// handle()), map exceptions to structured errors, count, write, and run
  /// the trace/flight/request-log epilogue. `tid` labels the trace's
  /// thread; `queue_ms` is the wait between admission and now.
  void serve_line(const ConnectionPtr& conn, std::string line,
                  const util::Timer& admitted, double admitted_at_ms,
                  std::uint32_t tid, double queue_ms);

  /// Answers a line that was never parsed (drain, overload) with a
  /// null-id error carrying a minted request id, and records it.
  void reject(const ConnectionPtr& conn, std::size_t bytes_in,
              const std::string& code, const std::string& message,
              double retry_after_ms = -1.0);

  /// Derived destructors call this (request_shutdown + wait) before their
  /// own members go away; the hooks below must not run on a dead role.
  void stop() {
    request_shutdown();
    wait();
  }

  obs::ServiceTelemetry& telemetry() { return telemetry_; }
  FrontendStats frontend_stats() const;

  /// A session read `line` (non-empty, not draining). Must eventually
  /// answer it (serve_line or reject). `session` numbers connections.
  virtual void admit(const ConnectionPtr& conn, std::string line,
                     std::uint32_t session) = 0;
  /// Answers every request type but "metrics" and "shutdown". Throws for
  /// structured errors (see RequestError).
  virtual Response handle(Request& request) = 0;
  /// Spawns the role's threads; runs in start() before the acceptor.
  virtual void on_start() {}
  /// Wakes the role's blocked threads; runs once, in request_shutdown().
  virtual void on_drain() {}
  /// Joins the role's threads; runs in wait() once every session is gone.
  virtual void on_sessions_done() {}
  virtual void add_gauges(obs::ServiceGauges& /*gauges*/) const {}
  virtual void add_metrics(util::JsonObject& /*doc*/) const {}
  virtual void add_prometheus(std::string& /*text*/) const {}

 private:
  /// Metric names for the role's layer, built once.
  struct MetricNames {
    explicit MetricNames(const std::string& layer);
    std::string requests, parse_bytes, responses_ok, responses_error,
        traces_sampled, traces_kept, parse_wall_ms, service_wall_ms;
  };

  struct Session {
    std::thread thread;
    std::weak_ptr<Connection> conn;
  };

  void acceptor_loop();
  /// Records `conn` in sessions_ and spawns its session thread.
  void start_session(ConnectionPtr conn)
      MECSC_REQUIRES(lifecycle_mutex_);
  void session_loop(ConnectionPtr conn, std::uint32_t session);
  /// Runs last on a session thread: drops the session's entry, parks its
  /// thread handle, and joins the previously parked one.
  void reap(std::uint64_t session);
  /// Envelope, type, and trace context of a parsed request.
  void resolve(Request& request, const util::JsonArena::View& doc);
  /// Writes a "shutdown" acknowledgment, records it, starts the drain.
  void acknowledge_shutdown(const ConnectionPtr& conn, Request& request);
  /// Starts the request's trace under `ctx`, or under a context minted
  /// from its request_id when `ctx` is not valid.
  void open_trace(Request& request, obs::TraceContext ctx);
  std::string next_request_id();
  void record_event(obs::RequestEvent event);
  obs::ServiceGauges gauges() const;

  const FrontendRole role_;
  const FrontendOptions options_;
  const MetricNames names_;

  std::unique_ptr<Listener> listener_;
  obs::ServiceTelemetry telemetry_;
  std::unique_ptr<obs::RequestLog> request_log_;    ///< null when disabled
  std::unique_ptr<obs::TraceWriter> trace_writer_;  ///< null when disabled
  obs::FlightRecorder flight_;                      ///< always on
  std::unique_ptr<AdminServer> admin_;              ///< null when disabled

  std::atomic<std::uint64_t> accepted_connections_{0};
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> responses_ok_{0};
  std::atomic<std::uint64_t> responses_error_{0};
  std::atomic<std::uint64_t> traces_sampled_{0};  ///< head-sample hits
  std::atomic<std::uint64_t> traces_kept_{0};     ///< written candidates
  std::atomic<std::uint64_t> request_id_seq_{0};
  std::atomic<std::size_t> connections_in_flight_{0};

  std::atomic<bool> draining_{false};
  util::Mutex lifecycle_mutex_;
  util::CondVar lifecycle_cv_;  ///< drain started, or the last session ended
  bool drain_ready_ MECSC_GUARDED_BY(lifecycle_mutex_) = false;
  std::uint64_t next_session_ MECSC_GUARDED_BY(lifecycle_mutex_) = 0;
  std::map<std::uint64_t, Session> sessions_
      MECSC_GUARDED_BY(lifecycle_mutex_);  ///< live sessions only
  std::thread ended_ MECSC_GUARDED_BY(lifecycle_mutex_);  ///< awaits a join
  std::thread acceptor_thread_;  ///< start()/wait() only (owning thread)
  bool waited_ = false;          ///< wait() only (owning thread)
};

}  // namespace mecsc::svc
