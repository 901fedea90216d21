#include "svc/frontend.h"

#include <exception>
#include <system_error>
#include <utility>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace mecsc::svc {
namespace {

using util::JsonObject;
using util::JsonValue;

std::string error_line(const JsonValue& id, const std::string& code,
                       const std::string& message,
                       const std::string& request_id = std::string(),
                       double retry_after_ms = -1.0) {
  JsonObject error;
  error["code"] = JsonValue(code);
  error["message"] = JsonValue(message);
  if (retry_after_ms >= 0.0)
    error["wall_retry_after_ms"] = JsonValue(retry_after_ms);
  JsonObject response;
  response["id"] = id;
  response["ok"] = JsonValue(false);
  if (!request_id.empty()) response["request_id"] = JsonValue(request_id);
  response["error"] = JsonValue(std::move(error));
  return JsonValue(std::move(response)).dump();
}

/// Decrements an in-flight gauge on scope exit, whichever way the scope
/// unwinds.
class GaugeGuard {
 public:
  explicit GaugeGuard(std::atomic<std::size_t>& gauge) : gauge_(gauge) {
    gauge_.fetch_add(1, std::memory_order_relaxed);
  }
  ~GaugeGuard() { gauge_.fetch_sub(1, std::memory_order_relaxed); }
  GaugeGuard(const GaugeGuard&) = delete;
  GaugeGuard& operator=(const GaugeGuard&) = delete;

 private:
  std::atomic<std::size_t>& gauge_;
};

/// The structured error code for an exception escaping request handling.
std::string error_code_of(const std::exception& e) {
  if (const auto* error = dynamic_cast<const RequestError*>(&e))
    return error->code;
  if (std::string(e.what()).rfind("io: ", 0) == 0 ||
      dynamic_cast<const std::invalid_argument*>(&e) != nullptr ||
      dynamic_cast<const util::JsonError*>(&e) != nullptr)
    return "bad_request";
  return "internal";
}

obs::ServiceTelemetry::Options telemetry_options(const FrontendOptions& o) {
  obs::ServiceTelemetry::Options t;
  if (o.telemetry_window_ms > 0.0) t.window_ms = o.telemetry_window_ms;
  return t;
}

}  // namespace

double require_number(const util::JsonArena::View& request,
                      const std::string& key, double fallback) {
  if (!request.contains(key)) return fallback;
  const util::JsonArena::View v = request.at(key);
  if (!v.is_number())
    throw std::invalid_argument("field \"" + key + "\" must be a number");
  return v.as_number();
}

bool require_bool(const util::JsonArena::View& request, const std::string& key,
                  bool fallback) {
  if (!request.contains(key)) return fallback;
  const util::JsonArena::View v = request.at(key);
  if (!v.is_bool())
    throw std::invalid_argument("field \"" + key + "\" must be a boolean");
  return v.as_bool();
}

std::string require_string(const util::JsonArena::View& request,
                           const std::string& key) {
  const util::JsonArena::View v = request.at(key);
  if (!v.is_string())
    throw std::invalid_argument("field \"" + key + "\" must be a string");
  return std::string(v.as_string());
}

JsonObject ok_envelope(const JsonValue& id, const std::string& type,
                       const std::string& request_id) {
  JsonObject response;
  response["id"] = id;
  response["ok"] = JsonValue(true);
  response["type"] = JsonValue(type);
  response["request_id"] = JsonValue(request_id);
  return response;
}

Frontend::MetricNames::MetricNames(const std::string& layer)
    : requests(layer + ".requests"),
      parse_bytes(layer + ".parse_bytes"),
      responses_ok(layer + ".responses_ok"),
      responses_error(layer + ".responses_error"),
      traces_sampled(layer + ".traces_sampled"),
      traces_kept(layer + ".traces_kept"),
      parse_wall_ms("wall_" + layer + "_parse_ms"),
      service_wall_ms("wall_" + layer + "_service_ms") {}

Frontend::Frontend(const FrontendRole& role, const FrontendOptions& options)
    : role_(role),
      options_(options),
      names_(role.layer),
      telemetry_(telemetry_options(options)),
      flight_(options.flight_recorder_capacity) {}

Frontend::~Frontend() = default;

void Frontend::start() {
  if (!options_.unix_socket_path.empty()) {
    listener_ = std::make_unique<Listener>(
        Listener::listen_unix(options_.unix_socket_path));
  } else if (options_.tcp_port >= 0) {
    listener_ =
        std::make_unique<Listener>(Listener::listen_tcp(options_.tcp_port));
  } else {
    throw std::runtime_error(std::string(role_.layer) +
                             ": options need unix_socket_path or tcp_port");
  }
  if (!options_.request_log_path.empty()) {
    obs::RequestLog::Options log_options;
    log_options.path = options_.request_log_path;
    log_options.slow_request_ms = options_.slow_request_ms;
    if (options_.request_log_max_mb > 0.0) {
      log_options.max_bytes = static_cast<std::size_t>(
          options_.request_log_max_mb * 1024.0 * 1024.0);
    }
    request_log_ = std::make_unique<obs::RequestLog>(log_options);
  }
  if (!options_.trace_out.empty()) {
    obs::TraceWriter::Options trace_options;
    trace_options.path = options_.trace_out;
    trace_writer_ = std::make_unique<obs::TraceWriter>(trace_options);
  }
  if (options_.admin_port >= 0) {
    AdminServer::Options admin_options;
    admin_options.tcp_port = options_.admin_port;
    admin_options.metrics_handler = [this] { return metrics_prometheus(); };
    // Trailing newline: /stats is consumed by line-oriented tooling
    // (curl | jq, the tests' line reader) as well as browsers.
    admin_options.stats_handler = [this] {
      return metrics_json().dump() + "\n";
    };
    admin_options.flight_handler = [this] {
      return flight_json().dump() + "\n";
    };
    admin_ = std::make_unique<AdminServer>(admin_options);
  }
  on_start();
  acceptor_thread_ = std::thread([this] { acceptor_loop(); });
}

int Frontend::port() const { return listener_ ? listener_->port() : 0; }

int Frontend::admin_port() const { return admin_ ? admin_->port() : -1; }

const std::string& Frontend::endpoint() const {
  static const std::string kUnbound = "(unbound)";
  return listener_ ? listener_->endpoint() : kUnbound;
}

void Frontend::acceptor_loop() {
  while (true) {
    ConnectionPtr conn = listener_->accept();
    if (!conn) return;  // listener shut down (drain) or fatal error
    bool refused = false;
    {
      // The drain check and the insertion are one step, so
      // request_shutdown()'s sweep sees every session that will read.
      const util::MutexLock lock(lifecycle_mutex_);
      refused = draining();
      if (!refused) start_session(std::move(conn));
    }
    if (refused) {
      conn->write_line(error_line(JsonValue(nullptr), "shutting_down",
                                  std::string(role_.name) + " is draining"));
      continue;  // the connection closes when conn goes out of scope
    }
    accepted_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Frontend::start_session(ConnectionPtr conn) {
  const std::uint64_t key = next_session_++;
  Session& session = sessions_[key];
  session.conn = conn;
  try {
    session.thread =
        std::thread([this, key, conn = std::move(conn)]() mutable {
          session_loop(std::move(conn), static_cast<std::uint32_t>(key));
          reap(key);
        });
  } catch (const std::system_error&) {
    // Out of threads: the connection closes unanswered, and the acceptor
    // lives on to serve the next one.
    sessions_.erase(key);
  }
}

void Frontend::session_loop(ConnectionPtr conn, std::uint32_t session) {
  const GaugeGuard in_flight(connections_in_flight_);
  while (true) {
    std::optional<std::string> line = conn->read_line(kMaxRequestBytes);
    if (!line) {
      if (conn->line_overflow()) {
        conn->write_line(error_line(JsonValue(nullptr), "bad_request",
                                    "request line exceeds the size limit"));
        // The stream is desynchronized past an overlong line; close it.
      }
      return;
    }
    if (line->empty()) continue;  // blank keep-alive lines are harmless
    requests_total_.fetch_add(1, std::memory_order_relaxed);
    if (draining()) {
      reject(conn, line->size(), "shutting_down",
             std::string(role_.name) + " is draining");
      continue;
    }
    admit(conn, std::move(*line), session);
  }
}

void Frontend::reap(std::uint64_t session) {
  std::thread previous;
  {
    const util::MutexLock lock(lifecycle_mutex_);
    const auto it = sessions_.find(session);
    previous = std::move(ended_);
    ended_ = std::move(it->second.thread);
    sessions_.erase(it);
    // Notified under the lock: wait() cannot finish (and the Frontend
    // cannot be destroyed) before it has joined this thread via ended_.
    if (sessions_.empty()) lifecycle_cv_.notify_all();
  }
  // The previous session has left its last critical section, so this
  // join is brief; at most one exited thread is ever left unjoined.
  if (previous.joinable()) previous.join();
}

void Frontend::reject(const ConnectionPtr& conn, std::size_t bytes_in,
                      const std::string& code, const std::string& message,
                      double retry_after_ms) {
  responses_error_.fetch_add(1, std::memory_order_relaxed);
  const std::string rid = next_request_id();
  const std::string response =
      error_line(JsonValue(nullptr), code, message, rid, retry_after_ms);
  conn->write_line(response);
  obs::RequestEvent event;
  event.request_id = rid;
  event.outcome = code;
  event.ok = false;
  event.bytes_in = bytes_in;
  event.bytes_out = response.size() + 1;
  // Overload storms and drains are exactly what the flight ring is for;
  // record the rejection even though it never got a trace.
  flight_.record(event, nullptr);
  record_event(std::move(event));
}

std::string Frontend::next_request_id() {
  return role_.id_prefix +
         std::to_string(
             request_id_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
}

void Frontend::open_trace(Request& request, obs::TraceContext ctx) {
  if (!ctx.valid()) {
    // Minted from the request_id: deterministic, with no upstream parent.
    ctx = obs::TraceContext::derive(request.request_id, false);
    ctx.span_id.clear();
  }
  // Head sampling ORs onto the client's flag and is a pure function of the
  // trace id — never an RNG.
  ctx.sampled = ctx.sampled || obs::trace_head_sample(
                                   ctx.trace_id, options_.trace_sample_rate);
  request.trace.emplace(std::move(ctx), request.admitted, role_.request_span);
  // Queueing happened before the context was known; add it retroactively
  // so the tree covers the request from admission.
  if (role_.queue_span != nullptr)
    request.trace->add_complete(role_.queue_span, 0.0, request.queue_ms);
}

void Frontend::resolve(Request& request, const util::JsonArena::View& doc) {
  if (!doc.is_object())
    throw std::invalid_argument("request must be a JSON object");
  if (doc.contains("id")) request.id = doc.at("id").to_json_value();
  if (doc.contains("request_id"))
    request.request_id = require_string(doc, "request_id");
  if (request.request_id.empty()) request.request_id = next_request_id();
  if (!doc.contains("type"))
    throw std::invalid_argument("request needs a \"type\" field");
  request.type = require_string(doc, "type");
  request.event.type = request.type;
  request.doc = doc;

  // Adopt the client's traceparent when present and well-formed (anything
  // else is ignored, per W3C trace-context).
  obs::TraceContext ctx;
  if (doc.contains("traceparent") && doc.at("traceparent").is_string()) {
    if (auto parsed =
            obs::TraceContext::parse(require_string(doc, "traceparent")))
      ctx = *parsed;
  }
  open_trace(request, std::move(ctx));
  request.trace->add_complete(role_.parse_span, request.queue_ms,
                              request.event.parse_ms);
}

void Frontend::serve_line(const ConnectionPtr& conn, std::string line,
                          const util::Timer& admitted, double admitted_at_ms,
                          std::uint32_t tid, double queue_ms) {
  const obs::ProfileScope request_scope(role_.request_span);
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter_add(names_.requests);

  Request request(std::move(line), admitted, queue_ms);
  request.event.bytes_in = request.line.size();
  request.event.queue_ms = queue_ms;

  // The trace is built for *every* request (the flight ring needs it);
  // whether it is written out is decided at the end (tail-based sampling).
  // The bridge installs it as this thread's profiler span tap, so every
  // MECSC_PROFILE_SCOPE in the handler — role phases and solver internals
  // alike — lands in the span tree. Declared after the request scope so
  // the bridge detaches first.
  std::optional<obs::ProfilerListenerScope> bridge;
  Response response;
  try {
    util::JsonArena doc;
    {
      const obs::ProfileScope parse_scope(role_.parse_span);
      const util::Timer parse_timer;
      try {
        doc = util::parse_json_arena(request.line);
      } catch (const util::JsonError& e) {
        throw RequestError("parse_error", e.what());
      }
      request.event.parse_ms = parse_timer.elapsed_ms();
      metrics.wall_duration_record(names_.parse_wall_ms,
                                   request.event.parse_ms);
      metrics.counter_add(names_.parse_bytes,
                          static_cast<std::int64_t>(request.line.size()));
    }
    resolve(request, doc.root());
    bridge.emplace(&*request.trace);

    if (request.type == "shutdown") {
      bridge.reset();
      acknowledge_shutdown(conn, request);
      return;
    }
    if (request.type == "metrics") {
      // The same document the admin /stats endpoint serves, for clients
      // (mecsc_top, loadgen --scrape-interval-ms) already on the protocol.
      JsonObject body = ok_envelope(request.id, request.type,
                                    request.request_id);
      body["telemetry"] = metrics_json();
      response.line = JsonValue(std::move(body)).dump();
    } else {
      response = handle(request);
    }
  } catch (const std::exception& e) {
    const std::string code = error_code_of(e);
    if (request.request_id.empty()) request.request_id = next_request_id();
    request.event.outcome = code;
    response = {error_line(request.id, code, e.what(), request.request_id),
                false};
  }

  // Counters are bumped *before* the response leaves: a client that has
  // read its response and immediately asks for stats must see its own
  // request reflected in them.
  (response.ok ? responses_ok_ : responses_error_)
      .fetch_add(1, std::memory_order_relaxed);
  conn->write_line(response.line);
  metrics.wall_duration_record(names_.service_wall_ms, admitted.elapsed_ms());
  metrics.counter_add(response.ok ? names_.responses_ok
                                  : names_.responses_error);
  obs::RequestEvent& event = request.event;
  event.request_id = request.request_id;
  event.ok = response.ok;
  event.bytes_out = response.line.size() + 1;  // +1: the '\n' framing byte
  event.total_ms = admitted.elapsed_ms();

  // Trace epilogue: detach the profiler bridge, decide keep-or-drop
  // (tail-based: errors and slow requests survive a 0 sample rate), feed
  // the flight ring, and hand kept traces to the async writer.
  bridge.reset();
  // A request that failed before its context was resolved (parse error,
  // missing type) gets a minted one, so error traces are still kept and
  // explain themselves.
  if (!request.trace) open_trace(request, obs::TraceContext());
  const bool sampled = request.trace->context().sampled;
  std::string keep_reason;  // priority: error > sampled > slow
  if (!response.ok) {
    keep_reason = "error";
  } else if (sampled) {
    keep_reason = "sampled";
  } else if (options_.slow_request_ms >= 0.0 &&
             event.total_ms >= options_.slow_request_ms) {
    keep_reason = "slow";
  }
  if (sampled) {
    traces_sampled_.fetch_add(1, std::memory_order_relaxed);
    metrics.counter_add(names_.traces_sampled);
  }
  obs::FinishedTrace finished = request.trace->finish(
      request.request_id, event.type, keep_reason, tid, admitted_at_ms);
  if (!keep_reason.empty()) {
    traces_kept_.fetch_add(1, std::memory_order_relaxed);
    metrics.counter_add(names_.traces_kept);
  }
  flight_.record(event, &finished);
  if (trace_writer_ && !keep_reason.empty())
    trace_writer_->write(std::move(finished));
  record_event(std::move(event));
}

void Frontend::acknowledge_shutdown(const ConnectionPtr& conn,
                                    Request& request) {
  JsonObject body = ok_envelope(request.id, request.type, request.request_id);
  body["draining"] = JsonValue(true);
  const std::string response = JsonValue(std::move(body)).dump();
  responses_ok_.fetch_add(1, std::memory_order_relaxed);
  conn->write_line(response);
  obs::RequestEvent& event = request.event;
  event.request_id = request.request_id;
  event.bytes_out = response.size() + 1;
  event.total_ms = request.admitted.elapsed_ms();
  flight_.record(event, nullptr);
  record_event(std::move(event));
  // The response is on the wire before the drain starts, so a synchronous
  // client always sees its shutdown acknowledged. The drain tears the
  // trace writer down concurrently, so this request — the last one —
  // skips the trace epilogue.
  request_shutdown();
}

void Frontend::request_shutdown() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel))
    return;  // already draining
  if (listener_) listener_->shutdown();
  {
    // Wake blocked session readers so they observe the drain and exit.
    // drain_ready_ gates wait() so it never joins before this sweep.
    const util::MutexLock lock(lifecycle_mutex_);
    for (const auto& entry : sessions_)
      if (ConnectionPtr conn = entry.second.conn.lock()) conn->shutdown_read();
    drain_ready_ = true;
  }
  on_drain();
  lifecycle_cv_.notify_all();
}

void Frontend::wait() {
  if (waited_) return;
  {
    const util::MutexLock lock(lifecycle_mutex_);
    while (!drain_ready_) lifecycle_cv_.wait(lifecycle_mutex_);
  }
  if (acceptor_thread_.joinable()) acceptor_thread_.join();
  std::thread last;
  {
    // The acceptor is gone, so no session starts from here on. Sessions
    // exit on EOF/shutdown_read and reap themselves.
    const util::MutexLock lock(lifecycle_mutex_);
    while (!sessions_.empty()) lifecycle_cv_.wait(lifecycle_mutex_);
    last = std::move(ended_);
  }
  if (last.joinable()) last.join();
  on_sessions_done();
  // Telemetry surfaces go last: the admin endpoint stays scrapeable while
  // the drain is in progress, and every recorded wide event is in the log
  // (and every kept trace in the writer queue) before the files are
  // flushed and closed.
  if (admin_) admin_->stop();
  if (request_log_) request_log_->close();
  if (trace_writer_) trace_writer_->close();
  waited_ = true;
}

FrontendStats Frontend::frontend_stats() const {
  FrontendStats s;
  s.accepted_connections =
      accepted_connections_.load(std::memory_order_relaxed);
  s.requests_total = requests_total_.load(std::memory_order_relaxed);
  s.responses_ok = responses_ok_.load(std::memory_order_relaxed);
  s.responses_error = responses_error_.load(std::memory_order_relaxed);
  return s;
}

void Frontend::record_event(obs::RequestEvent event) {
  telemetry_.record(event);
  if (request_log_) request_log_->write(event);
}

obs::ServiceGauges Frontend::gauges() const {
  obs::ServiceGauges g;
  g.connections_in_flight =
      connections_in_flight_.load(std::memory_order_relaxed);
  g.accepted_connections =
      accepted_connections_.load(std::memory_order_relaxed);
  if (request_log_) {
    g.request_log_dropped = request_log_->dropped();
    g.request_log_rotations = request_log_->rotations();
  }
  g.traces_sampled = traces_sampled_.load(std::memory_order_relaxed);
  g.traces_kept = traces_kept_.load(std::memory_order_relaxed);
  if (trace_writer_) g.trace_writer_dropped = trace_writer_->dropped();
  g.flight_capacity = flight_.capacity();
  g.flight_size = flight_.size();
  g.flight_recorded_total = flight_.recorded_total();
  add_gauges(g);
  return g;
}

JsonValue Frontend::flight_json() const { return flight_.to_json(); }

JsonValue Frontend::metrics_json() {
  JsonValue doc = obs::telemetry_to_json(telemetry_.snapshot(), gauges());
  add_metrics(doc.as_object());
  return doc;
}

std::string Frontend::metrics_prometheus() {
  std::string text =
      obs::telemetry_to_prometheus(telemetry_.snapshot(), gauges());
  add_prometheus(text);
  return text;
}

}  // namespace mecsc::svc
