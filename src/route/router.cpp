#include "route/router.h"

#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/run_info.h"
#include "svc/client.h"

namespace mecsc::route {
namespace {

using util::JsonArray;
using util::JsonObject;
using util::JsonValue;

// Lines are answered inline on the session thread, so there is no queue
// span.
constexpr svc::FrontendRole kRouterRole{
    "router", "r-", "route", "route.request", "route.parse", nullptr};

/// Splices `,"key":<value_json>` immediately before the final '}' of a
/// serialized JSON object, exploiting the protocol's last-duplicate-wins
/// rule (util/json_arena.h): every reader of a parsed document resolves
/// duplicate object keys to the final occurrence, so the spliced field overrides any
/// earlier one without re-serializing the line. `value_json` must be a
/// complete JSON value; key and value are router-minted (safe charset),
/// never client bytes.
void splice_field(std::string& line, const std::string& key,
                  const std::string& value_json) {
  const std::size_t brace = line.rfind('}');
  if (brace == std::string::npos) return;  // not an object: leave untouched
  // An empty object ("{}" modulo whitespace) takes the field without the
  // leading comma. Routed lines always carry at least "type", but the
  // guard keeps the helper total.
  std::size_t prev = brace;
  while (prev > 0 && (line[prev - 1] == ' ' || line[prev - 1] == '\t'))
    --prev;
  const bool empty_object = prev > 0 && line[prev - 1] == '{';
  line.insert(brace, (empty_object ? "\"" : ",\"") + key + "\":" + value_json);
}

/// The per-backend fields every view-based section shares.
JsonObject backend_identity(const BackendView& view) {
  JsonObject b;
  b["name"] = JsonValue(view.name);
  b["draining"] = JsonValue(view.draining);
  b["healthy"] = JsonValue(view.healthy);
  return b;
}

/// Probe-derived load fields; present only while the probe data is fresh.
void add_probe_fields(const BackendView& view, JsonObject& b) {
  if (!view.probed) return;
  b["queue_capacity"] = JsonValue(view.queue_capacity);
  b["workers"] = JsonValue(view.workers);
  b["wall_queue_depth"] = JsonValue(view.queue_depth);
  b["wall_inflight"] = JsonValue(view.inflight);
  b["wall_service_time_ms"] = JsonValue(view.service_time_ms);
}

void add_traffic_fields(const BackendView& view, JsonObject& b) {
  b["forwarded"] = JsonValue(view.forwarded);
  b["spilled_to"] = JsonValue(view.spilled_to);
  b["failures"] = JsonValue(view.failures);
  b["reconnects"] = JsonValue(view.reconnects);
}

}  // namespace

Router::Router(RouterOptions options)
    : Frontend(kRouterRole, options), options_(std::move(options)) {
  // Topology errors surface at construction, before any socket exists.
  shard_map_ = std::make_unique<ShardMap>(options_.backends);
  backends_.reserve(options_.backends.size());
  for (const BackendSpec& spec : options_.backends) {
    auto state = std::make_unique<BackendState>();
    state->spec = spec;
    backends_.push_back(std::move(state));
  }
}

Router::~Router() { stop(); }

void Router::on_start() {
  if (options_.health_interval_ms > 0.0)
    prober_thread_ = std::thread([this] { prober_loop(); });
}

void Router::on_drain() {
  {
    const util::MutexLock lock(prober_mutex_);
    prober_stop_ = true;
  }
  prober_cv_.notify_all();
}

void Router::on_sessions_done() {
  if (prober_thread_.joinable()) prober_thread_.join();
  // Sessions are gone, so the pools are quiescent; dropping the idle
  // connections closes them.
  for (const auto& backend : backends_) {
    const util::MutexLock lock(backend->pool_mutex);
    backend->idle.clear();
  }
}

void Router::admit(const svc::ConnectionPtr& conn, std::string line,
                   std::uint32_t session) {
  // Routed inline: the session thread is the request's only thread.
  const util::Timer admitted;
  serve_line(conn, std::move(line), admitted, telemetry().now_ms(), session,
             0.0);
}

svc::Frontend::Response Router::handle(Request& request) {
  if (request.type == "health") return {health(request)};
  if (request.type == "stats") return {stats_response(request)};
  if (request.type == "drain_backend") return {drain_response(request)};
  return route(request);
}

std::string Router::health(const Request& request) const {
  JsonObject body =
      svc::ok_envelope(request.id, request.type, request.request_id);
  body["protocol_version"] = JsonValue(svc::kSvcProtocolVersion);
  body["role"] = JsonValue("router");
  body["draining"] = JsonValue(draining());
  JsonArray list;
  for (const BackendView& view : backend_views()) {
    JsonObject b = backend_identity(view);
    b["endpoint"] = JsonValue(view.endpoint);
    b["weight"] = JsonValue(view.weight);
    add_probe_fields(view, b);
    list.push_back(JsonValue(std::move(b)));
  }
  body["backends"] = JsonValue(std::move(list));
  return JsonValue(std::move(body)).dump();
}

std::string Router::stats_response(const Request& request) const {
  const RouterStats s = stats();
  JsonObject body =
      svc::ok_envelope(request.id, request.type, request.request_id);
  body["protocol_version"] = JsonValue(svc::kSvcProtocolVersion);
  JsonObject router;
  router["accepted_connections"] = JsonValue(s.accepted_connections);
  router["requests_total"] = JsonValue(s.requests_total);
  router["responses_ok"] = JsonValue(s.responses_ok);
  router["responses_error"] = JsonValue(s.responses_error);
  router["forwarded"] = JsonValue(s.forwarded);
  router["spilled"] = JsonValue(s.spilled);
  router["backend_reconnects"] = JsonValue(s.backend_reconnects);
  router["backend_failures"] = JsonValue(s.backend_failures);
  body["router"] = JsonValue(std::move(router));
  JsonArray list;
  for (const BackendView& view : backend_views()) {
    JsonObject b = backend_identity(view);
    add_traffic_fields(view, b);
    list.push_back(JsonValue(std::move(b)));
  }
  body["backends"] = JsonValue(std::move(list));
  return JsonValue(std::move(body)).dump();
}

std::string Router::drain_response(const Request& request) {
  if (!request.doc.contains("backend"))
    throw std::invalid_argument(
        "drain_backend needs a \"backend\" (name) field");
  const std::string name = svc::require_string(request.doc, "backend");
  if (!drain_backend(name))
    throw std::invalid_argument(
        "cannot drain \"" + name +
        "\": unknown backend or last one accepting keys");
  JsonObject body =
      svc::ok_envelope(request.id, request.type, request.request_id);
  body["draining_backend"] = JsonValue(name);
  std::size_t active = 0;
  for (const auto& backend : backends_)
    if (!backend->draining.load(std::memory_order_acquire)) ++active;
  body["active_backends"] = JsonValue(active);
  return JsonValue(std::move(body)).dump();
}

svc::Frontend::Response Router::route(Request& request) {
  // Requests with an instance shard by its digest; everything else lands
  // on the empty-digest owner — placement stays a pure function of the
  // request bytes either way.
  const util::JsonArena::View& doc = request.doc;
  obs::RequestTrace& trace = *request.trace;
  std::string digest;
  if (doc.contains("instance") && doc.at("instance").is_object()) {
    trace.begin("route.digest");
    digest = obs::fnv1a64_hex(doc.at("instance").dump());
    trace.end();
    request.event.instance_digest = digest;
  }
  if (doc.contains("algorithm") && doc.at("algorithm").is_string())
    request.event.algorithm = svc::require_string(doc, "algorithm");

  // The forwarded line: the raw client bytes plus (a) the resolved
  // request_id when the client sent none — so the backend's wide event,
  // the response, and the router's log all correlate on one id and the
  // backend never mints its own — and (b) the traceparent naming the
  // route.forward span as parent, which overrides any client traceparent
  // by the last-duplicate-wins rule. (The parsed doc has its own copy of
  // the bytes, so splicing into the line leaves it intact.)
  std::string& line = request.line;
  if (!doc.contains("request_id"))
    splice_field(line, "request_id", JsonValue(request.request_id).dump());
  trace.begin("route.forward");
  const obs::TraceContext& ctx = trace.context();
  const std::string hop_traceparent = "00-" + ctx.trace_id + "-" +
                                      trace.current_span_id() + "-" +
                                      (ctx.sampled ? "01" : "00");
  splice_field(line, "traceparent", JsonValue(hop_traceparent).dump());

  std::optional<ForwardResult> result = forward(digest, line);
  trace.end();
  if (!result)
    throw svc::RequestError("unavailable",
                            "no backend reachable for this request");

  auto& metrics = obs::MetricsRegistry::global();
  BackendState& backend = *backends_[result->backend];
  forwarded_.fetch_add(1, std::memory_order_relaxed);
  backend.forwarded.fetch_add(1, std::memory_order_relaxed);
  if (result->spilled) {
    spilled_.fetch_add(1, std::memory_order_relaxed);
    backend.spilled_to.fetch_add(1, std::memory_order_relaxed);
    metrics.counter_add("route.spilled");
  }
  metrics.counter_add("route.forwarded");

  Response response{std::move(result->response), result->ok};
  splice_field(response.line, "route_backend",
               JsonValue(backend.spec.name).dump());
  if (result->spilled) splice_field(response.line, "route_spilled", "true");
  if (!response.ok)
    request.event.outcome =
        result->error_code.empty() ? "relayed_error" : result->error_code;
  return response;
}

bool Router::should_skip(const BackendState& backend) const {
  if (backend.draining.load(std::memory_order_acquire)) return true;
  if (!backend.healthy.load(std::memory_order_acquire)) return true;
  if (options_.spill_queue_fraction < 1.0) {
    const util::MutexLock lock(backend.health_mutex);
    if (backend.probed && backend.queue_capacity > 0 &&
        backend.queue_depth >=
            options_.spill_queue_fraction *
                static_cast<double>(backend.queue_capacity)) {
      return true;
    }
  }
  return false;
}

std::size_t Router::shard_of(const std::string& digest) const {
  const std::vector<std::size_t> order = shard_map_->preference(digest);
  for (const std::size_t idx : order) {
    if (!should_skip(*backends_[idx])) return idx;
  }
  return order.front();
}

std::optional<std::string> Router::forward_once(BackendState& backend,
                                                const std::string& line) {
  // Pooled connection first. A pooled connection may have been closed by
  // a restarted backend since it went idle, so one transport failure on a
  // *pooled* connection earns a fresh dial before the backend is written
  // off; a failure on a fresh connection is definitive.
  svc::ConnectionPtr conn;
  bool pooled = false;
  {
    const util::MutexLock lock(backend.pool_mutex);
    if (!backend.idle.empty()) {
      conn = std::move(backend.idle.back());
      backend.idle.pop_back();
      pooled = true;
    }
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!conn) {
      try {
        const svc::Endpoint ep = svc::parse_endpoint(backend.spec.endpoint);
        conn = ep.is_unix ? svc::connect_unix(ep.path)
                          : svc::connect_tcp(ep.host, ep.port);
      } catch (const std::exception&) {
        break;  // backend not dialable
      }
      if (pooled || attempt > 0)
        backend.reconnects.fetch_add(1, std::memory_order_relaxed);
    }
    if (conn->write_line(line)) {
      std::optional<std::string> response =
          conn->read_line(svc::kMaxResponseBytes);
      if (response) {
        const util::MutexLock lock(backend.pool_mutex);
        backend.idle.push_back(std::move(conn));
        return response;
      }
      // EOF mid-request or an overlong response: the stream is dead or
      // desynchronized either way — drop the connection.
    }
    conn.reset();
    if (!pooled) break;  // the failed connection was already fresh
    pooled = false;      // retry once on a fresh dial
  }
  backend.healthy.store(false, std::memory_order_release);
  backend.failures.fetch_add(1, std::memory_order_relaxed);
  backend_failures_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

std::optional<Router::ForwardResult> Router::forward(const std::string& digest,
                                                     const std::string& line) {
  const std::vector<std::size_t> order = shard_map_->preference(digest);
  // Eligible backends in preference order, then the skipped ones as a
  // last resort — a draining or unhealthy backend that still answers
  // beats a structured failure.
  std::vector<std::size_t> try_order;
  try_order.reserve(order.size());
  for (const std::size_t idx : order)
    if (!should_skip(*backends_[idx])) try_order.push_back(idx);
  const std::size_t eligible = try_order.size();
  for (const std::size_t idx : order)
    if (should_skip(*backends_[idx])) try_order.push_back(idx);

  std::optional<ForwardResult> pushed_back;  // best overloaded response
  for (std::size_t i = 0; i < try_order.size(); ++i) {
    const std::size_t idx = try_order[i];
    BackendState& backend = *backends_[idx];
    std::optional<std::string> response = forward_once(backend, line);
    if (!response) continue;

    ForwardResult result;
    result.response = std::move(*response);
    result.backend = idx;
    result.spilled = idx != order.front();
    result.ok = true;
    try {
      // One in-situ parse of the response to read the envelope verdict —
      // the spill decision needs the error code; the bytes are relayed
      // untouched either way.
      const util::JsonArena parsed = util::parse_json_arena(result.response);
      if (parsed.root().is_object() && parsed.root().contains("ok") &&
          parsed.root().at("ok").is_bool()) {
        result.ok = parsed.root().at("ok").as_bool();
        if (!result.ok && parsed.root().contains("error") &&
            parsed.root().at("error").is_object() &&
            parsed.root().at("error").contains("code")) {
          result.error_code =
              std::string(parsed.root().at("error").at("code").as_string());
        }
      }
    } catch (const std::exception&) {
      // A non-JSON response is a backend bug; relay it rather than guess.
    }
    // Reactive spill: a backend that answers "overloaded" (admission
    // control) or "shutting_down" (drain raced the probe) pushes the
    // request to the next preference. The pushed-back response is kept —
    // when every backend is saturated the client gets the owner's
    // rejection, complete with its wall_retry_after_ms backoff hint.
    if (!result.ok && (result.error_code == "overloaded" ||
                       result.error_code == "shutting_down") &&
        i + 1 < eligible) {
      if (!pushed_back) pushed_back = std::move(result);
      continue;
    }
    return result;
  }
  return pushed_back;
}

void Router::prober_loop() {
  while (true) {
    {
      util::MutexLock lock(prober_mutex_);
      // One bounded wait per sweep; wakes early on drain. The while-loop
      // re-arms against spurious wakeups without stretching the period.
      while (!prober_stop_ &&
             prober_cv_.wait_for_ms(prober_mutex_,
                                    options_.health_interval_ms)) {
      }
      if (prober_stop_) return;
    }
    probe_all();
  }
}

void Router::probe_all() {
  for (const auto& backend_ptr : backends_) {
    BackendState& backend = *backend_ptr;
    if (backend.draining.load(std::memory_order_acquire)) continue;
    bool probe_ok = false;
    bool peer_draining = false;
    std::size_t queue_capacity = 0;
    std::size_t workers = 0;
    double queue_depth = 0.0;
    double inflight = 0.0;
    double service_time_ms = 0.0;
    try {
      // A fresh connection per probe: probes are rare (one per period)
      // and a dedicated dial doubles as a reachability check that pooled
      // connections would mask.
      svc::SvcClient::ReconnectOptions no_retry;
      no_retry.attempts = 0;
      svc::SvcClient probe =
          svc::SvcClient::connect(backend.spec.endpoint, no_retry);
      const svc::SvcResponse reply = probe.health();
      if (!reply.ok)
        throw std::runtime_error("health answered " + reply.error_code);
      const JsonValue& body = reply.body;
      if (body.contains("draining") && body.at("draining").is_bool())
        peer_draining = body.at("draining").as_bool();
      if (body.contains("queue_capacity") &&
          body.at("queue_capacity").is_number())
        queue_capacity = static_cast<std::size_t>(
            body.at("queue_capacity").as_number());
      if (body.contains("workers") && body.at("workers").is_number())
        workers = static_cast<std::size_t>(body.at("workers").as_number());
      if (body.contains("wall_queue_depth") &&
          body.at("wall_queue_depth").is_number())
        queue_depth = body.at("wall_queue_depth").as_number();
      if (body.contains("wall_inflight") &&
          body.at("wall_inflight").is_number())
        inflight = body.at("wall_inflight").as_number();
      if (body.contains("wall_service_time_ms") &&
          body.at("wall_service_time_ms").is_number())
        service_time_ms = body.at("wall_service_time_ms").as_number();
      probe_ok = true;
    } catch (const std::exception&) {
      probe_ok = false;
    }
    if (probe_ok) {
      {
        const util::MutexLock lock(backend.health_mutex);
        backend.probed = true;
        backend.probe_failures = 0;
        backend.queue_capacity = queue_capacity;
        backend.workers = workers;
        backend.queue_depth = queue_depth;
        backend.inflight = inflight;
        backend.service_time_ms = service_time_ms;
      }
      // A peer that reports draining still answers, but should stop
      // receiving new keys; unhealthy is the skip flag that probing can
      // undo once the peer restarts.
      backend.healthy.store(!peer_draining, std::memory_order_release);
    } else {
      bool now_unhealthy = false;
      {
        const util::MutexLock lock(backend.health_mutex);
        ++backend.probe_failures;
        backend.probed = false;
        now_unhealthy =
            backend.probe_failures >= options_.probe_failure_threshold;
      }
      if (now_unhealthy)
        backend.healthy.store(false, std::memory_order_release);
    }
  }
}

bool Router::drain_backend(const std::string& name) {
  std::size_t target = backends_.size();
  std::size_t active = 0;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i]->spec.name == name) target = i;
    if (!backends_[i]->draining.load(std::memory_order_acquire)) ++active;
  }
  if (target == backends_.size()) return false;
  if (backends_[target]->draining.load(std::memory_order_acquire))
    return true;  // idempotent
  if (active <= 1) return false;  // would leave no backend accepting keys
  backends_[target]->draining.store(true, std::memory_order_release);
  return true;
}

RouterStats Router::stats() const {
  RouterStats s;
  static_cast<svc::FrontendStats&>(s) = frontend_stats();
  s.forwarded = forwarded_.load(std::memory_order_relaxed);
  s.spilled = spilled_.load(std::memory_order_relaxed);
  s.backend_failures = backend_failures_.load(std::memory_order_relaxed);
  for (const auto& backend : backends_)
    s.backend_reconnects +=
        backend->reconnects.load(std::memory_order_relaxed);
  return s;
}

std::vector<BackendView> Router::backend_views() const {
  std::vector<BackendView> views;
  views.reserve(backends_.size());
  for (const auto& backend_ptr : backends_) {
    const BackendState& backend = *backend_ptr;
    BackendView view;
    view.name = backend.spec.name;
    view.endpoint = backend.spec.endpoint;
    view.weight = backend.spec.weight;
    view.draining = backend.draining.load(std::memory_order_acquire);
    view.healthy = backend.healthy.load(std::memory_order_acquire);
    {
      const util::MutexLock lock(backend.health_mutex);
      view.probed = backend.probed;
      view.queue_capacity = backend.queue_capacity;
      view.workers = backend.workers;
      view.queue_depth = backend.queue_depth;
      view.inflight = backend.inflight;
      view.service_time_ms = backend.service_time_ms;
    }
    view.forwarded = backend.forwarded.load(std::memory_order_relaxed);
    view.spilled_to = backend.spilled_to.load(std::memory_order_relaxed);
    view.failures = backend.failures.load(std::memory_order_relaxed);
    view.reconnects = backend.reconnects.load(std::memory_order_relaxed);
    views.push_back(std::move(view));
  }
  return views;
}

void Router::add_metrics(JsonObject& doc) const {
  const RouterStats s = stats();
  JsonObject route;
  route["forwarded"] = JsonValue(s.forwarded);
  route["spilled"] = JsonValue(s.spilled);
  route["backend_reconnects"] = JsonValue(s.backend_reconnects);
  route["backend_failures"] = JsonValue(s.backend_failures);
  JsonArray list;
  for (const BackendView& view : backend_views()) {
    JsonObject b = backend_identity(view);
    b["endpoint"] = JsonValue(view.endpoint);
    b["weight"] = JsonValue(view.weight);
    add_traffic_fields(view, b);
    add_probe_fields(view, b);
    list.push_back(JsonValue(std::move(b)));
  }
  route["backends"] = JsonValue(std::move(list));
  doc["route"] = JsonValue(std::move(route));
}

void Router::add_prometheus(std::string& text) const {
  // Router-specific series appended in the same exposition format.
  const RouterStats s = stats();
  text += "# TYPE mecsc_route_forwarded_total counter\n";
  text += "mecsc_route_forwarded_total " + std::to_string(s.forwarded) + "\n";
  text += "# TYPE mecsc_route_spilled_total counter\n";
  text += "mecsc_route_spilled_total " + std::to_string(s.spilled) + "\n";
  for (const BackendView& view : backend_views()) {
    text += "mecsc_route_backend_forwarded_total{backend=\"" + view.name +
            "\"} " + std::to_string(view.forwarded) + "\n";
    text += "mecsc_route_backend_healthy{backend=\"" + view.name + "\"} " +
            std::string(view.healthy ? "1" : "0") + "\n";
  }
}

}  // namespace mecsc::route
