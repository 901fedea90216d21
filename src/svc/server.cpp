#include "svc/server.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "core/io.h"
#include "core/poa.h"
#include "core/solver_api.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/run_info.h"
#include "util/rng.h"

namespace mecsc::svc {
namespace {

using util::JsonArray;
using util::JsonObject;
using util::JsonValue;

constexpr FrontendRole kServerRole{"server",      "s-",        "svc",
                                   "svc.request", "svc.parse", "svc.queue"};

/// Deadline carried by one request. A request-supplied deadline_ms of 0 is
/// already expired on arrival — the deterministic way to exercise the
/// deadline path in tests.
struct Deadline {
  bool enabled = false;
  double budget_ms = 0.0;

  bool exceeded(const util::Timer& since_admission) const {
    return enabled && since_admission.elapsed_ms() >= budget_ms;
  }
};

Deadline deadline_of(const util::JsonArena::View& request,
                     double default_deadline_ms) {
  Deadline d;
  if (request.contains("deadline_ms")) {
    const double ms = require_number(request, "deadline_ms", 0.0);
    if (ms < 0.0)
      throw std::invalid_argument("field \"deadline_ms\" must be >= 0");
    d.enabled = true;
    d.budget_ms = ms;
  } else if (default_deadline_ms > 0.0) {
    d.enabled = true;
    d.budget_ms = default_deadline_ms;
  }
  return d;
}

/// A "poa" request's options and their cache-key suffix.
struct PoaSpec {
  core::PoaOptions options;
  std::uint64_t seed = 0;

  explicit PoaSpec(const util::JsonArena::View& request) {
    options.coordinated_fraction =
        require_number(request, "coordinated_fraction", 0.0);
    const double restarts = require_number(request, "restarts", 30.0);
    if (restarts < 1.0 ||
        restarts != static_cast<double>(static_cast<std::size_t>(restarts)))
      throw std::invalid_argument(
          "field \"restarts\" must be a positive integer");
    options.restarts = static_cast<std::size_t>(restarts);
    const double s = require_number(request, "seed", 1.0);
    if (s < 0.0) throw std::invalid_argument("field \"seed\" must be >= 0");
    seed = static_cast<std::uint64_t>(s);
  }

  std::string cache_key() const {
    return "poa|cf=" + JsonValue(options.coordinated_fraction).dump() +
           "|restarts=" + JsonValue(options.restarts).dump() +
           "|seed=" + JsonValue(seed).dump();
  }
};

JsonObject poa_result(const core::Instance& inst, const PoaSpec& spec) {
  util::Rng rng(spec.seed);
  const core::PoaResult r = core::estimate_poa(inst, spec.options, rng);
  JsonObject result;
  result["worst_equilibrium_cost"] = JsonValue(r.worst_equilibrium_cost);
  result["best_equilibrium_cost"] = JsonValue(r.best_equilibrium_cost);
  result["optimum_cost"] = JsonValue(r.optimum_cost);
  result["optimum_exact"] = JsonValue(r.optimum_exact);
  result["empirical_poa"] = JsonValue(r.empirical_poa);
  result["theoretical_bound"] = JsonValue(r.theoretical_bound);
  result["equilibria_found"] = JsonValue(r.equilibria_found);
  return result;
}

}  // namespace

SolverServer::SolverServer(ServerOptions options)
    : Frontend(kServerRole, options),
      options_(std::move(options)),
      queue_(options_.queue_capacity),
      cache_(options_.cache_capacity) {
  if (options_.threads == 0) options_.threads = 1;
}

// Safety net for error paths; the normal sequence is request_shutdown() +
// wait() before destruction.
SolverServer::~SolverServer() { stop(); }

void SolverServer::on_start() {
  workers_.reserve(options_.threads);
  for (std::size_t i = 0; i < options_.threads; ++i)
    workers_.emplace_back(
        [this, i] { worker_loop(static_cast<std::uint32_t>(i)); });
}

void SolverServer::on_drain() { cache_.shutdown_wakeup(); }

void SolverServer::on_sessions_done() {
  // Every request the sessions admitted is drained by the workers before
  // the pool exits.
  queue_.close();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();
}

void SolverServer::admit(const ConnectionPtr& conn, std::string line,
                         std::uint32_t /*session*/) {
  Job job;
  job.line = std::move(line);
  job.conn = conn;
  job.admitted_at_ms = telemetry().now_ms();
  const std::size_t line_bytes = job.line.size();
  if (queue_.try_push(std::move(job))) return;
  // Admission control: a full queue answers immediately instead of
  // stalling the socket. The id is null because the line was never parsed
  // — closed-loop clients correlate by ordering — but the rejection still
  // carries a request_id and a backoff hint derived from the windowed
  // service rate.
  overloaded_.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::global().counter_add("svc.overloaded");
  reject(conn, line_bytes, "overloaded", "request queue is full",
         telemetry().retry_after_ms_hint(queue_.size(), options_.threads));
}

void SolverServer::worker_loop(std::uint32_t ordinal) {
  while (true) {
    std::optional<Job> job = queue_.pop();
    if (!job) return;  // closed and drained
    if (options_.test_hook_before_request) options_.test_hook_before_request();
    workers_busy_.fetch_add(1, std::memory_order_relaxed);
    serve_line(job->conn, std::move(job->line), job->admitted,
               job->admitted_at_ms, ordinal, job->admitted.elapsed_ms());
    workers_busy_.fetch_sub(1, std::memory_order_relaxed);
  }
}

Frontend::Response SolverServer::handle(Request& request) {
  if (request.type == "health") return {health(request)};
  if (request.type == "stats") return {stats_response(request)};
  if (request.type == "solve" || request.type == "poa")
    return {solve(request)};
  throw std::invalid_argument("unknown request type \"" + request.type + "\"");
}

std::string SolverServer::health(const Request& request) {
  JsonObject body = ok_envelope(request.id, request.type, request.request_id);
  body["protocol_version"] = JsonValue(kSvcProtocolVersion);
  body["draining"] = JsonValue(draining());
  JsonArray algorithms;
  for (const std::string& name : core::solver_algorithm_names())
    algorithms.emplace_back(name);
  body["algorithms"] = JsonValue(std::move(algorithms));
  // Load signals for the routing tier's spill decisions (and for
  // mecsc_top). Capacity figures are configuration (deterministic, bare
  // keys); the instantaneous depth/inflight/service-time values depend on
  // request interleaving, so they live under wall_ keys per the
  // determinism contract.
  body["queue_capacity"] = JsonValue(options_.queue_capacity);
  body["workers"] = JsonValue(options_.threads);
  body["wall_queue_depth"] = JsonValue(queue_.size());
  body["wall_inflight"] = JsonValue(static_cast<std::size_t>(
      workers_busy_.load(std::memory_order_relaxed)));
  body["wall_service_time_ms"] =
      JsonValue(telemetry().windowed_service_ms());
  return JsonValue(std::move(body)).dump();
}

std::string SolverServer::stats_response(const Request& request) const {
  const ServerStats s = stats();
  JsonObject body = ok_envelope(request.id, request.type, request.request_id);
  body["protocol_version"] = JsonValue(kSvcProtocolVersion);
  JsonObject server;
  server["accepted_connections"] = JsonValue(s.accepted_connections);
  server["requests_total"] = JsonValue(s.requests_total);
  server["responses_ok"] = JsonValue(s.responses_ok);
  server["responses_error"] = JsonValue(s.responses_error);
  server["overloaded"] = JsonValue(s.overloaded);
  server["deadline_exceeded"] = JsonValue(s.deadline_exceeded);
  server["solves_executed"] = JsonValue(s.solves_executed);
  server["queue_depth"] = JsonValue(s.queue_depth);
  server["queue_capacity"] = JsonValue(s.queue_capacity);
  body["server"] = JsonValue(std::move(server));
  JsonObject cache;
  cache["hits"] = JsonValue(s.cache.hits);
  cache["misses"] = JsonValue(s.cache.misses);
  cache["coalesced"] = JsonValue(s.cache.coalesced);
  cache["evictions"] = JsonValue(s.cache.evictions);
  cache["size"] = JsonValue(s.cache.size);
  cache["capacity"] = JsonValue(s.cache.capacity);
  body["cache"] = JsonValue(std::move(cache));
  return JsonValue(std::move(body)).dump();
}

std::string SolverServer::solve(Request& request) {
  const util::JsonArena::View& doc = request.doc;
  obs::RequestEvent& event = request.event;
  auto& metrics = obs::MetricsRegistry::global();
  const Deadline deadline = deadline_of(doc, options_.default_deadline_ms);
  const auto expire = [&](const char* message) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    throw RequestError("deadline_exceeded", message);
  };
  if (deadline.exceeded(request.admitted))
    expire("deadline expired while queued");
  if (!doc.contains("instance") || !doc.at("instance").is_object())
    throw std::invalid_argument(
        "request needs an \"instance\" object (core/io.h document)");
  const std::string instance_bytes = [&] {
    // Canonical dump + digest are a real slice of large-instance latency;
    // giving them a span keeps the trace gap-free.
    MECSC_PROFILE_SCOPE("svc.digest");
    return doc.at("instance").dump();
  }();
  const bool use_cache = require_bool(doc, "cache", true);

  const bool is_solve = request.type == "solve";
  std::optional<core::SolveSpec> spec;
  std::optional<PoaSpec> poa;
  if (is_solve) {
    spec = core::solve_spec_from_arena(doc);
    event.algorithm = spec->algorithm;
  } else {
    poa.emplace(doc);
  }
  // Cache-key contract (see solver_api.h): instance digest ⊕ canonical
  // option string. The digest is over the *canonical dump* (sorted keys),
  // so key ordering in the client's document does not fragment the cache.
  const std::string digest = [&] {
    MECSC_PROFILE_SCOPE("svc.digest");
    return obs::fnv1a64_hex(instance_bytes);
  }();
  const std::string cache_key =
      digest + "|" + (is_solve ? spec->cache_key() : poa->cache_key());
  event.instance_digest = digest;

  std::optional<std::string> payload;
  bool cached = false;
  if (use_cache) {
    bool coalesced = false;
    {
      // Coalesced followers block here until the leader publishes —
      // exactly the wait a per-request trace needs to make visible.
      MECSC_PROFILE_SCOPE("svc.cache_wait");
      payload = cache_.get_or_lead(cache_key, &coalesced);
    }
    cached = payload.has_value();
    event.cache_outcome = cached ? (coalesced ? "coalesced" : "hit") : "miss";
  }
  if (!payload) {
    bool published = false;
    try {
      const core::Instance inst = [&] {
        // The request subtree decodes straight to an Instance: no
        // JsonValue tree and no re-parse of instance_bytes.
        MECSC_PROFILE_SCOPE("svc.decode_instance");
        const util::Timer decode_timer;
        core::Instance decoded = core::instance_from_arena(doc.at("instance"));
        event.decode_ms = decode_timer.elapsed_ms();
        metrics.wall_duration_record("wall_svc_decode_instance_ms",
                                     event.decode_ms);
        return decoded;
      }();
      JsonObject result;
      if (is_solve) {
        const core::SolveOutcome outcome = [&] {
          MECSC_PROFILE_SCOPE("svc.solve");
          // The listener is already installed (the Frontend's bridge);
          // passing it again is harmless and keeps the CLI path — which
          // has no bridge — and this one identical.
          core::SolveContext solve_ctx;
          solve_ctx.span_listener = &*request.trace;
          return core::run_solver(inst, *spec, solve_ctx);
        }();
        event.solve_ms = outcome.wall_solve_ms;
        MECSC_PROFILE_SCOPE("svc.serialize");
        result = core::assignment_to_json(outcome.assignment).as_object();
        result["algorithm"] = JsonValue(spec->algorithm);
        result["proven_optimal"] = JsonValue(outcome.proven_optimal);
      } else {
        MECSC_PROFILE_SCOPE("svc.solve");
        const util::Timer poa_timer;
        result = poa_result(inst, *poa);
        event.solve_ms = poa_timer.elapsed_ms();
      }
      payload = JsonValue(std::move(result)).dump();
      solves_executed_.fetch_add(1, std::memory_order_relaxed);
      metrics.counter_add("svc.solves");
      if (use_cache) {
        cache_.publish(cache_key, *payload);
        published = true;
      }
    } catch (...) {
      if (use_cache && !published) cache_.abandon(cache_key);
      throw;
    }
  }
  // The work still went into the cache above; only *this* response
  // degrades to an error, so a cached retry is instant.
  if (deadline.exceeded(request.admitted))
    expire("deadline expired during solve");
  // Result payloads are deterministic bytes (the cache stores them), so
  // this counter is too; the envelope is not counted because its wall_*
  // values vary in digit length run to run.
  metrics.counter_add("svc.serialize_bytes",
                      static_cast<std::int64_t>(payload->size()));
  // Covers envelope assembly including the result re-parse, which is
  // milliseconds for large assignments — without it the trace would show
  // an unexplained gap before serialize.
  MECSC_PROFILE_SCOPE("svc.respond");
  JsonObject body = ok_envelope(request.id, request.type, request.request_id);
  body["cached"] = JsonValue(cached);
  body["result"] = util::parse_json(*payload);
  body["wall_queue_ms"] = JsonValue(request.queue_ms);
  body["wall_service_ms"] = JsonValue(request.admitted.elapsed_ms());
  MECSC_PROFILE_SCOPE("svc.serialize_response");
  const util::Timer serialize_timer;
  std::string response = JsonValue(std::move(body)).dump();
  event.serialize_ms = serialize_timer.elapsed_ms();
  metrics.wall_duration_record("wall_svc_serialize_ms", event.serialize_ms);
  return response;
}

ServerStats SolverServer::stats() const {
  ServerStats s;
  static_cast<FrontendStats&>(s) = frontend_stats();
  s.overloaded = overloaded_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.solves_executed = solves_executed_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.size();
  s.queue_capacity = queue_.capacity();
  s.cache = cache_.stats();
  return s;
}

void SolverServer::add_gauges(obs::ServiceGauges& g) const {
  g.queue_depth = queue_.size();
  g.queue_capacity = queue_.capacity();
  g.workers = options_.threads;
  g.workers_busy = workers_busy_.load(std::memory_order_relaxed);
  const ResultCache::Stats c = cache_.stats();
  g.cache_size = c.size;
  g.cache_capacity = c.capacity;
  g.cache_hits = c.hits;
  g.cache_misses = c.misses;
  g.cache_coalesced = c.coalesced;
  g.cache_evictions = c.evictions;
}

}  // namespace mecsc::svc
