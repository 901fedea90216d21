#include "replay.h"

#include <stdexcept>

#include "core/appro.h"
#include "core/congestion_game.h"
#include "core/io.h"
#include "core/solver_api.h"
#include "obs/run_info.h"
#include "util/json_arena.h"

namespace perfbench {

namespace {

std::string cache_key_for(const std::string& line) {
  const util::JsonArena doc = util::parse_json_arena(line);
  return obs::fnv1a64_hex(doc.root().at("instance").dump()) + "|" +
         lcf_spec().cache_key();
}

}  // namespace

void replay_request_path(Tracer& tracer, const std::vector<ServedRequest>& requests,
                         const route::ShardMap& shards) {
  // A warm cache holding the workload's keys, as the service's is.
  svc::ResultCache cache(requests.size() + 1);
  for (const ServedRequest& r : requests)
    cache.publish(cache_key_for(*r.request_line), *r.payload);

  for (const ServedRequest& r : requests) {
    const std::uint64_t id = r.request;
    tracer.begin_request("bench.replay", id);
    const util::JsonArena doc = tracer.run("util.arena_parse", id, [&] {
      return util::parse_json_arena(*r.request_line);
    });
    const std::string canonical = tracer.run("util.canonical_dump", id, [&] {
      return doc.root().at("instance").dump();
    });
    const std::string digest = tracer.run("obs.digest", id, [&] {
      return obs::fnv1a64_hex(canonical);
    });
    const std::vector<std::size_t> order = tracer.run(
        "route.shard_preference", id, [&] { return shards.preference(digest); });
    if (order.empty()) throw std::runtime_error("empty shard preference");
    const std::string key = digest + "|" + lcf_spec().cache_key();
    const std::optional<std::string> cached = tracer.run(
        "svc.cache_lookup", id, [&] { return cache.get_or_lead(key); });
    if (!cached) throw std::runtime_error("replay cache lookup missed");
    const util::JsonValue result = tracer.run("util.result_reparse", id, [&] {
      return util::parse_json(*cached);
    });
    const util::JsonValue envelope = tracer.run("util.client_parse", id, [&] {
      return util::parse_json(*r.response_line);
    });
    const std::string dumped = tracer.run("util.envelope_dump", id, [&] {
      return envelope.dump();
    });
    const core::Instance inst = tracer.run("core.decode_instance", id, [&] {
      return core::instance_from_json_text(canonical);
    });
    const std::string serialized = tracer.run("core.serialize", id, [&] {
      return core::assignment_to_json(*r.assignment).dump();
    });
    tracer.end_request();
    if (result.is_null() || dumped.empty() || serialized.empty() ||
        inst.provider_count() != r.assignment->provider_count())
      throw std::runtime_error("replay produced an empty output");
  }
}

core::Assignment replay_solver(Tracer& tracer, std::uint64_t request,
                               const core::Instance& inst,
                               const core::LcfResult& lcf, GameStats& game) {
  const std::size_t n = inst.provider_count();
  core::Assignment start(inst);
  std::vector<bool> movable(n);
  for (core::ProviderId l = 0; l < n; ++l) {
    movable[l] = !lcf.coordinated[l];
    const std::size_t seat = lcf.appro.assignment.choice(l);
    if (lcf.coordinated[l] && seat != core::kRemote) start.move(l, seat);
  }

  tracer.begin_request("bench.solve", request);
  core::SolveOutcome outcome = tracer.run("core.solve", request, [&] {
    return core::run_solver(inst, lcf_spec());
  });
  const core::ApproResult appro = tracer.run("core.appro", request, [&] {
    return core::run_appro(inst);
  });
  const core::GameResult dynamics = tracer.run("core.game", request, [&] {
    return core::best_response_dynamics(std::move(start), movable);
  });
  tracer.end_request();
  if (!appro.assignment.feasible() || !dynamics.converged)
    throw std::runtime_error("solver replay: infeasible Appro or unconverged game");
  game.rounds.push_back(static_cast<double>(dynamics.rounds));
  game.moves.push_back(static_cast<double>(dynamics.moves));
  return std::move(outcome.assignment);
}

void report_per_layer(const std::vector<const Tracer*>& tracers,
                      const GameStats& game, const core::Instance& sample,
                      Report& report) {
  // Service-side metrics: 0 unless the workload runs that process.
  for (const char* name :
       {"svc.cache_hits", "svc.cache_misses", "svc.cache_coalesced",
        "svc.cache_evictions", "svc.solves_executed", "svc.overloaded",
        "route.forwarded", "route.spilled", "route.backend_failures",
        "route.router_threads_end"})
    report.metric(name, 0.0, "count");
  for (const char* name : {"svc.cache_hit_ratio", "route.affinity"})
    report.metric(name, 0.0, "ratio");
  for (const char* name : {"svc.connect_ms", "svc.queue_wait_ms_p50",
                           "svc.service_ms_p50", "route.hop_ms_p50"})
    report.metric(name, 0.0, "ms");
  for (const char* name : {"route.router_vmsize_mb_end", "svc.backend_vmsize_mb_end"})
    report.metric(name, 0.0, "MB");

  const auto self = self_times_ms(tracers);
  auto span_median = [&](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : median(it->second);
  };
  for (const char* span :
       {"core.generate_instance", "core.solve", "core.appro", "core.game",
        "core.decode_instance", "core.serialize", "util.arena_parse",
        "util.canonical_dump", "obs.digest", "util.result_reparse",
        "util.envelope_dump", "util.client_parse", "svc.connect"})
    report.metric(std::string(span) + "_ms", span_median(span), "ms");
  report.metric("svc.cache_lookup_us", span_median("svc.cache_lookup") * 1e3, "us");
  report.metric("route.shard_preference_us",
                span_median("route.shard_preference") * 1e3, "us");
  report.metric("core.game_rounds", median(game.rounds), "count");
  report.metric("core.game_moves", median(game.moves), "count");
  report.metric("opt.items", static_cast<double>(sample.provider_count()), "count");
  report.metric("opt.groups", static_cast<double>(sample.cloudlet_count() + 1),
                "count");
}

}  // namespace perfbench
