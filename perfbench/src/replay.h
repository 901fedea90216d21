// Per-layer replays. The harness cannot put spans inside the service
// processes, so after a traced run it calls, in process and on the run's own
// requests, the public function behind each step of the service's request
// path and of the solver, each inside its own span.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/assignment.h"
#include "core/instance.h"
#include "core/lcf.h"
#include "route/shard_map.h"
#include "spans.h"
#include "svc/result_cache.h"

namespace perfbench {

/// One served request as the benchmark saw it.
struct ServedRequest {
  std::uint64_t request = 0;  ///< request id the spans carry
  const std::string* request_line = nullptr;
  const std::string* response_line = nullptr;
  const std::string* payload = nullptr;  ///< the result bytes the cache holds
  const core::Assignment* assignment = nullptr;  ///< the solved placement
};

/// The hit path of the service: arena parse, canonical dump, digest, shard
/// preference, cache lookup on a warm cache, result re-parse, client parse,
/// envelope dump, plus instance decode and result serialization of the miss
/// path. Spans: util.arena_parse, util.canonical_dump, obs.digest,
/// route.shard_preference, svc.cache_lookup, util.result_reparse,
/// util.client_parse, util.envelope_dump, core.decode_instance,
/// core.serialize, each under one bench.replay span.
void replay_request_path(Tracer& tracer, const std::vector<ServedRequest>& requests,
                         const route::ShardMap& shards);

/// Counts of the selfish sub-game, for the per-layer report.
struct GameStats {
  std::vector<double> rounds;
  std::vector<double> moves;
};

/// The solver split into the calls LCF makes: core.solve (run_solver),
/// core.appro (run_appro, default options) and core.game (best-response
/// dynamics on the selfish sub-game whose start and mask come from `lcf`),
/// under one bench.solve span. Returns run_solver's assignment.
core::Assignment replay_solver(Tracer& tracer, std::uint64_t request,
                               const core::Instance& inst,
                               const core::LcfResult& lcf, GameStats& game);

/// Writes every per-layer metric: span self times (medians; *_us metrics
/// in microseconds), the sub-game counts and opt's problem size. Metrics
/// of service processes start at 0; a serving workload overwrites them
/// with what it measured.
void report_per_layer(const std::vector<const Tracer*>& tracers,
                      const GameStats& game, const core::Instance& sample,
                      Report& report);

}  // namespace perfbench
