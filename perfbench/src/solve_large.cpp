// solve-large: one in-process caller runs core::run_solver (LCF, 1-xi = 0.3)
// back to back, cycling over a few instances of network size 400 with 1000
// providers. No JSON, svc or route work happens here.
#include <cmath>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "core/congestion_game.h"
#include "core/io.h"
#include "core/lcf.h"
#include "probe.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kNetworkSize = 400;
constexpr std::size_t kProviders = 1000;
/// Instance difficulty varies by seed; this many per run keeps the run's
/// median solve time within a few percent from seed to seed.
constexpr std::size_t kInstances = 12;
/// Threads for the reference LCF runs of the checks (outside timing).
constexpr std::size_t kCheckThreads = 2;
constexpr int kSetupRepeats = 15;

struct Solve {
  std::size_t instance;
  core::Assignment assignment;
};

/// The instances of a run come from `seed % kInstanceSeeds`, so the stored
/// reference covers every seed. reference/solve_large.json holds one entry
/// per instance seed.
constexpr std::uint64_t kInstanceSeeds = 64;

/// Reference social costs stored for this instance seed, or empty when the
/// file has none (or was made for other instance sizes).
std::vector<double> stored_reference(const std::string& path, std::uint64_t seed) {
  std::ifstream in(path);
  if (!in) return {};
  std::stringstream text;
  text << in.rdbuf();
  const util::JsonValue doc = util::parse_json(text.str());
  if (doc.number_at("network_size") != static_cast<double>(kNetworkSize) ||
      doc.number_at("providers") != static_cast<double>(kProviders) ||
      doc.number_at("instances_per_seed") != static_cast<double>(kInstances))
    return {};
  const util::JsonValue& seeds = doc.at("social_cost");
  const std::string key = std::to_string(seed);
  if (!seeds.contains(key)) return {};
  std::vector<double> out;
  for (const util::JsonValue& v : seeds.at(key).as_array()) out.push_back(v.as_number());
  return out.size() == kInstances ? out : std::vector<double>{};
}

}  // namespace

void run_solve_large(const RunOptions& options, Report& report) {
  const core::SolveSpec spec = lcf_spec();
  const util::Timer epoch;
  Tracer tracer(options.trace, 0, epoch);
  const std::uint64_t instance_seed = options.seed % kInstanceSeeds;

  // Set-up is instance generation, in CPU time (the wall time is recorded);
  // repeated, and its median reported.
  std::vector<core::Instance> instances;
  std::vector<double> setup_cpu_s, setup_wall_s;
  std::vector<ProbeTimes> setup_probes;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup_probes.push_back(run_probes());
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = process_cpu_ms(0);
    std::vector<core::Instance> fresh;
    fresh.reserve(kInstances);
    for (std::size_t k = 0; k < kInstances; ++k)
      fresh.push_back(tracer.run("core.generate_instance", k, [&] {
        return make_instance(instance_seed, 0, k, kNetworkSize, kProviders);
      }));
    setup_cpu_s.push_back((process_cpu_ms(0) - cpu0) / 1e3);
    setup_wall_s.push_back(ms_since(t0) / 1e3);
    instances = std::move(fresh);  // element addresses survive the move
  }
  setup_probes.push_back(run_probes());
  std::vector<double> setup_s;
  for (std::size_t r = 0; r < setup_cpu_s.size(); ++r)
    setup_s.push_back(
        at_reference_speed(setup_cpu_s[r], setup_probes[r], setup_probes[r + 1]));

  // LCF's coordinated set per instance: the Nash check's mask, and the
  // sub-game the traced run replays. Computed outside every timed window.
  std::vector<core::LcfResult> lcf;
  core::LcfOptions lcf_options;
  lcf_options.coordinated_fraction = 1.0 - spec.one_minus_xi;
  auto compute_lcf = [&] {
    std::vector<std::optional<core::LcfResult>> out(kInstances);
    std::vector<std::exception_ptr> errors(kCheckThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kCheckThreads; ++t)
      threads.emplace_back([&, t] {
        try {
          for (std::size_t k = t; k < kInstances; k += kCheckThreads)
            out[k] = core::run_lcf(instances[k], lcf_options);
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    for (std::thread& th : threads) th.join();
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    for (auto& r : out) lcf.push_back(std::move(*r));
  };

  // Timed phase: one untraced pass; a traced run adds a traced pass of the
  // same length and reports the difference as the tracing overhead.
  std::vector<Solve> solves;
  const double pass_s = options.trace ? options.seconds / 2 : options.seconds;
  GameStats game;
  std::vector<double> solve_ms, solve_cpu_ms;  // the untraced pass
  // Host-speed probes around every untraced solve: probes[i] and
  // probes[i + 1] bracket solve i.
  std::vector<ProbeTimes> probes;
  auto timed_pass = [&](bool traced) {
    if (!traced) probes.push_back(run_probes());
    const Clock::time_point t0 = Clock::now();
    std::size_t done = 0;
    // Every instance is solved at least once, however short the pass.
    while (done < kInstances || ms_since(t0) < pass_s * 1e3) {
      const std::size_t k = done % kInstances;
      const Clock::time_point s = Clock::now();
      // No other harness thread runs here, so process CPU time is the
      // solve's.
      const double cpu = process_cpu_ms(0);
      core::Assignment a =
          traced ? replay_solver(tracer, done, instances[k], lcf[k], game)
                 : core::run_solver(instances[k], spec).assignment;
      if (!traced) {
        solve_cpu_ms.push_back(process_cpu_ms(0) - cpu);
        solve_ms.push_back(ms_since(s));
        probes.push_back(run_probes());
      }
      solves.push_back(Solve{k, std::move(a)});
      ++done;
    }
    return ms_since(t0) / 1e3;
  };
  const double elapsed_s = timed_pass(false);
  const ProcSample proc = sample_proc(0);  // end of the timed phase
  // Host contention on a shared VM only slows solves down, in spells of
  // seconds, and each instance is solved several times seconds apart: its
  // fastest solve is its least disturbed time. The bounded figure is CPU
  // time at the reference host speed of the probes around each solve; the
  // wall figures are recorded.
  std::vector<double> fastest_ms(kInstances, INFINITY), fastest_cpu_ms(kInstances, INFINITY);
  for (std::size_t i = 0; i < solve_ms.size(); ++i) {
    const double cpu = at_reference_speed(solve_cpu_ms[i], probes[i], probes[i + 1]);
    fastest_ms[i % kInstances] = std::min(fastest_ms[i % kInstances], solve_ms[i]);
    fastest_cpu_ms[i % kInstances] = std::min(fastest_cpu_ms[i % kInstances], cpu);
  }
  compute_lcf();
  if (options.trace) timed_pass(true);
  report.attempted = solves.size();

  // Checks: feasible, a Nash equilibrium of the selfish sub-game, and the
  // stored reference social cost of its instance. Without a stored
  // reference the check fails, unless the run was asked to recompute it.
  std::vector<double> reference;
  if (options.recompute_reference) {
    for (const core::LcfResult& r : lcf) reference.push_back(r.social_cost());
  } else {
    reference = stored_reference(options.reference, instance_seed);
    if (reference.empty()) {
      report.fail("no stored reference social cost for instance seed " +
                  std::to_string(instance_seed) + " in " + options.reference);
    }
  }
  std::vector<double> cost(kInstances, NAN);
  for (const Solve& s : solves) {
    std::vector<bool> movable(kProviders);
    for (std::size_t l = 0; l < kProviders; ++l) movable[l] = !lcf[s.instance].coordinated[l];
    const double c = s.assignment.social_cost();
    std::string why;
    if (!s.assignment.feasible()) why = "infeasible assignment";
    else if (!core::is_nash_equilibrium(s.assignment, movable)) why = "not a Nash equilibrium";
    else if (reference.empty()) why = "social cost unchecked: no stored reference";
    else if (const double ref = reference[s.instance];
             !(std::abs(c - ref) <= 1e-9 * std::max(1.0, std::abs(ref))))
      why = "social cost " + util::JsonValue(c).dump() + " != reference " +
            util::JsonValue(ref).dump();
    if (!why.empty()) {
      ++report.failed;
      report.fail("instance " + std::to_string(s.instance) + ": " + why);
    }
    cost[s.instance] = c;
  }
  for (double c : cost) {
    if (std::isnan(c)) {
      report.fail("an instance was never solved in the timed phase");
      return;
    }
  }

  if (options.trace) {
    // Request-path layers at this size: each instance as a solve request,
    // its result as the cached payload, an ok envelope as the response.
    std::vector<std::string> lines, payloads, responses;
    std::vector<core::Assignment> placed;
    for (std::size_t k = 0; k < kInstances; ++k) {
      lines.push_back(solve_request_line(core::instance_to_json(instances[k]).dump(), k));
      core::SolveOutcome outcome{solves[k].assignment, true, 0.0};
      payloads.push_back(result_payload(outcome, spec));
      responses.push_back(R"({"cached":true,"id":)" + std::to_string(k) +
                          R"(,"ok":true,"request_id":"pb-)" + std::to_string(k) +
                          R"(","result":)" + payloads.back() +
                          R"(,"type":"solve","wall_queue_ms":0,"wall_service_ms":0})");
      placed.push_back(solves[k].assignment);
    }
    std::vector<ServedRequest> served;
    for (std::size_t k = 0; k < kInstances; ++k)
      served.push_back(ServedRequest{k, &lines[k], &responses[k], &payloads[k], &placed[k]});
    replay_request_path(tracer, served,
                        route::ShardMap({{"b0", "unix:b0.sock", 1}, {"b1", "unix:b1.sock", 1}}));
    report_per_layer({&tracer}, game, instances[0], report);
    const auto self = self_times_ms({&tracer});
    const double traced_p50 = median(self.at("core.solve"));
    report.metric("trace.overhead_pct",
                  100.0 * (traced_p50 - median(solve_ms)) / median(solve_ms), "%");
    write_traces(options.out_dir + "/trace-solve-large-seed" +
                     std::to_string(options.seed) + ".json",
                 {&tracer});
  } else {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("cpu_ms_per_op", median(fastest_cpu_ms), "ms");
    report.metric("social_cost", mean(cost), "USD");
    report.metric("rss_mb_peak", proc.vmhwm_mb, "MB");
    // A single VmSize reading of this process moves with the allocator's
    // free but unreturned memory; the largest VmSize so far does not.
    report.metric("vmsize_mb_end", proc.vmpeak_mb, "MB");
  }

  util::JsonObject& rec = report.record;
  rec["network_size"] = util::JsonValue(kNetworkSize);
  rec["providers"] = util::JsonValue(kProviders);
  rec["cloudlets"] = util::JsonValue(instances[0].cloudlet_count());
  rec["instances"] = util::JsonValue(kInstances);
  rec["opt_items"] = util::JsonValue(kProviders);
  rec["opt_groups"] = util::JsonValue(instances[0].cloudlet_count() + 1);
  rec["payload_bytes_per_request"] = util::JsonValue(0);
  rec["vmsize_mb_at_end"] = util::JsonValue(proc.vmsize_mb);
  rec["instance_seed"] = util::JsonValue(static_cast<double>(instance_seed));
  rec["reference"] = util::JsonValue(options.recompute_reference ? "recomputed" : "stored");
  rec["social_cost_per_instance"] = json_array(cost);
  rec["solves_timed"] = util::JsonValue(solve_ms.size());
  rec["solve_ms_p50_all"] = util::JsonValue(median(solve_ms));
  rec["solve_wall_ms_p50_fastest"] = util::JsonValue(median(fastest_ms));
  rec["latency_ms_p90"] = util::JsonValue(quantile(fastest_ms, 0.9));
  rec["throughput_per_s"] = util::JsonValue(1e3 / mean(fastest_ms));
  rec["solves_per_s_elapsed"] = util::JsonValue(static_cast<double>(solve_ms.size()) / elapsed_s);
  rec["setup_repeats"] = util::JsonValue(kSetupRepeats);
  util::JsonArray probe_list;
  for (const ProbeTimes& p : probes) probe_list.push_back(probe_json(p));
  rec["probes"] = util::JsonValue(std::move(probe_list));
  rec["solve_cpu_ms"] = json_array(solve_cpu_ms);
  util::JsonArray setup_probe_list;
  for (const ProbeTimes& p : setup_probes) setup_probe_list.push_back(probe_json(p));
  rec["setup_probes"] = util::JsonValue(std::move(setup_probe_list));
  rec["setup_wall_s_repeats"] = json_array(setup_wall_s);
  rec["setup_wall_s"] = util::JsonValue(median(setup_wall_s));
  rec["setup_cpu_s_repeats"] = json_array(setup_cpu_s);
  rec["load"] = util::JsonValue("closed loop, 1 in-process caller");
  rec["client_threads"] = util::JsonValue(1);
  rec["connections"] = util::JsonValue(0);
}

}  // namespace perfbench
