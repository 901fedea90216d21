// Micro-benchmarks (google-benchmark) for the substrates: graph algorithms,
// optimization solvers, game dynamics, and the emulator event loop.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "bench_common.h"
#include "core/appro.h"
#include "core/baselines.h"
#include "core/congestion_game.h"
#include "core/instance.h"
#include "core/lcf.h"
#include "net/shortest_path.h"
#include "net/transit_stub.h"
#include "opt/gap.h"
#include "opt/mcmf.h"
#include "opt/simplex.h"
#include "opt/transportation.h"
#include "sim/emulation.h"
#include "sim/workload.h"
#include "util/rng.h"

namespace {

using namespace mecsc;

void BM_Dijkstra(benchmark::State& state) {
  util::Rng rng(1);
  const auto ts = net::generate_transit_stub_sized(
      static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::dijkstra(ts.graph, 0));
  }
}
BENCHMARK(BM_Dijkstra)->Arg(100)->Arg(400);

void BM_TransitStubGeneration(benchmark::State& state) {
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::generate_transit_stub_sized(
        static_cast<std::size_t>(state.range(0)), rng));
  }
}
BENCHMARK(BM_TransitStubGeneration)->Arg(100)->Arg(400);

void BM_McmfAssignment(benchmark::State& state) {
  util::Rng rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> cost(n * n);
  for (auto& c : cost) c = rng.uniform_real(0.0, 10.0);
  for (auto _ : state) {
    opt::MinCostFlow f(2 * n + 2);
    for (std::size_t i = 0; i < n; ++i) {
      f.add_arc(2 * n, i, 1, 0.0);
      f.add_arc(n + i, 2 * n + 1, 1, 0.0);
      for (std::size_t j = 0; j < n; ++j) {
        f.add_arc(i, n + j, 1, cost[i * n + j]);
      }
    }
    benchmark::DoNotOptimize(f.solve(2 * n, 2 * n + 1));
  }
}
BENCHMARK(BM_McmfAssignment)->Arg(20)->Arg(100);

void BM_SimplexLp(benchmark::State& state) {
  util::Rng rng(5);
  const auto n = static_cast<std::size_t>(state.range(0));
  opt::LpProblem p;
  p.num_vars = n;
  p.objective.resize(n);
  for (auto& c : p.objective) c = rng.uniform_real(0.1, 5.0);
  for (std::size_t k = 0; k < n / 2; ++k) {
    opt::LpConstraint con;
    for (std::size_t j = 0; j < n; ++j) {
      con.terms.emplace_back(j, rng.uniform_real(0.1, 2.0));
    }
    con.rel = opt::Relation::GreaterEq;
    con.rhs = rng.uniform_real(1.0, 10.0);
    p.constraints.push_back(std::move(con));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::solve_lp(p));
  }
}
BENCHMARK(BM_SimplexLp)->Arg(20)->Arg(60);

void BM_GapShmoysTardos(benchmark::State& state) {
  util::Rng rng(6);
  const auto items = static_cast<std::size_t>(state.range(0));
  opt::GapInstance g;
  g.num_knapsacks = 6;
  g.num_items = items;
  g.capacity.assign(6, static_cast<double>(items) / 3.0);
  g.cost.resize(6 * items);
  g.weight.resize(6 * items);
  for (auto& c : g.cost) c = rng.uniform_real(1.0, 10.0);
  for (auto& w : g.weight) w = rng.uniform_real(0.5, 1.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::solve_gap_shmoys_tardos(g));
  }
}
BENCHMARK(BM_GapShmoysTardos)->Arg(20)->Arg(50);

core::Instance bench_instance(std::size_t size, std::size_t providers) {
  util::Rng rng(7);
  core::InstanceParams p;
  p.network_size = size;
  p.provider_count = providers;
  return core::generate_instance(p, rng);
}

void BM_InstanceGeneration(benchmark::State& state) {
  util::Rng rng(8);
  core::InstanceParams p;
  p.network_size = static_cast<std::size_t>(state.range(0));
  p.provider_count = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::generate_instance(p, rng));
  }
}
BENCHMARK(BM_InstanceGeneration)->Arg(100)->Arg(400);

void BM_Appro(benchmark::State& state) {
  const auto inst = bench_instance(
      static_cast<std::size_t>(state.range(0)), 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_appro(inst));
  }
}
BENCHMARK(BM_Appro)->Arg(100)->Arg(400);

void BM_BestResponseDynamics(benchmark::State& state) {
  const auto inst = bench_instance(
      static_cast<std::size_t>(state.range(0)), 100);
  const std::vector<bool> movable(inst.provider_count(), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::best_response_dynamics(core::Assignment(inst), movable));
  }
}
BENCHMARK(BM_BestResponseDynamics)->Arg(100)->Arg(400);

void BM_LcfEndToEnd(benchmark::State& state) {
  const auto inst = bench_instance(
      static_cast<std::size_t>(state.range(0)), 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_lcf(inst));
  }
}
BENCHMARK(BM_LcfEndToEnd)->Arg(100)->Arg(400);

void BM_EmulatorReplay(benchmark::State& state) {
  const auto inst = bench_instance(100, 50);
  util::Rng rng(9);
  sim::WorkloadParams wp;
  wp.horizon_s = 10.0;
  const auto trace = sim::generate_workload(inst, wp, rng);
  const auto a = core::run_offload_cache(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::replay(a, trace));
  }
}
BENCHMARK(BM_EmulatorReplay);

/// Console output as usual, plus a BENCH_micro.json in the shared bench
/// layout. The benchmark *names* are the deterministic record content;
/// google-benchmark auto-tunes the iteration count, so iterations and both
/// timings are wall-clock ("wall_" keys).
class MicroJsonReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      util::JsonObject row;
      const double iters = static_cast<double>(run.iterations);
      row["wall_iterations"] = util::JsonValue(iters);
      row["wall_real_ns"] =
          util::JsonValue(run.real_accumulated_time / iters * 1e9);
      row["wall_cpu_ns"] =
          util::JsonValue(run.cpu_accumulated_time / iters * 1e9);
      recorder_.add(run.benchmark_name(), std::move(row));
    }
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    recorder_.write_file();
  }

 private:
  bench::BenchRecorder recorder_{"micro"};
};

}  // namespace

int main(int argc, char** argv) {
  // Smoke mode shortens every benchmark's measurement window so CI can run
  // the full registry in seconds; an explicit flag still wins.
  std::vector<char*> args(argv, argv + argc);
  char min_time_flag[] = "--benchmark_min_time=0.01";
  if (mecsc::bench::smoke_mode()) args.push_back(min_time_flag);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  MicroJsonReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
