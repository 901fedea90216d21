// bench_transportation — scaling of Appro's inner solve in the provider
// count, at network size 400 (39 cloudlets, so 40 groups with remote).
//
// For each provider count, generates the instance `mecsc generate --size
// 400 --providers N --seed 1` would, builds the congestion-aware slotted
// reduction that LCF's Appro step solves, and times
// opt::solve_convex_transportation on it (fastest of the repetitions: the
// figure `appro.inner_solve` reports in a `--profile-out` profile).
// Deterministic record fields: Appro's flat cost C' and a digest of its
// assignment, so a solver change that moves any placement shows up as a
// payload diff. Smoke mode runs 100 and 400 providers only.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/appro.h"
#include "obs/run_info.h"

int main() {
  using namespace mecsc;
  using namespace mecsc::bench;

  const std::vector<std::size_t> providers =
      smoke_trim(std::vector<std::size_t>{100, 400, 1000, 3000});
  util::Table table({"providers", "groups", "inner solve (ms)",
                     "flat cost C'", "social cost"});
  BenchRecorder recorder("transportation");

  for (const std::size_t n : providers) {
    util::Rng rng(1);
    core::InstanceParams params;
    params.network_size = 400;
    params.provider_count = n;
    const core::Instance inst = core::generate_instance(params, rng);
    const core::VirtualCloudletSplit split = core::split_cloudlets(inst);
    const opt::ConvexTransportationInstance t =
        core::build_convex_transportation(inst, split);

    double inner_ms = 1e300;
    for (std::size_t rep = 0; rep < repetitions(); ++rep) {
      const util::Timer timer;
      const opt::TransportationSolution sol =
          opt::solve_convex_transportation(t);
      inner_ms = std::min(inner_ms, timer.elapsed_ms());
      if (!sol.feasible) std::abort();  // the remote group holds everyone
    }

    const core::ApproResult appro = core::run_appro(inst);
    std::string choices;
    for (core::ProviderId l = 0; l < n; ++l) {
      choices += std::to_string(appro.assignment.choice(l)) + ",";
    }
    const double social = appro.assignment.social_cost();
    table.add_row({static_cast<long long>(n),
                   static_cast<long long>(t.num_groups), inner_ms,
                   appro.flat_cost, social});

    util::JsonObject row;
    row["network_size"] = util::JsonValue(params.network_size);
    row["providers"] = util::JsonValue(n);
    row["groups"] = util::JsonValue(t.num_groups);
    row["flat_cost"] = util::JsonValue(appro.flat_cost);
    row["social_cost"] = util::JsonValue(social);
    row["assignment_digest"] = util::JsonValue(obs::fnv1a64_hex(choices));
    recorder.add("providers=" + std::to_string(n), std::move(row),
                 {{"inner_solve", inner_ms}});
  }
  recorder.write_file();

  std::cout << "Appro inner solve (congestion-aware slotted reduction), "
               "network size 400, fastest of "
            << repetitions() << " solves per point\n";
  util::print_section(std::cout, "providers scaling", table);
  return 0;
}
