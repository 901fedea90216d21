// Identity check of the group-level transportation solver against the
// min-cost-flow oracle on the solve-large instances: network size 400, 1000
// providers, 12 instances for each of the 64 instance seeds (768 in all),
// generated as the solve-large benchmark does. For every instance, Appro's
// congestion-aware and literal reductions must get the oracle's assignment,
// byte for byte.
//
//   transportation_identity [--seeds N] [--threads T]
//
// Prints one line per seed and a summary; exits 1 on any difference. The
// oracle's two variants take about 14 minutes of CPU (under 5 minutes of
// wall time on 3 threads), so this is run by hand, not as a ctest.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/appro.h"
#include "core/instance.h"
#include "transportation_oracle.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace mecsc;

constexpr std::size_t kNetworkSize = 400;
constexpr std::size_t kProviders = 1000;
constexpr std::size_t kInstancesPerSeed = 12;

/// Whether each reduction of one instance matched the oracle.
struct Outcome {
  bool aware_same = false;
  bool literal_same = false;
};

Outcome check(std::uint64_t seed, std::uint64_t k) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + k);
  core::InstanceParams params;
  params.network_size = kNetworkSize;
  params.provider_count = kProviders;
  const core::Instance inst = core::generate_instance(params, rng);
  const core::VirtualCloudletSplit split = core::split_cloudlets(inst);
  auto same = [](const opt::TransportationSolution& a,
                 const opt::TransportationSolution& b) {
    return a.feasible == b.feasible && a.assignment == b.assignment;
  };
  Outcome out;
  const auto aware = core::build_convex_transportation(inst, split);
  out.aware_same = same(opt::solve_convex_transportation(aware),
                        opt::mcmf_convex_transportation(aware));
  const auto literal = core::build_transportation(inst, split);
  out.literal_same = same(opt::solve_transportation(literal),
                          opt::mcmf_transportation(literal));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t seeds = 64, threads = 2;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 == argc) {
      std::fprintf(stderr, "usage: %s [--seeds N] [--threads T]\n", argv[0]);
      return 2;
    } else if (std::strcmp(argv[i], "--seeds") == 0) {
      seeds = std::strtoul(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = std::strtoul(argv[i + 1], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--seeds N] [--threads T]\n", argv[0]);
      return 2;
    }
  }
  const auto outcomes = util::parallel_map<Outcome>(
      seeds * kInstancesPerSeed,
      [](std::size_t i) {
        return check(i / kInstancesPerSeed, i % kInstancesPerSeed);
      },
      threads);
  std::size_t aware_diff = 0, literal_diff = 0;
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    std::size_t aware = 0, literal = 0;
    for (std::size_t k = 0; k < kInstancesPerSeed; ++k) {
      const Outcome& o = outcomes[seed * kInstancesPerSeed + k];
      if (!o.aware_same) {
        ++aware;
        std::printf("seed %zu instance %zu: congestion-aware differs\n", seed,
                    k);
      }
      if (!o.literal_same) {
        ++literal;
        std::printf("seed %zu instance %zu: literal differs\n", seed, k);
      }
    }
    std::printf("seed %zu: %zu/%zu congestion-aware, %zu/%zu literal identical\n",
                seed, kInstancesPerSeed - aware, kInstancesPerSeed,
                kInstancesPerSeed - literal, kInstancesPerSeed);
    aware_diff += aware;
    literal_diff += literal;
  }
  const std::size_t total = seeds * kInstancesPerSeed;
  std::printf("identical: %zu/%zu congestion-aware, %zu/%zu literal\n",
              total - aware_diff, total, total - literal_diff, total);
  return aware_diff + literal_diff == 0 ? 0 : 1;
}
