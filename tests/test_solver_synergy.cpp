// Solver-chain properties: the ordering LP bound <= exact <= greedy and
// Shmoys-Tardos <= LP bound across random GAP instances, plus feasibility
// agreement under tight capacities.
#include <gtest/gtest.h>

#include "opt/gap.h"
#include "util/rng.h"

namespace mecsc::opt {
namespace {

GapInstance random_instance(util::Rng& rng, std::size_t knapsacks,
                            std::size_t items, double slack) {
  GapInstance g;
  g.num_knapsacks = knapsacks;
  g.num_items = items;
  g.cost.resize(knapsacks * items);
  g.weight.resize(knapsacks * items);
  for (auto& c : g.cost) c = rng.uniform_real(1.0, 10.0);
  for (auto& w : g.weight) w = rng.uniform_real(0.5, 1.5);
  g.capacity.assign(knapsacks, slack * static_cast<double>(items) /
                                   static_cast<double>(knapsacks));
  return g;
}

class SolverChainTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverChainTest, FullOrderingHolds) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1009 + 7);
  const auto g = random_instance(rng, 3, 8, 2.2);
  const auto exact = solve_gap_exact(g);
  if (!exact.feasible) GTEST_SKIP();
  const auto greedy = solve_gap_greedy(g);
  if (!greedy.feasible) GTEST_SKIP();
  const auto st = solve_gap_shmoys_tardos(g);
  ASSERT_TRUE(st.feasible);

  // LP bound <= exact optimum <= greedy.
  EXPECT_LE(*st.lp_bound, exact.cost + 1e-6);
  EXPECT_LE(exact.cost, greedy.cost + 1e-9);
  // ST with relaxed capacities never exceeds the LP bound.
  EXPECT_LE(st.cost, *st.lp_bound + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomChains, SolverChainTest,
                         ::testing::Range(0, 20));

TEST(SolverSynergy, TightCapacityStressAllSolversAgreeOnFeasibility) {
  // With barely-sufficient capacity, whatever the exact solver can place,
  // the ST relaxation must also place (it has strictly more room).
  util::Rng rng(123);
  for (int trial = 0; trial < 15; ++trial) {
    const auto g = random_instance(rng, 3, 6, 1.15);
    const auto exact = solve_gap_exact(g);
    const auto st = solve_gap_shmoys_tardos(g);
    if (exact.feasible) {
      EXPECT_TRUE(st.feasible) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace mecsc::opt
