#include "opt/transportation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/appro.h"
#include "core/instance.h"
#include "transportation_oracle.h"
#include "util/rng.h"

namespace mecsc::opt {
namespace {

/// Brute force over all group choices (m^n), honoring slots.
double brute_force(const TransportationInstance& t) {
  const std::size_t n = t.num_items, m = t.num_groups;
  std::vector<std::size_t> choice(n, 0);
  double best = 1e300;
  while (true) {
    std::vector<std::size_t> used(m, 0);
    double cost = 0.0;
    bool ok = true;
    for (std::size_t j = 0; j < n && ok; ++j) {
      const std::size_t g = choice[j];
      if (t.cost_at(g, j) >= kInadmissibleThreshold) ok = false;
      ++used[g];
      cost += t.cost_at(g, j);
    }
    if (ok) {
      for (std::size_t g = 0; g < m; ++g) {
        if (used[g] > t.slots[g]) ok = false;
      }
    }
    if (ok) best = std::min(best, cost);
    // Increment the mixed-radix counter.
    std::size_t k = 0;
    while (k < n && ++choice[k] == m) choice[k++] = 0;
    if (k == n) break;
  }
  return best;
}

TransportationInstance random_instance(util::Rng& rng, std::size_t groups,
                                       std::size_t items) {
  TransportationInstance t;
  t.num_groups = groups;
  t.num_items = items;
  t.slots.resize(groups);
  for (auto& s : t.slots) {
    s = static_cast<std::size_t>(rng.uniform_int(0, 3));
  }
  // Guarantee feasibility: last group can hold everyone.
  t.slots.back() = items;
  t.cost.resize(groups * items);
  for (auto& c : t.cost) c = rng.uniform_real(0.0, 10.0);
  return t;
}

TEST(Transportation, EmptyIsFeasible) {
  TransportationInstance t;
  const auto s = solve_transportation(t);
  EXPECT_TRUE(s.feasible);
  EXPECT_DOUBLE_EQ(s.cost, 0.0);
}

TEST(Transportation, PicksCheapestGroup) {
  TransportationInstance t;
  t.num_groups = 2;
  t.num_items = 1;
  t.slots = {1, 1};
  t.cost = {5.0, 2.0};
  const auto s = solve_transportation(t);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.assignment[0], 1u);
  EXPECT_DOUBLE_EQ(s.cost, 2.0);
}

TEST(Transportation, SlotLimitForcesSecondBest) {
  TransportationInstance t;
  t.num_groups = 2;
  t.num_items = 2;
  t.slots = {1, 2};
  t.cost = {1.0, 1.0, 5.0, 5.0};  // both want group 0, only one seat
  const auto s = solve_transportation(t);
  ASSERT_TRUE(s.feasible);
  EXPECT_DOUBLE_EQ(s.cost, 6.0);
}

TEST(Transportation, InfeasibleWhenSlotsShort) {
  TransportationInstance t;
  t.num_groups = 1;
  t.num_items = 2;
  t.slots = {1};
  t.cost = {1.0, 1.0};
  EXPECT_FALSE(solve_transportation(t).feasible);
}

TEST(Transportation, InadmissiblePairsAvoided) {
  TransportationInstance t;
  t.num_groups = 2;
  t.num_items = 1;
  t.slots = {1, 1};
  t.cost = {kInadmissible, 3.0};
  const auto s = solve_transportation(t);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.assignment[0], 1u);
}

TEST(Transportation, InfeasibleWhenOnlyInadmissible) {
  TransportationInstance t;
  t.num_groups = 1;
  t.num_items = 1;
  t.slots = {1};
  t.cost = {kInadmissible};
  EXPECT_FALSE(solve_transportation(t).feasible);
}

TEST(Transportation, ZeroSlotGroupNeverUsed) {
  TransportationInstance t;
  t.num_groups = 2;
  t.num_items = 1;
  t.slots = {0, 1};
  t.cost = {0.1, 9.0};  // group 0 cheaper but has no seat
  const auto s = solve_transportation(t);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.assignment[0], 1u);
}

class TransportationBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(TransportationBruteForceTest, MatchesBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  const std::size_t m = 2 + static_cast<std::size_t>(rng.uniform_int(0, 1));
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  const auto t = random_instance(rng, m, n);
  const auto s = solve_transportation(t);
  ASSERT_TRUE(s.feasible);
  EXPECT_NEAR(s.cost, brute_force(t), 1e-9);
  // Assignment respects slots.
  std::vector<std::size_t> used(m, 0);
  for (std::size_t j = 0; j < n; ++j) ++used[s.assignment[j]];
  for (std::size_t g = 0; g < m; ++g) EXPECT_LE(used[g], t.slots[g]);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, TransportationBruteForceTest,
                         ::testing::Range(0, 25));

/// Brute force for the convex variant: every group choice that fits the
/// slot counts, charged Σ cost + Σ_g Σ_{k<load_g} slot_costs[g][k].
double brute_force(const ConvexTransportationInstance& t) {
  const std::size_t n = t.num_items, m = t.num_groups;
  std::vector<std::size_t> choice(n, 0);
  double best = 1e300;
  while (true) {
    std::vector<std::size_t> used(m, 0);
    double cost = 0.0;
    bool ok = true;
    for (std::size_t j = 0; j < n && ok; ++j) {
      const std::size_t g = choice[j];
      if (t.cost_at(g, j) >= kInadmissibleThreshold) ok = false;
      ++used[g];
      cost += t.cost_at(g, j);
    }
    for (std::size_t g = 0; g < m && ok; ++g) {
      if (used[g] > t.slot_costs[g].size()) ok = false;
      for (std::size_t k = 0; ok && k < used[g]; ++k) {
        cost += t.slot_costs[g][k];
      }
    }
    if (ok) best = std::min(best, cost);
    std::size_t k = 0;
    while (k < n && ++choice[k] == m) choice[k++] = 0;
    if (k == n) break;
  }
  return best;
}

class ConvexTransportationBruteForceTest
    : public ::testing::TestWithParam<int> {};

TEST_P(ConvexTransportationBruteForceTest, MatchesBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  ConvexTransportationInstance t;
  t.num_groups = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  t.num_items = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  const std::size_t m = t.num_groups, n = t.num_items;
  t.slot_costs.resize(m);
  for (std::size_t g = 0; g + 1 < m; ++g) {
    double marginal = 0.0;
    for (auto k = rng.uniform_int(0, 3); k > 0; --k) {
      marginal += rng.uniform_real(0.0, 3.0);
      t.slot_costs[g].push_back(marginal);
    }
  }
  t.slot_costs.back().assign(n, 0.0);  // the last group can hold everyone
  t.cost.resize(m * n);
  for (auto& c : t.cost) c = rng.uniform_real(0.0, 10.0);
  const auto s = solve_convex_transportation(t);
  ASSERT_TRUE(s.feasible);
  const double best = brute_force(t);
  EXPECT_NEAR(s.cost, best, 1e-9);
  // The reported cost is the objective of the returned assignment.
  std::vector<std::size_t> used(m, 0);
  double cost = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t g = s.assignment[j];
    cost += t.cost_at(g, j);
    ASSERT_LT(used[g], t.slot_costs[g].size());
    cost += t.slot_costs[g][used[g]++];
  }
  EXPECT_NEAR(cost, best, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ConvexTransportationBruteForceTest,
                         ::testing::Range(0, 25));

TEST(Transportation, RejectsNegativeCosts) {
  TransportationInstance t;
  t.num_groups = 2;
  t.num_items = 1;
  t.slots = {1, 1};
  t.cost = {-1.0, 2.0};
  EXPECT_THROW(solve_transportation(t), std::invalid_argument);
  ConvexTransportationInstance c;
  c.num_groups = 2;
  c.num_items = 1;
  c.slot_costs = {{0.0}, {0.0}};
  c.cost = {1.0, -2.0};
  EXPECT_THROW(solve_convex_transportation(c), std::invalid_argument);
  c.cost = {1.0, 2.0};
  c.slot_costs = {{-0.5}, {0.0}};
  EXPECT_THROW(solve_convex_transportation(c), std::invalid_argument);
  c.slot_costs = {{2.0, 1.0}, {0.0}};  // decreasing: not convex
  EXPECT_THROW(solve_convex_transportation(c), std::invalid_argument);
}

/// A small instance where optima tie often: integer costs 0..3 and
/// integer, non-decreasing slot costs, about 10% inadmissible pairs, groups
/// without slots, and no group that is guaranteed to hold everyone (so some
/// instances are infeasible).
ConvexTransportationInstance tie_heavy_instance(util::Rng& rng) {
  ConvexTransportationInstance t;
  t.num_groups = 1 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  t.num_items = static_cast<std::size_t>(rng.uniform_int(0, 8));
  t.slot_costs.resize(t.num_groups);
  for (auto& slots : t.slot_costs) {
    double marginal = static_cast<double>(rng.uniform_int(0, 2));
    for (auto k = rng.uniform_int(0, 4); k > 0; --k) {
      slots.push_back(marginal);
      marginal += static_cast<double>(rng.uniform_int(0, 2));
    }
  }
  t.cost.resize(t.num_groups * t.num_items);
  for (auto& c : t.cost) {
    c = rng.bernoulli(0.1) ? kInadmissible
                           : static_cast<double>(rng.uniform_int(0, 3));
  }
  return t;
}

/// The same costs and slot counts with the slot prices dropped.
TransportationInstance plain_of(const ConvexTransportationInstance& c) {
  TransportationInstance t;
  t.num_groups = c.num_groups;
  t.num_items = c.num_items;
  for (const auto& slots : c.slot_costs) t.slots.push_back(slots.size());
  t.cost = c.cost;
  return t;
}

void expect_same(const TransportationSolution& got,
                 const TransportationSolution& oracle) {
  ASSERT_EQ(got.feasible, oracle.feasible);
  EXPECT_EQ(got.assignment, oracle.assignment);
  EXPECT_EQ(got.cost, oracle.cost);
}

TEST(TransportationOracle, TieHeavyPlainInstancesMatchMinCostFlow) {
  std::size_t infeasible = 0;
  for (std::uint64_t seed = 0; seed < 12000; ++seed) {
    util::Rng rng(seed * 6364136223846793005ULL + 1);
    const auto t = plain_of(tie_heavy_instance(rng));
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto oracle = mcmf_transportation(t);
    expect_same(solve_transportation(t), oracle);
    if (HasFailure()) return;
    if (!oracle.feasible) ++infeasible;
  }
  EXPECT_GT(infeasible, 100u);  // the infeasible path is exercised
}

TEST(TransportationOracle, TieHeavyConvexInstancesMatchMinCostFlow) {
  std::size_t infeasible = 0;
  for (std::uint64_t seed = 0; seed < 12000; ++seed) {
    util::Rng rng(seed * 6364136223846793005ULL + 2);
    const auto t = tie_heavy_instance(rng);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto oracle = mcmf_convex_transportation(t);
    expect_same(solve_convex_transportation(t), oracle);
    if (HasFailure()) return;
    if (!oracle.feasible) ++infeasible;
  }
  EXPECT_GT(infeasible, 100u);
}

TEST(TransportationOracle, IdenticalItemsMatchMinCostFlow) {
  // Every item has the same costs, so whole groups of moves tie at once and
  // the flow's choice among them is set by rounding alone, and the solver
  // evaluates every one of them.
  for (const std::size_t n : {40, 200}) {
    for (const double base : {0.1, 1.0}) {
      for (const double remote_factor : {0.5, 2.0}) {
        ConvexTransportationInstance t;
        t.num_groups = 12;
        t.num_items = n;
        t.slot_costs.resize(t.num_groups);
        t.slot_costs[0].assign(n, 0.0);  // a low-index group for everyone
        for (std::size_t g = 1; g < t.num_groups; ++g) {
          for (std::size_t k = 0; k < 3; ++k) {
            t.slot_costs[g].push_back(base * static_cast<double>(k));
          }
        }
        t.cost.assign(t.num_groups * n, base);
        for (std::size_t j = 0; j < n; ++j) t.cost[j] = base * remote_factor;
        SCOPED_TRACE("n " + std::to_string(n) + ", base " +
                     std::to_string(base) + ", remote factor " +
                     std::to_string(remote_factor));
        expect_same(solve_convex_transportation(t),
                    mcmf_convex_transportation(t));
        expect_same(solve_transportation(plain_of(t)),
                    mcmf_transportation(plain_of(t)));
      }
    }
  }
}

/// Appro's own reductions of generated instances: hop-count costs make whole
/// cost columns equal across cloudlets, so optima tie and only the flow's
/// tie-break order gives its assignment.
void expect_appro_reductions_match(std::size_t network_size,
                                   std::size_t providers,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  core::InstanceParams params;
  params.network_size = network_size;
  params.provider_count = providers;
  const core::Instance inst = core::generate_instance(params, rng);
  const core::VirtualCloudletSplit split = core::split_cloudlets(inst);
  SCOPED_TRACE("network " + std::to_string(network_size) + ", providers " +
               std::to_string(providers) + ", seed " + std::to_string(seed));
  {
    SCOPED_TRACE("congestion-aware");
    const auto t = core::build_convex_transportation(inst, split);
    expect_same(solve_convex_transportation(t), mcmf_convex_transportation(t));
  }
  {
    SCOPED_TRACE("literal");
    const auto t = core::build_transportation(inst, split);
    expect_same(solve_transportation(t), mcmf_transportation(t));
  }
}

TEST(TransportationOracle, ApproReductionsMatchMinCostFlow) {
  // Under an insertion-order tie-break these two lose the flow's assignment.
  expect_appro_reductions_match(400, 200, 61);
  expect_appro_reductions_match(400, 200, 72);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    expect_appro_reductions_match(60 + 40 * seed, 20 * seed, seed);
  }
  // A tie that rounding decides: moves must be valued with the flow's own
  // floating-point expression, and the pick among equal-delta moves must
  // follow it.
  expect_appro_reductions_match(340, 140, 5217);
}

}  // namespace
}  // namespace mecsc::opt
