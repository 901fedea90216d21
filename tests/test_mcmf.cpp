#include "opt/mcmf.h"

#include <gtest/gtest.h>

#include "hungarian.h"
#include "util/rng.h"

namespace mecsc::opt {
namespace {

TEST(MinCostFlow, SingleArc) {
  MinCostFlow f(2);
  const auto a = f.add_arc(0, 1, 5, 2.0);
  const auto r = f.solve(0, 1);
  EXPECT_EQ(r.flow, 5);
  EXPECT_DOUBLE_EQ(r.cost, 10.0);
  EXPECT_EQ(f.flow_on(a), 5);
}

TEST(MinCostFlow, PrefersCheaperPath) {
  MinCostFlow f(4);
  const auto cheap1 = f.add_arc(0, 1, 1, 1.0);
  const auto cheap2 = f.add_arc(1, 3, 1, 1.0);
  const auto pricey = f.add_arc(0, 3, 1, 10.0);
  const auto r = f.solve(0, 3);
  EXPECT_EQ(r.flow, 2);
  EXPECT_DOUBLE_EQ(r.cost, 12.0);
  EXPECT_EQ(f.flow_on(cheap1), 1);
  EXPECT_EQ(f.flow_on(cheap2), 1);
  EXPECT_EQ(f.flow_on(pricey), 1);
}

TEST(MinCostFlow, RespectsMaxFlow) {
  MinCostFlow f(2);
  f.add_arc(0, 1, 10, 1.0);
  const auto r = f.solve(0, 1, 4);
  EXPECT_EQ(r.flow, 4);
  EXPECT_DOUBLE_EQ(r.cost, 4.0);
}

TEST(MinCostFlow, DisconnectedGivesZero) {
  MinCostFlow f(3);
  f.add_arc(0, 1, 1, 1.0);
  const auto r = f.solve(0, 2);
  EXPECT_EQ(r.flow, 0);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
}

TEST(MinCostFlow, BottleneckLimitsFlow) {
  MinCostFlow f(3);
  f.add_arc(0, 1, 10, 1.0);
  f.add_arc(1, 2, 3, 1.0);
  EXPECT_EQ(f.solve(0, 2).flow, 3);
}

TEST(MinCostFlow, ReroutesThroughResidualArcs) {
  // Classic case where the second augmentation must undo part of the first.
  MinCostFlow f(4);
  f.add_arc(0, 1, 1, 1.0);
  f.add_arc(0, 2, 1, 5.0);
  f.add_arc(1, 2, 1, 1.0);
  f.add_arc(1, 3, 1, 5.0);
  f.add_arc(2, 3, 2, 1.0);
  const auto r = f.solve(0, 3);
  EXPECT_EQ(r.flow, 2);
  // Optimal: 0-1-2-3 (3) + 0-2-3 (6) = 9 ... or 0-1-3 (6) + 0-2-3 (6) = 12.
  EXPECT_DOUBLE_EQ(r.cost, 9.0);
}

TEST(MinCostFlow, NegativeCostArcsHandled) {
  MinCostFlow f(3);
  f.add_arc(0, 1, 1, -2.0);
  f.add_arc(1, 2, 1, 1.0);
  f.add_arc(0, 2, 1, 0.5);
  const auto r = f.solve(0, 2);
  EXPECT_EQ(r.flow, 2);
  EXPECT_DOUBLE_EQ(r.cost, -0.5);
}

TEST(MinCostFlow, ZeroCapacityArcUnusable) {
  MinCostFlow f(2);
  f.add_arc(0, 1, 0, 1.0);
  EXPECT_EQ(f.solve(0, 1).flow, 0);
}

// Property: min-cost bipartite matching via MCMF agrees with Hungarian on
// random instances.
class McmfVsHungarianTest : public ::testing::TestWithParam<int> {};

TEST_P(McmfVsHungarianTest, AssignmentCostsAgree) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 6));
  std::vector<double> cost(n * n);
  for (auto& c : cost) c = rng.uniform_real(0.0, 10.0);

  const auto hungarian = solve_assignment(cost, n, n);

  MinCostFlow f(2 * n + 2);
  const std::size_t source = 2 * n, sink = 2 * n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    f.add_arc(source, i, 1, 0.0);
    f.add_arc(n + i, sink, 1, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      f.add_arc(i, n + j, 1, cost[i * n + j]);
    }
  }
  const auto r = f.solve(source, sink);
  EXPECT_EQ(r.flow, static_cast<std::int64_t>(n));
  EXPECT_NEAR(r.cost, hungarian.cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomMatchings, McmfVsHungarianTest,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace mecsc::opt
