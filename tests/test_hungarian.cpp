#include "hungarian.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "util/rng.h"

namespace mecsc::opt {
namespace {

/// Brute-force minimum over all permutations (n <= 8).
double brute_force(const std::vector<double>& cost, std::size_t n) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  double best = 1e300;
  do {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) total += cost[r * n + perm[r]];
    best = std::min(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(Hungarian, TwoByTwo) {
  // c = [[1,5],[4,2]] -> diagonal, cost 3.
  const auto r = solve_assignment({1, 5, 4, 2}, 2, 2);
  EXPECT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.cost, 3.0);
  EXPECT_EQ(r.row_to_col[0], 0u);
  EXPECT_EQ(r.row_to_col[1], 1u);
}

TEST(Hungarian, AntiDiagonalOptimum) {
  const auto r = solve_assignment({5, 1, 2, 6}, 2, 2);
  EXPECT_DOUBLE_EQ(r.cost, 3.0);
  EXPECT_EQ(r.row_to_col[0], 1u);
  EXPECT_EQ(r.row_to_col[1], 0u);
}

TEST(Hungarian, SingleCell) {
  const auto r = solve_assignment({7.5}, 1, 1);
  EXPECT_DOUBLE_EQ(r.cost, 7.5);
  EXPECT_EQ(r.row_to_col[0], 0u);
}

TEST(Hungarian, RectangularMoreColumns) {
  // 1 row, 3 cols: picks cheapest column.
  const auto r = solve_assignment({4, 1, 9}, 1, 3);
  EXPECT_DOUBLE_EQ(r.cost, 1.0);
  EXPECT_EQ(r.row_to_col[0], 1u);
}

TEST(Hungarian, RectangularMoreRows) {
  // 3 rows, 1 col: exactly one row matched, the cheapest.
  const auto r = solve_assignment({4, 1, 9}, 3, 1);
  EXPECT_DOUBLE_EQ(r.cost, 1.0);
  std::size_t matched = 0;
  for (auto c : r.row_to_col) {
    if (c != static_cast<std::size_t>(-1)) ++matched;
  }
  EXPECT_EQ(matched, 1u);
  EXPECT_EQ(r.row_to_col[1], 0u);
}

TEST(Hungarian, ForbiddenCellsFlagInfeasible) {
  const auto r =
      solve_assignment({kForbidden, kForbidden, 1.0, kForbidden}, 2, 2);
  EXPECT_FALSE(r.feasible);
}

TEST(Hungarian, NegativeCostsSupported) {
  const auto r = solve_assignment({-5, 0, 0, -5}, 2, 2);
  EXPECT_DOUBLE_EQ(r.cost, -10.0);
}

class HungarianBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(HungarianBruteForceTest, MatchesBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 11);
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 5));
  std::vector<double> cost(n * n);
  for (auto& c : cost) c = rng.uniform_real(0.0, 20.0);
  const auto r = solve_assignment(cost, n, n);
  EXPECT_NEAR(r.cost, brute_force(cost, n), 1e-9);
  // Columns must be distinct.
  std::set<std::size_t> cols(r.row_to_col.begin(), r.row_to_col.end());
  EXPECT_EQ(cols.size(), n);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, HungarianBruteForceTest,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace mecsc::opt
