// Hungarian (Kuhn-Munkres) algorithm, O(n^3), for min-cost assignment.
//
// A test-only reference solver: McmfVsHungarianTest cross-checks
// MinCostFlow against it. Rectangular instances (rows != cols) are padded
// with zero-cost dummies.
#pragma once

#include <cstddef>
#include <vector>

namespace mecsc::opt {

/// Cost of a forbidden pairing; rows assigned only to forbidden columns make
/// the instance effectively infeasible and the result's `feasible` is false.
inline constexpr double kForbidden = 1e18;

struct AssignmentResult {
  /// For each row r, the chosen column (or SIZE_MAX when the instance has
  /// fewer columns than rows and r is left unmatched).
  std::vector<std::size_t> row_to_col;
  double cost = 0.0;
  bool feasible = true;  ///< false if a real row had to take a kForbidden cell
};

/// Solves min-sum assignment on a rows x cols cost matrix (row-major).
/// Every row is matched when rows <= cols; otherwise exactly `cols` rows are
/// matched (the cheapest set).
AssignmentResult solve_assignment(const std::vector<double>& cost,
                                  std::size_t rows, std::size_t cols);

}  // namespace mecsc::opt
