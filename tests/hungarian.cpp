#include "hungarian.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace mecsc::opt {

AssignmentResult solve_assignment(const std::vector<double>& cost,
                                  std::size_t rows, std::size_t cols) {
  assert(cost.size() == rows * cols);
  const std::size_t n = std::max(rows, cols);  // padded square size
  constexpr double kInf = std::numeric_limits<double>::infinity();

  auto cell = [&](std::size_t r, std::size_t c) -> double {
    if (r < rows && c < cols) return cost[r * cols + c];
    return 0.0;  // dummy row/column
  };

  // Classic O(n^3) formulation with 1-based potentials (e-maxx style).
  std::vector<double> u(n + 1, 0.0), v(n + 1, 0.0);
  std::vector<std::size_t> p(n + 1, 0);    // p[j] = row matched to column j
  std::vector<std::size_t> way(n + 1, 0);  // alternating-path bookkeeping

  for (std::size_t i = 1; i <= n; ++i) {
    p[0] = i;
    std::size_t j0 = 0;
    std::vector<double> minv(n + 1, kInf);
    std::vector<bool> used(n + 1, false);
    do {
      used[j0] = true;
      const std::size_t i0 = p[j0];
      double delta = kInf;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= n; ++j) {
        if (used[j]) continue;
        const double cur = cell(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= n; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const std::size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  AssignmentResult result;
  result.row_to_col.assign(rows, static_cast<std::size_t>(-1));
  for (std::size_t j = 1; j <= n; ++j) {
    const std::size_t r = p[j] - 1;
    const std::size_t c = j - 1;
    if (r < rows && c < cols) {
      result.row_to_col[r] = c;
      result.cost += cost[r * cols + c];
      if (cost[r * cols + c] >= kForbidden / 2) result.feasible = false;
    }
  }
  return result;
}

}  // namespace mecsc::opt
