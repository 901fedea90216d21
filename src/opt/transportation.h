// Slotted transportation solver: the exact inner problem of Algorithm 1.
//
// Algorithm 1 splits each cloudlet CL_i into n_i virtual cloudlets, each
// restricted to hold a single cached service instance. With one item per
// knapsack and knapsack-independent item weights, the GAP instance collapses
// to a transportation problem: assign each item (service) to a group
// (cloudlet) with at most `slots[g]` items per group, minimizing the sum of
// item-group costs. Its LP is integral, so it is solved exactly — the
// "2-approximation" requirement of [34] is met with ratio 1.
//
// Both variants run successive shortest paths on the group graph: Dijkstra
// over the m groups plus a sink, with the n items folded into per-group
// entry lists and per-group-pair move heaps, so an augmentation costs
// O(m^2 + n) plus the near-tied moves it evaluates (see transportation.cpp)
// rather than the item-level flow's O(n m log n). Appro has m+1 groups
// (cloudlets plus remote) against n >> m providers. The solver follows the
// tie-break and rounding rules of the item-level min-cost flow, which is
// kept as the oracle in tests/transportation_oracle.*. That it returns the
// flow's assignment is a tested result, not a proven one: it does on the
// 768 solve-large instances and on 24 000 tie-heavy integer instances.
//
// Preconditions (std::invalid_argument otherwise): costs are non-negative
// (not NaN), and each group's slot costs are non-negative and
// non-decreasing.
#pragma once

#include <cstddef>
#include <vector>

namespace mecsc::opt {

/// Instance: cost[g * num_items + j] = cost of putting item j in group g;
/// slots[g] = number of single-item virtual cloudlets of group g. A cost of
/// kInadmissible (or any value >= kInadmissibleThreshold) marks a forbidden
/// pair.
struct TransportationInstance {
  std::size_t num_groups = 0;
  std::size_t num_items = 0;
  std::vector<std::size_t> slots;  ///< size num_groups
  std::vector<double> cost;        ///< size num_groups * num_items

  double cost_at(std::size_t group, std::size_t item) const {
    return cost[group * num_items + item];
  }
};

inline constexpr double kInadmissible = 1e17;
inline constexpr double kInadmissibleThreshold = 1e16;

struct TransportationSolution {
  bool feasible = false;
  /// assignment[item] = group (valid when feasible).
  std::vector<std::size_t> assignment;
  double cost = 0.0;
};

/// Solves the instance optimally. Infeasible when the items cannot all get
/// an admissible slot.
TransportationSolution solve_transportation(
    const TransportationInstance& instance);

/// Transportation with *convex group costs*: the k-th item placed in group g
/// (1-based) additionally pays slot_costs[g][k-1] on top of its item-group
/// cost. slot_costs[g] must be non-decreasing (convexity), and its length is
/// the group's slot capacity. Convexity makes slots fill cheapest-first, so
/// the solve returns an integral optimum of
///   Σ_j cost(g_j, j) + Σ_g Σ_{k<=load_g} slot_costs[g][k-1].
/// Used by Appro's congestion-aware mode, where
/// slot_costs[i][k-1] = (α_i+β_i)·u·(2k-1) telescopes to the exact quadratic
/// congestion term of the social cost.
struct ConvexTransportationInstance {
  std::size_t num_groups = 0;
  std::size_t num_items = 0;
  std::vector<std::vector<double>> slot_costs;  ///< per group, non-decreasing
  std::vector<double> cost;  ///< row-major [group * num_items + item]

  double cost_at(std::size_t group, std::size_t item) const {
    return cost[group * num_items + item];
  }
};

TransportationSolution solve_convex_transportation(
    const ConvexTransportationInstance& instance);

}  // namespace mecsc::opt
