#include "transportation_oracle.h"

#include <cassert>

#include "opt/mcmf.h"

namespace mecsc::opt {

TransportationSolution mcmf_transportation(
    const TransportationInstance& instance) {
  TransportationSolution sol;
  const std::size_t n = instance.num_items;
  const std::size_t m = instance.num_groups;
  assert(instance.slots.size() == m);
  assert(instance.cost.size() == m * n);
  if (n == 0) {
    sol.feasible = true;
    return sol;
  }

  // Nodes: 0 = source, 1..n = items, n+1..n+m = groups, last = sink.
  MinCostFlow flow(2 + n + m);
  const std::size_t source = 0;
  const std::size_t sink = 1 + n + m;
  for (std::size_t j = 0; j < n; ++j) flow.add_arc(source, 1 + j, 1, 0.0);
  std::vector<std::vector<std::size_t>> arc(m,
                                            std::vector<std::size_t>(n, 0));
  std::vector<std::vector<bool>> present(m, std::vector<bool>(n, false));
  for (std::size_t g = 0; g < m; ++g) {
    for (std::size_t j = 0; j < n; ++j) {
      const double c = instance.cost_at(g, j);
      if (c >= kInadmissibleThreshold) continue;
      arc[g][j] = flow.add_arc(1 + j, 1 + n + g, 1, c);
      present[g][j] = true;
    }
    if (instance.slots[g] > 0) {
      flow.add_arc(1 + n + g, sink,
                   static_cast<std::int64_t>(instance.slots[g]), 0.0);
    }
  }
  const auto res = flow.solve(source, sink);
  if (res.flow != static_cast<std::int64_t>(n)) return sol;  // infeasible

  sol.feasible = true;
  sol.cost = res.cost;
  sol.assignment.assign(n, m);
  for (std::size_t g = 0; g < m; ++g) {
    for (std::size_t j = 0; j < n; ++j) {
      if (present[g][j] && flow.flow_on(arc[g][j]) > 0) sol.assignment[j] = g;
    }
  }
  return sol;
}

TransportationSolution mcmf_convex_transportation(
    const ConvexTransportationInstance& instance) {
  TransportationSolution sol;
  const std::size_t n = instance.num_items;
  const std::size_t m = instance.num_groups;
  assert(instance.slot_costs.size() == m);
  assert(instance.cost.size() == m * n);
  if (n == 0) {
    sol.feasible = true;
    return sol;
  }

  // Nodes: 0 = source, 1..n = items, n+1..n+m = groups, last = sink.
  MinCostFlow flow(2 + n + m);
  const std::size_t source = 0;
  const std::size_t sink = 1 + n + m;
  for (std::size_t j = 0; j < n; ++j) flow.add_arc(source, 1 + j, 1, 0.0);
  std::vector<std::vector<std::size_t>> arc(m,
                                            std::vector<std::size_t>(n, 0));
  std::vector<std::vector<bool>> present(m, std::vector<bool>(n, false));
  for (std::size_t g = 0; g < m; ++g) {
    for (std::size_t j = 0; j < n; ++j) {
      const double c = instance.cost_at(g, j);
      if (c >= kInadmissibleThreshold) continue;
      arc[g][j] = flow.add_arc(1 + j, 1 + n + g, 1, c);
      present[g][j] = true;
    }
    // One unit arc per slot with its marginal cost. Min-cost flow fills
    // cheaper slots first, which is exactly the convex objective.
    const auto& slots = instance.slot_costs[g];
    for (std::size_t k = 0; k < slots.size(); ++k) {
      assert(k == 0 || slots[k] >= slots[k - 1]);
      flow.add_arc(1 + n + g, sink, 1, slots[k]);
    }
  }
  const auto res = flow.solve(source, sink);
  if (res.flow != static_cast<std::int64_t>(n)) return sol;

  sol.feasible = true;
  sol.cost = res.cost;
  sol.assignment.assign(n, m);
  for (std::size_t g = 0; g < m; ++g) {
    for (std::size_t j = 0; j < n; ++j) {
      if (present[g][j] && flow.flow_on(arc[g][j]) > 0) sol.assignment[j] = g;
    }
  }
  return sol;
}

}  // namespace mecsc::opt
