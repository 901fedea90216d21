#include "opt/transportation.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace mecsc::opt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
/// Relative bound on the rounding drift between a group-level reduced cost
/// and the item-level one it stands for; far above the drift of thousands
/// of augmentations, far below any real cost difference.
constexpr double kDrift = 1e-9;

/// Successive shortest paths on the group graph of a slotted transportation
/// instance. It computes what the item-level min-cost flow (source -> item
/// -> group -> sink, a unit arc per admissible item-group pair and per
/// slot, Dijkstra with Johnson potentials) computes, with the n item nodes
/// folded away:
///  - unassigned items sit at reduced distance 0, so group h is entered
///    through its cheapest unassigned item, read off a list sorted by
///    (cost, item index);
///  - an item assigned to g is reached only through g, at g's distance up
///    to rounding, so edge g -> h is the cheapest move c(h,j) - c(g,j) of an
///    item now in g, kept in an indexed min-heap per ordered pair keyed
///    (delta, item index); an item that leaves g leaves g's heaps.
/// Dijkstra runs over the m groups plus the sink. An augmentation costs
/// O(m^2 + n) (the n for item potentials, below), plus one evaluation per
/// move within the rounding drift of its edge's cheapest (ties: up to n m
/// when all items are identical), plus O(m log n) per item it moves,
/// instead of the item-level flow's O(n m log n).
///
/// Optima tie often (hop-count costs make whole cost columns equal), so the
/// flow's choice among equal paths is reproduced, not just its cost: pops
/// go by (reduced distance, node index) with groups before the sink; a
/// relaxation must strictly improve, so the first relaxer wins; reduced
/// costs are clamped at 0; the popped sink relaxes its reverse slot arcs,
/// which sets the potentials of the groups behind it. Rounding decides
/// ties between real-valued paths, so every value that can win a
/// relaxation is computed with the flow's own floating-point expression,
/// from per-item potentials kept as the flow keeps them; a move whose
/// group-level value loses by more than the rounding drift is skipped
/// without that. One difference is known and untested: the flow orders
/// item nodes across groups by (distance, index), while here all of g's
/// items relax h when g pops, so an item whose distance sits an ulp above
/// its group's could lose an exact tie it wins in the flow.
class GroupSolver {
 public:
  GroupSolver(std::size_t num_groups, std::size_t num_items,
              const std::vector<double>& cost,
              std::vector<std::size_t> capacity,
              const std::vector<std::vector<double>>* slot_costs)
      : m_(num_groups),
        n_(num_items),
        cost_(cost),
        capacity_(std::move(capacity)),
        slot_costs_(slot_costs),
        load_(m_, 0),
        group_of_(n_, kNone),
        member_at_(n_, 0),
        members_(m_),
        entry_(m_),
        next_entry_(m_, 0),
        moves_(m_, std::vector<MoveHeap>(m_)),
        heap_at_(n_ * m_, 0),
        potential_(m_ + 1, 0.0),
        dist_(m_ + 1),
        reached_(m_ + 1),
        prev_group_(m_ + 1),
        prev_item_(m_ + 1) {
    for (std::size_t g = 0; g < m_; ++g) {
      auto& list = entry_[g];
      for (std::size_t j = 0; j < n_; ++j) {
        const double c = cost_at(g, j);
        if (!(c >= 0.0)) {
          throw std::invalid_argument(
              "transportation: item-group costs must be non-negative");
        }
        if (admissible(c)) list.push_back(j);
      }
      std::sort(list.begin(), list.end(), [&](std::size_t a, std::size_t b) {
        const double ca = cost_at(g, a), cb = cost_at(g, b);
        return ca < cb || (ca == cb && a < b);
      });
    }
  }

  TransportationSolution solve() {
    TransportationSolution sol;
    double cost = 0.0;
    for (std::size_t placed = 0; placed < n_; ++placed) {
      if (!shortest_paths()) return sol;  // an item cannot be placed
      update_potentials();
      augment(cost);
    }
    sol.feasible = true;
    sol.cost = cost;
    sol.assignment = std::move(group_of_);
    return sol;
  }

 private:
  struct Member {
    std::size_t item;
    double cost;       ///< c(g, item) of its group g
    double potential;  ///< the flow's potential of the item node
  };
  struct Move {
    double delta;  ///< c(h, item) - c(g, item)
    std::size_t item;
    bool operator>(const Move& o) const {
      return delta > o.delta || (delta == o.delta && item > o.item);
    }
  };
  /// Moves g -> h of the items in g, a binary min-heap.
  using MoveHeap = std::vector<Move>;

  static bool admissible(double c) { return c < kInadmissibleThreshold; }
  double cost_at(std::size_t g, std::size_t j) const {
    return cost_[g * n_ + j];
  }
  /// Marginal cost of group g's k-th slot (0-based); 0 in the plain variant.
  double slot_cost(std::size_t g, std::size_t k) const {
    return slot_costs_ != nullptr ? (*slot_costs_)[g][k] : 0.0;
  }
  const Member& member(std::size_t j) const {
    return members_[group_of_[j]][member_at_[j]];
  }
  /// The flow's distance of item node j, assigned to the popped group g.
  double item_dist(std::size_t g, const Member& it) const {
    return dist_[g] +
           std::max(-it.cost + potential_[g] - it.potential, 0.0);
  }

  /// Cheapest unassigned item admissible in g, or kNone.
  std::size_t cheapest_unassigned(std::size_t g) {
    const auto& list = entry_[g];
    std::size_t& k = next_entry_[g];
    while (k < list.size() && group_of_[list[k]] != kNone) ++k;
    return k < list.size() ? list[k] : kNone;
  }

  /// Position of item j's move to h in its group's heap moves_[.][h].
  std::size_t& heap_at(std::size_t j, std::size_t h) {
    return heap_at_[j * m_ + h];
  }
  void swap_moves(MoveHeap& heap, std::size_t h, std::size_t a,
                  std::size_t b) {
    std::swap(heap[a], heap[b]);
    heap_at(heap[a].item, h) = a;
    heap_at(heap[b].item, h) = b;
  }
  /// Restores the order of the heap of moves to h around position `at`.
  void sift(MoveHeap& heap, std::size_t h, std::size_t at) {
    while (at > 0 && heap[(at - 1) / 2] > heap[at]) {
      swap_moves(heap, h, at, (at - 1) / 2);
      at = (at - 1) / 2;
    }
    while (true) {
      std::size_t least = at;
      for (std::size_t c = 2 * at + 1; c <= 2 * at + 2 && c < heap.size();
           ++c) {
        if (heap[least] > heap[c]) least = c;
      }
      if (least == at) return;
      swap_moves(heap, h, at, least);
      at = least;
    }
  }

  void relax(std::size_t v, double nd, std::size_t from, std::size_t item) {
    if (nd < dist_[v]) {
      dist_[v] = nd;
      prev_group_[v] = from;
      prev_item_[v] = item;
    }
  }

  /// The flow's value for h through item j of the popped group g, and the
  /// item node's own distance (its pop order among g's items).
  std::pair<double, double> move_value(std::size_t g, std::size_t h,
                                       std::size_t j) const {
    const Member& it = member(j);
    const double dj = item_dist(g, it);
    return {dj + std::max(cost_at(h, j) + it.potential - potential_[h], 0.0),
            dj};
  }

  /// Relaxes h from the items of the popped group g. The flow pops those
  /// items in (distance, index) order and lets the first one with the least
  /// value win; only moves within the rounding drift of the cheapest can be
  /// that one, so just those are evaluated, with the flow's expression.
  void relax_moves(std::size_t g, std::size_t h) {
    const MoveHeap& heap = moves_[g][h];
    if (heap.empty()) return;
    const Move& cheapest = heap.front();
    const double shift = potential_[g] - potential_[h];
    const double slack =
        kDrift * (1.0 + dist_[g] + std::abs(potential_[g]) +
                  std::abs(potential_[h]) + std::abs(cheapest.delta));
    if (dist_[g] + std::max(cheapest.delta + shift, 0.0) > dist_[h] + slack) {
      return;  // cannot improve h
    }
    const double bound = cheapest.delta + slack;
    std::size_t best = kNone;
    double best_nd = kInf, best_item_dist = kInf;
    pending_.assign(1, 0);  // heap positions; a parent's key <= its children's
    while (!pending_.empty()) {
      const std::size_t at = pending_.back();
      pending_.pop_back();
      if (at >= heap.size() || heap[at].delta > bound) continue;
      pending_.push_back(2 * at + 1);
      pending_.push_back(2 * at + 2);
      const std::size_t j = heap[at].item;
      const auto [nd, dj] = move_value(g, h, j);
      if (nd < best_nd ||
          (nd == best_nd &&
           (dj < best_item_dist || (dj == best_item_dist && j < best)))) {
        best = j;
        best_nd = nd;
        best_item_dist = dj;
      }
    }
    relax(h, best_nd, g, best);
  }

  /// Dijkstra from the source over groups 0..m-1 and the sink (node m), on
  /// reduced costs. Returns whether the sink was reached.
  bool shortest_paths() {
    const std::size_t sink = m_;
    std::fill(dist_.begin(), dist_.end(), kInf);
    std::fill(reached_.begin(), reached_.end(), false);
    for (std::size_t h = 0; h < m_; ++h) {
      const std::size_t j = cheapest_unassigned(h);
      if (j == kNone) continue;
      relax(h, std::max(cost_at(h, j) - potential_[h], 0.0), kNone, j);
    }
    while (true) {
      std::size_t u = kNone;
      for (std::size_t v = 0; v <= m_; ++v) {
        if (!reached_[v] && dist_[v] < kInf &&
            (u == kNone || dist_[v] < dist_[u])) {
          u = v;
        }
      }
      if (u == kNone) break;
      reached_[u] = true;
      const double d = dist_[u];
      if (u == sink) {
        // Reverse slot arcs: the most expensive used slot of each group.
        for (std::size_t g = 0; g < m_; ++g) {
          if (reached_[g] || load_[g] == 0) continue;
          const double reduced =
              -slot_cost(g, load_[g] - 1) + potential_[sink] - potential_[g];
          relax(g, d + std::max(reduced, 0.0), sink, kNone);
        }
        continue;
      }
      const std::size_t g = u;
      if (load_[g] < capacity_[g] && !reached_[sink]) {
        const double reduced =
            slot_cost(g, load_[g]) + potential_[g] - potential_[sink];
        relax(sink, d + std::max(reduced, 0.0), g, kNone);
      }
      for (std::size_t h = 0; h < m_; ++h) {
        if (h != g && !reached_[h]) relax_moves(g, h);
      }
    }
    return reached_[sink];
  }

  /// Johnson update of every reached node: items (their distance needs the
  /// old group potential) before groups. Unassigned items stay at 0.
  void update_potentials() {
    for (std::size_t g = 0; g < m_; ++g) {
      if (!reached_[g]) continue;
      for (Member& it : members_[g]) it.potential += item_dist(g, it);
    }
    for (std::size_t v = 0; v <= m_; ++v) {
      if (reached_[v]) potential_[v] += dist_[v];
    }
  }

  /// Puts item j (with its potential) in group g, moving its moves from
  /// its old group's heaps to g's.
  void place(std::size_t j, std::size_t g) {
    double item_potential = 0.0;
    if (const std::size_t from = group_of_[j]; from != kNone) {
      auto& old = members_[from];
      const std::size_t at = member_at_[j];
      item_potential = old[at].potential;
      old[at] = old.back();
      member_at_[old[at].item] = at;
      old.pop_back();
      for (std::size_t h = 0; h < m_; ++h) {
        if (h == from || !admissible(cost_at(h, j))) continue;
        MoveHeap& heap = moves_[from][h];
        const std::size_t k = heap_at(j, h);
        heap[k] = heap.back();
        heap_at(heap[k].item, h) = k;
        heap.pop_back();
        if (k < heap.size()) sift(heap, h, k);
      }
    }
    const double here = cost_at(g, j);
    group_of_[j] = g;
    member_at_[j] = members_[g].size();
    members_[g].push_back(Member{j, here, item_potential});
    for (std::size_t h = 0; h < m_; ++h) {
      const double there = cost_at(h, j);
      if (h == g || !admissible(there)) continue;
      MoveHeap& heap = moves_[g][h];
      heap.push_back(Move{there - here, j});
      heap_at(j, h) = heap.size() - 1;
      sift(heap, h, heap.size() - 1);
    }
  }

  /// Ships one unit along the shortest path, sink backwards to the source,
  /// adding its arc costs to `cost` in that order (as the item-level flow
  /// does, so the total rounds the same).
  void augment(double& cost) {
    std::size_t g = prev_group_[m_];
    cost += slot_cost(g, load_[g]);
    ++load_[g];
    while (true) {
      const std::size_t j = prev_item_[g];
      const std::size_t from = prev_group_[g];
      cost += cost_at(g, j);
      place(j, g);
      if (from == kNone) break;  // j was unassigned
      cost += -cost_at(from, j);
      g = from;
    }
  }

  const std::size_t m_, n_;
  const std::vector<double>& cost_;
  const std::vector<std::size_t> capacity_;
  const std::vector<std::vector<double>>* const slot_costs_;
  std::vector<std::size_t> load_;
  std::vector<std::size_t> group_of_;   ///< kNone while unassigned
  std::vector<std::size_t> member_at_;  ///< index in members_[group_of_]
  std::vector<std::vector<Member>> members_;
  std::vector<std::vector<std::size_t>> entry_;  ///< by (cost, item)
  std::vector<std::size_t> next_entry_;
  std::vector<std::vector<MoveHeap>> moves_;  ///< [from][to]
  std::vector<std::size_t> heap_at_;           ///< see heap_at()
  std::vector<double> potential_;         ///< groups, then the sink
  std::vector<double> dist_;
  std::vector<char> reached_;
  std::vector<std::size_t> prev_group_;  ///< kNone: from the source
  std::vector<std::size_t> prev_item_;
  std::vector<std::size_t> pending_;  ///< relax_moves' heap walk
};

}  // namespace

TransportationSolution solve_transportation(
    const TransportationInstance& instance) {
  assert(instance.slots.size() == instance.num_groups);
  assert(instance.cost.size() == instance.num_groups * instance.num_items);
  return GroupSolver(instance.num_groups, instance.num_items, instance.cost,
                     instance.slots, nullptr)
      .solve();
}

TransportationSolution solve_convex_transportation(
    const ConvexTransportationInstance& instance) {
  assert(instance.slot_costs.size() == instance.num_groups);
  assert(instance.cost.size() == instance.num_groups * instance.num_items);
  std::vector<std::size_t> capacity;
  capacity.reserve(instance.num_groups);
  for (const auto& slots : instance.slot_costs) {
    for (std::size_t k = 0; k < slots.size(); ++k) {
      if (!(slots[k] >= (k == 0 ? 0.0 : slots[k - 1]))) {
        throw std::invalid_argument(
            "transportation: slot costs must be non-negative and "
            "non-decreasing");
      }
    }
    capacity.push_back(slots.size());
  }
  return GroupSolver(instance.num_groups, instance.num_items, instance.cost,
                     std::move(capacity), &instance.slot_costs)
      .solve();
}

}  // namespace mecsc::opt
