// Min-cost-flow formulation of the slotted transportation problems.
//
// A test-only reference solver: the group-level solvers in
// opt/transportation are checked to return exactly its assignments, ties
// included (test_transportation.cpp, transportation_identity.cpp). Every item-group
// pair is a unit arc source -> item -> group; each group reaches the sink
// through one arc of capacity slots[g] (plain) or one unit arc per slot
// priced slot_costs[g][k] (convex), and opt::MinCostFlow ships n units.
#pragma once

#include "opt/transportation.h"

namespace mecsc::opt {

TransportationSolution mcmf_transportation(
    const TransportationInstance& instance);

TransportationSolution mcmf_convex_transportation(
    const ConvexTransportationInstance& instance);

}  // namespace mecsc::opt
