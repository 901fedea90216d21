// Cross-cutting randomized property suites that don't belong to a single
// module: flow conservation, best-response optimality certificates,
// Shmoys-Tardos eviction handling, and interchange-format stability.
#include <gtest/gtest.h>

#include "core/appro.h"
#include "core/congestion_game.h"
#include "core/io.h"
#include "net/random_graphs.h"
#include "opt/mcmf.h"
#include "util/rng.h"

namespace mecsc {
namespace {

// --- Min-cost flow: conservation at every interior node --------------------

class FlowConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(FlowConservationTest, NetFlowZeroAtInteriorNodes) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 13);
  const std::size_t n = 8;
  opt::MinCostFlow f(n);
  struct ArcInfo {
    std::size_t u, v, handle;
  };
  std::vector<ArcInfo> arcs;
  for (int k = 0; k < 20; ++k) {
    const auto u = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const auto v = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    if (u == v) continue;
    const auto handle =
        f.add_arc(u, v, rng.uniform_int(0, 5), rng.uniform_real(0.0, 3.0));
    arcs.push_back({u, v, handle});
  }
  const auto res = f.solve(0, n - 1);
  std::vector<std::int64_t> net(n, 0);
  for (const auto& a : arcs) {
    const std::int64_t flow = f.flow_on(a.handle);
    EXPECT_GE(flow, 0);
    net[a.u] -= flow;
    net[a.v] += flow;
  }
  EXPECT_EQ(net[0], -res.flow);
  EXPECT_EQ(net[n - 1], res.flow);
  for (std::size_t v = 1; v + 1 < n; ++v) {
    EXPECT_EQ(net[v], 0) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomNetworks, FlowConservationTest,
                         ::testing::Range(0, 20));

// --- Best response returns a certified argmin -------------------------------

TEST(BestResponseCertificate, ReturnedTargetIsArgmin) {
  util::Rng rng(5);
  core::InstanceParams p;
  p.network_size = 70;
  p.provider_count = 25;
  const core::Instance inst = core::generate_instance(p, rng);
  core::Assignment a(inst);
  // Random non-trivial state.
  for (core::ProviderId l = 0; l < inst.provider_count(); ++l) {
    const auto t = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(inst.cloudlet_count())));
    if (t < inst.cloudlet_count() && a.can_move(l, t)) a.move(l, t);
  }
  for (core::ProviderId l = 0; l < inst.provider_count(); ++l) {
    const std::size_t best = core::best_response(a, l);
    const double best_cost = a.provider_cost_if(l, best);
    EXPECT_LE(best_cost, a.provider_cost_if(l, core::kRemote) + 1e-9);
    for (core::CloudletId i = 0; i < inst.cloudlet_count(); ++i) {
      if (a.can_move(l, i)) {
        EXPECT_LE(best_cost, a.provider_cost_if(l, i) + 1e-9)
            << "provider " << l << " cloudlet " << i;
      }
    }
  }
}

// --- Shmoys-Tardos eviction path ---------------------------------------------

TEST(ApproEvictions, StMayEvictButStaysFeasible) {
  // Under very scarce capacity the ST rounding's +1-item load relaxation
  // can overflow physical cloudlets; the merge step must divert the
  // overflow to the remote tier and stay feasible.
  util::Rng rng(11);
  core::InstanceParams p;
  p.network_size = 60;
  p.provider_count = 60;
  p.compute_per_request_hi = 0.6;  // heavy services
  p.requests_hi = 60;
  core::Instance inst = core::generate_instance(p, rng);
  core::ApproOptions options;
  options.solver = core::ApproOptions::InnerSolver::ShmoysTardos;
  const core::ApproResult r = core::run_appro(inst, options);
  EXPECT_TRUE(r.assignment.feasible());
  // Whether or not evictions occurred, every placed provider fits.
  for (core::ProviderId l = 0; l < inst.provider_count(); ++l) {
    const std::size_t c = r.assignment.choice(l);
    if (c != core::kRemote) {
      EXPECT_TRUE(core::demand_fits(inst, l, c));
    }
  }
}

// --- Interchange format stability ---------------------------------------------

TEST(FormatStability, HandWrittenDocumentParses) {
  // A minimal valid document written against the documented format. If this
  // test breaks, the format changed — bump kIoFormatVersion.
  const std::string doc = R"({
    "format_version": 1,
    "topology": {"nodes": 4, "edges": [[0,1,1.0,100],[1,2,1.0,100],[2,3,1.0,100]]},
    "cloudlets": [{"node": 0, "compute": 10, "bandwidth": 500}],
    "data_centers": [3],
    "providers": [{
      "compute_per_request": 0.1, "bandwidth_per_request": 2.0,
      "requests": 10, "instantiation_cost": 0.2, "service_data_gb": 2.0,
      "update_fraction": 0.1, "traffic_gb": 1.0, "home_dc": 0,
      "user_region": 0
    }],
    "cost": {
      "alpha": [0.5], "beta": [0.5],
      "transfer_price_per_gb": 0.08, "processing_price_per_gb": 0.18,
      "vm_boot_cost": 0.1, "remote_hop_penalty": 1.0,
      "congestion": "linear"
    }
  })";
  const core::Instance inst = core::instance_from_json_text(doc);
  EXPECT_EQ(inst.provider_count(), 1u);
  EXPECT_EQ(inst.cloudlet_count(), 1u);
  EXPECT_DOUBLE_EQ(inst.network.cloudlet_to_dc_hops(0, 0), 3.0);
  // The single provider can cache at the single cloudlet.
  EXPECT_TRUE(core::demand_fits(inst, 0, 0));
  EXPECT_GT(core::remote_cost(inst, 0), 0.0);
}

// --- MEC on adversarial topologies ---------------------------------------------

TEST(AdversarialTopologies, PipelineSurvivesExtremeGraphs) {
  util::Rng rng(13);
  // Star graph: one hub, everything else a leaf.
  net::Graph star(30);
  for (net::NodeId v = 1; v < 30; ++v) star.add_edge(0, v, 1.0, 1000.0);
  // Long path graph.
  net::Graph path(30);
  for (net::NodeId v = 0; v + 1 < 30; ++v) path.add_edge(v, v + 1, 1.0, 1000.0);

  for (net::Graph* g : {&star, &path}) {
    util::Rng build_rng = rng.split();
    core::Instance inst{net::MecNetwork(*g, {}, build_rng), {}, {}};
    // Minimal provider population on top.
    core::InstanceParams p;
    p.network_size = 50;
    p.provider_count = 10;
    util::Rng donor_rng = rng.split();
    core::Instance donor = core::generate_instance(p, donor_rng);
    inst.cost = donor.cost;
    inst.cost.alpha.assign(inst.cloudlet_count(), 0.5);
    inst.cost.beta.assign(inst.cloudlet_count(), 0.5);
    inst.providers = donor.providers;
    for (auto& sp : inst.providers) {
      sp.home_dc = 0;
      sp.user_region = 0;
    }
    const core::ApproResult r = core::run_appro(inst);
    EXPECT_TRUE(r.assignment.feasible());
    const core::GameResult ne = core::best_response_dynamics(
        core::Assignment(inst),
        std::vector<bool>(inst.provider_count(), true));
    EXPECT_TRUE(ne.converged);
  }
}

}  // namespace
}  // namespace mecsc
