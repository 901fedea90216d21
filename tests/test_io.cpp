#include "core/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>

#include "core/baselines.h"
#include "core/lcf.h"
#include "util/rng.h"

namespace mecsc::core {
namespace {

Instance make(std::uint64_t seed = 1) {
  util::Rng rng(seed);
  InstanceParams p;
  p.network_size = 60;
  p.provider_count = 25;
  return generate_instance(p, rng);
}

TEST(InstanceIo, RoundTripPreservesStructure) {
  const Instance a = make();
  const Instance b = instance_from_json_text(instance_to_json(a).dump());
  EXPECT_EQ(b.network.topology().node_count(),
            a.network.topology().node_count());
  EXPECT_EQ(b.network.topology().edge_count(),
            a.network.topology().edge_count());
  ASSERT_EQ(b.cloudlet_count(), a.cloudlet_count());
  ASSERT_EQ(b.network.data_center_count(), a.network.data_center_count());
  ASSERT_EQ(b.provider_count(), a.provider_count());
  for (std::size_t i = 0; i < a.cloudlet_count(); ++i) {
    EXPECT_EQ(b.network.cloudlets()[i].node, a.network.cloudlets()[i].node);
    EXPECT_DOUBLE_EQ(b.network.cloudlets()[i].compute_capacity,
                     a.network.cloudlets()[i].compute_capacity);
    EXPECT_DOUBLE_EQ(b.cost.alpha[i], a.cost.alpha[i]);
    EXPECT_DOUBLE_EQ(b.cost.beta[i], a.cost.beta[i]);
  }
  for (ProviderId l = 0; l < a.provider_count(); ++l) {
    EXPECT_DOUBLE_EQ(b.providers[l].compute_per_request,
                     a.providers[l].compute_per_request);
    EXPECT_EQ(b.providers[l].requests, a.providers[l].requests);
    EXPECT_EQ(b.providers[l].home_dc, a.providers[l].home_dc);
    EXPECT_EQ(b.providers[l].user_region, a.providers[l].user_region);
  }
  EXPECT_EQ(b.cost.congestion, a.cost.congestion);
}

TEST(InstanceIo, RoundTripPreservesDistancesAndCosts) {
  const Instance a = make(2);
  const Instance b = instance_from_json_text(instance_to_json(a).dump());
  // Recomputed hop matrices must agree — they derive from identical graphs.
  for (std::size_t c = 0; c < a.cloudlet_count(); ++c) {
    for (std::size_t d = 0; d < a.network.data_center_count(); ++d) {
      EXPECT_DOUBLE_EQ(b.network.cloudlet_to_dc_hops(c, d),
                       a.network.cloudlet_to_dc_hops(c, d));
    }
  }
  // And therefore every cost the algorithms see is identical.
  for (ProviderId l = 0; l < a.provider_count(); ++l) {
    EXPECT_DOUBLE_EQ(remote_cost(b, l), remote_cost(a, l));
    for (CloudletId i = 0; i < a.cloudlet_count(); ++i) {
      EXPECT_DOUBLE_EQ(flat_cache_cost(b, l, i), flat_cache_cost(a, l, i));
    }
  }
}

TEST(InstanceIo, AlgorithmsAgreeAcrossRoundTrip) {
  const Instance a = make(3);
  const Instance b = instance_from_json_text(instance_to_json(a).dump());
  EXPECT_DOUBLE_EQ(run_lcf(a).social_cost(), run_lcf(b).social_cost());
  EXPECT_DOUBLE_EQ(run_jo_offload_cache(a).social_cost(),
                   run_jo_offload_cache(b).social_cost());
}

TEST(InstanceIo, CongestionKindSurvives) {
  Instance a = make(4);
  a.cost.congestion = CongestionKind::Exponential;
  const Instance b = instance_from_json_text(instance_to_json(a).dump());
  EXPECT_EQ(b.cost.congestion, CongestionKind::Exponential);
}

TEST(InstanceIo, RejectsVersionMismatch) {
  auto doc = instance_to_json(make(5));
  doc.as_object()["format_version"] = util::JsonValue(999);
  EXPECT_THROW(instance_from_json_text(doc.dump()),
               std::invalid_argument);
}

TEST(InstanceIo, RejectsBadIds) {
  auto doc = instance_to_json(make(6));
  doc.as_object()["data_centers"].as_array()[0] =
      util::JsonValue(100000);  // out of range node
  EXPECT_THROW(instance_from_json_text(doc.dump()),
               std::invalid_argument);
}

TEST(InstanceIo, RejectsAlphaSizeMismatch) {
  auto doc = instance_to_json(make(7));
  doc.as_object()["cost"].as_object()["alpha"].as_array().pop_back();
  EXPECT_THROW(instance_from_json_text(doc.dump()),
               std::invalid_argument);
}

/// Runs instance_from_json_text on `doc` after `mutate`, expecting a
/// std::invalid_argument whose message contains `needle` — the message must
/// name the offending element, not just say "invalid".
template <typename Fn>
void expect_rejected(util::JsonValue doc, Fn&& mutate,
                     const std::string& needle) {
  mutate(doc);
  try {
    instance_from_json_text(doc.dump());
    FAIL() << "document accepted; expected rejection mentioning '" << needle
           << "'";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find(needle), std::string::npos)
        << "actual message: " << err.what();
  }
}

TEST(InstanceIoValidation, RejectsNegativeCloudletCompute) {
  expect_rejected(
      instance_to_json(make(20)),
      [](util::JsonValue& d) {
        d.as_object()["cloudlets"].as_array()[0].as_object()["compute"] =
            util::JsonValue(-5.0);
      },
      "cloudlets[0].compute");
}

TEST(InstanceIoValidation, RejectsNegativeCloudletBandwidth) {
  expect_rejected(
      instance_to_json(make(20)),
      [](util::JsonValue& d) {
        d.as_object()["cloudlets"].as_array()[1].as_object()["bandwidth"] =
            util::JsonValue(-1.0);
      },
      "cloudlets[1].bandwidth");
}

TEST(InstanceIoValidation, RejectsCloudletNodeOutOfRange) {
  expect_rejected(
      instance_to_json(make(20)),
      [](util::JsonValue& d) {
        d.as_object()["cloudlets"].as_array()[0].as_object()["node"] =
            util::JsonValue(1e9);
      },
      "cloudlets[0].node");
}

TEST(InstanceIoValidation, RejectsNegativeNodeIndexBeforeUnsignedCast) {
  // A negative double cast straight to an unsigned index is UB; the
  // validator must reject it *before* any cast happens.
  expect_rejected(
      instance_to_json(make(20)),
      [](util::JsonValue& d) {
        d.as_object()["data_centers"].as_array()[0] = util::JsonValue(-3);
      },
      "data_centers[0]");
}

TEST(InstanceIoValidation, RejectsFractionalIndex) {
  expect_rejected(
      instance_to_json(make(20)),
      [](util::JsonValue& d) {
        d.as_object()["providers"].as_array()[0].as_object()["home_dc"] =
            util::JsonValue(0.5);
      },
      "providers[0].home_dc");
}

TEST(InstanceIoValidation, RejectsProviderHomeDcOutOfRange) {
  expect_rejected(
      instance_to_json(make(20)),
      [](util::JsonValue& d) {
        d.as_object()["providers"].as_array()[2].as_object()["home_dc"] =
            util::JsonValue(999);
      },
      "providers[2].home_dc");
}

TEST(InstanceIoValidation, RejectsProviderUserRegionOutOfRange) {
  expect_rejected(
      instance_to_json(make(20)),
      [](util::JsonValue& d) {
        d.as_object()["providers"].as_array()[0].as_object()["user_region"] =
            util::JsonValue(999);
      },
      "providers[0].user_region");
}

TEST(InstanceIoValidation, RejectsNegativeRequestCount) {
  expect_rejected(
      instance_to_json(make(20)),
      [](util::JsonValue& d) {
        d.as_object()["providers"].as_array()[1].as_object()["requests"] =
            util::JsonValue(-10);
      },
      "providers[1].requests");
}

TEST(InstanceIoValidation, RejectsUpdateFractionAboveOne) {
  expect_rejected(
      instance_to_json(make(20)),
      [](util::JsonValue& d) {
        d.as_object()["providers"].as_array()[0]
            .as_object()["update_fraction"] = util::JsonValue(1.5);
      },
      "providers[0].update_fraction");
}

TEST(InstanceIoValidation, RejectsNonFiniteCapacity) {
  // JSON cannot carry inf or NaN: a capacity token outside double range is
  // refused by the parser, at the token's offset, before any decoding.
  std::string text = instance_to_json(make(20)).dump();
  const std::string field = "\"compute\":";  // cloudlets[0], keys sorted
  const std::size_t at = text.find(field) + field.size();
  text.replace(at, text.find_first_of(",}", at) - at, "1e999");
  try {
    instance_from_json_text(text);
    FAIL() << "accepted a non-finite capacity";
  } catch (const util::JsonError& err) {
    EXPECT_EQ(err.offset(), at);
    EXPECT_NE(std::string(err.what()).find("outside double range"),
              std::string::npos)
        << err.what();
  }
}

TEST(InstanceIoValidation, RejectsSelfLoopEdge) {
  expect_rejected(
      instance_to_json(make(20)),
      [](util::JsonValue& d) {
        auto& edges =
            d.as_object()["topology"].as_object()["edges"].as_array();
        auto& e0 = edges[0].as_array();
        e0[1] = e0[0];  // u == v
      },
      "self-loop");
}

TEST(InstanceIoValidation, RejectsEdgeEndpointOutOfRange) {
  expect_rejected(
      instance_to_json(make(20)),
      [](util::JsonValue& d) {
        d.as_object()["topology"].as_object()["edges"].as_array()[0]
            .as_array()[0] = util::JsonValue(1e9);
      },
      "topology.edges[0].u");
}

TEST(InstanceIoValidation, RejectsBadEdgeTupleArity) {
  expect_rejected(
      instance_to_json(make(20)),
      [](util::JsonValue& d) {
        d.as_object()["topology"].as_object()["edges"].as_array()[0]
            .as_array()
            .pop_back();
      },
      "[u, v, length, bandwidth]");
}

TEST(InstanceIoValidation, RejectsNegativeAlpha) {
  expect_rejected(
      instance_to_json(make(20)),
      [](util::JsonValue& d) {
        d.as_object()["cost"].as_object()["alpha"].as_array()[3] =
            util::JsonValue(-0.5);
      },
      "cost.alpha[3]");
}

TEST(InstanceIoValidation, RejectsNegativeTransferPrice) {
  expect_rejected(
      instance_to_json(make(20)),
      [](util::JsonValue& d) {
        d.as_object()["cost"].as_object()["transfer_price_per_gb"] =
            util::JsonValue(-1.0);
      },
      "cost.transfer_price_per_gb");
}

TEST(InstanceIoValidation, RejectsUnknownCongestionKind) {
  expect_rejected(
      instance_to_json(make(20)),
      [](util::JsonValue& d) {
        d.as_object()["cost"].as_object()["congestion"] =
            util::JsonValue("cubic");
      },
      "cubic");
}

TEST(InstanceIoValidation, VersionMessageNamesSupportedVersion) {
  expect_rejected(
      instance_to_json(make(20)),
      [](util::JsonValue& d) {
        d.as_object()["format_version"] = util::JsonValue(999);
      },
      "version");
}

TEST(AssignmentIoValidation, RejectsNegativeChoiceBeforeCast) {
  const Instance inst = make(21);
  auto doc = assignment_to_json(Assignment(inst));
  doc.as_object()["choices"].as_array()[0] = util::JsonValue(-1);
  EXPECT_THROW(assignment_from_json_text(inst, doc.dump()),
               std::invalid_argument);
}

TEST(AssignmentIo, RoundTrip) {
  const Instance inst = make(8);
  const Assignment a = run_jo_offload_cache(inst);
  const Assignment b =
      assignment_from_json_text(inst, assignment_to_json(a).dump());
  EXPECT_TRUE(a == b);
  EXPECT_DOUBLE_EQ(a.social_cost(), b.social_cost());
}

TEST(AssignmentIo, RemoteEncodedAsNull) {
  const Instance inst = make(9);
  const Assignment a(inst);  // all remote
  const auto doc = assignment_to_json(a);
  for (const auto& c : doc.at("choices").as_array()) {
    EXPECT_TRUE(c.is_null());
  }
}

TEST(AssignmentIo, CostSummaryIncluded) {
  const Instance inst = make(10);
  const Assignment a = run_offload_cache(inst);
  const auto doc = assignment_to_json(a);
  EXPECT_NEAR(doc.number_at("social_cost"), a.social_cost(), 1e-9);
  EXPECT_NEAR(doc.number_at("potential"), a.potential(), 1e-9);
}

TEST(AssignmentIo, RejectsSizeMismatch) {
  const Instance inst = make(11);
  auto doc = assignment_to_json(Assignment(inst));
  doc.as_object()["choices"].as_array().pop_back();
  EXPECT_THROW(assignment_from_json_text(inst, doc.dump()),
               std::invalid_argument);
}

TEST(AssignmentIo, RejectsInvalidCloudlet) {
  const Instance inst = make(12);
  auto doc = assignment_to_json(Assignment(inst));
  doc.as_object()["choices"].as_array()[0] = util::JsonValue(99999);
  EXPECT_THROW(assignment_from_json_text(inst, doc.dump()),
               std::invalid_argument);
}

TEST(AssignmentIo, RejectsCapacityViolations) {
  Instance inst = make(13);
  // Two providers that each fill cloudlet 0 entirely.
  for (ProviderId l = 0; l < 2; ++l) {
    inst.providers[l].compute_per_request =
        inst.network.cloudlets()[0].compute_capacity;
    inst.providers[l].requests = 1;
  }
  auto doc = assignment_to_json(Assignment(inst));
  doc.as_object()["choices"].as_array()[0] = util::JsonValue(0);
  doc.as_object()["choices"].as_array()[1] = util::JsonValue(0);
  EXPECT_THROW(assignment_from_json_text(inst, doc.dump()),
               std::invalid_argument);
}

TEST(TextFiles, RoundTripAndErrors) {
  const std::string path = "/tmp/mecsc_io_test.txt";
  write_text_file(path, "hello\nworld");
  EXPECT_EQ(read_text_file(path), "hello\nworld");
  std::remove(path.c_str());
  EXPECT_THROW(read_text_file("/nonexistent/dir/file"), std::runtime_error);
  EXPECT_THROW(write_text_file("/nonexistent/dir/file", "x"),
               std::runtime_error);
}

TEST(MecNetworkExplicit, MatchesGeneratedDistances) {
  // The deserialization constructor recomputes exactly what the generating
  // constructor computed.
  const Instance a = make(14);
  net::MecNetwork rebuilt(
      a.network.topology(),
      std::vector<net::Cloudlet>(a.network.cloudlets().begin(),
                                 a.network.cloudlets().end()),
      std::vector<net::DataCenter>(a.network.data_centers().begin(),
                                   a.network.data_centers().end()));
  for (std::size_t c = 0; c < a.cloudlet_count(); ++c) {
    for (std::size_t c2 = 0; c2 < a.cloudlet_count(); ++c2) {
      EXPECT_DOUBLE_EQ(rebuilt.cloudlet_to_cloudlet_hops(c, c2),
                       a.network.cloudlet_to_cloudlet_hops(c, c2));
    }
  }
}

}  // namespace
}  // namespace mecsc::core
