// SolveSpec decoding: the two front doors (arena view, raw bytes) must
// accept and reject identically — the service's bad_request error text is
// part of the wire contract.
#include "core/solver_api.h"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

#include "util/json_arena.h"

namespace mecsc::core {
namespace {

SolveSpec decode(const std::string& doc) {
  return decode_solve_spec(doc.data(), doc.size());
}

TEST(SolverApi, DecodeSolveSpecDefaults) {
  const SolveSpec spec = decode("{}");
  EXPECT_EQ(spec.algorithm, "lcf");
  EXPECT_DOUBLE_EQ(spec.one_minus_xi, 0.3);
}

TEST(SolverApi, DecodeSolveSpecFields) {
  const SolveSpec spec =
      decode(R"({"algorithm": "lcf", "one_minus_xi": 0.45, "extra": 1})");
  EXPECT_EQ(spec.algorithm, "lcf");
  EXPECT_DOUBLE_EQ(spec.one_minus_xi, 0.45);
  for (const std::string& name : solver_algorithm_names()) {
    EXPECT_EQ(decode(R"({"algorithm": ")" + name + R"("})").algorithm, name);
  }
}

TEST(SolverApi, DecodeSolveSpecRejectsUnknownAlgorithm) {
  try {
    decode(R"({"algorithm": "gradient-descent"})");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown algorithm \"gradient-descent\"");
  }
}

TEST(SolverApi, DecodeSolveSpecRejectsNonNumberXi) {
  try {
    decode(R"({"one_minus_xi": "0.3"})");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "field \"one_minus_xi\" must be a number");
  }
}

TEST(SolverApi, DecodeSolveSpecRejectsMalformedJson) {
  EXPECT_THROW(decode("{\"algorithm\": "), util::JsonError);
  EXPECT_THROW(decode(""), util::JsonError);
}

// decode_solve_spec wraps solve_spec_from_arena; pin that the wrapper
// plumbing (arena lifetime, root()) cannot drift from the view decoder.
TEST(SolverApi, ArenaAndBytesFrontDoorsAgree) {
  const std::string docs[] = {
      "{}",
      R"({"algorithm": "appro"})",
      R"({"algorithm": "lcf", "one_minus_xi": 0.7})",
      R"({"one_minus_xi": 1})",
  };
  for (const std::string& doc : docs) {
    const util::JsonArena arena = util::parse_json_arena(doc);
    const SolveSpec from_arena = solve_spec_from_arena(arena.root());
    const SolveSpec from_bytes = decode(doc);
    EXPECT_EQ(from_arena.algorithm, from_bytes.algorithm) << doc;
    EXPECT_DOUBLE_EQ(from_arena.one_minus_xi, from_bytes.one_minus_xi) << doc;
    EXPECT_EQ(from_arena.cache_key(), from_bytes.cache_key()) << doc;
  }
  // The reject side carries explicit messages.
  const struct {
    const char* doc;
    const char* message;
  } bad[] = {
      {R"({"algorithm": "nope"})", "unknown algorithm \"nope\""},
      {R"({"one_minus_xi": null})", "field \"one_minus_xi\" must be a number"},
  };
  for (const auto& c : bad) {
    const util::JsonArena arena = util::parse_json_arena(c.doc);
    const std::function<void()> front_doors[] = {
        [&] { solve_spec_from_arena(arena.root()); },
        [&] { decode(c.doc); },
    };
    for (const auto& front_door : front_doors) {
      try {
        front_door();
        ADD_FAILURE() << "accepted " << c.doc;
      } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(), c.message) << c.doc;
      }
    }
  }
}

TEST(SolverApi, CacheKeySeparatesLcfXi) {
  SolveSpec a, b;
  a.algorithm = b.algorithm = "lcf";
  a.one_minus_xi = 0.3;
  b.one_minus_xi = 0.30000000000000004;  // adjacent double
  EXPECT_NE(a.cache_key(), b.cache_key());
  b.one_minus_xi = 0.3;
  EXPECT_EQ(a.cache_key(), b.cache_key());
  // Non-LCF algorithms ignore xi in the key (it does not affect results).
  a.algorithm = b.algorithm = "appro";
  a.one_minus_xi = 0.1;
  b.one_minus_xi = 0.9;
  EXPECT_EQ(a.cache_key(), b.cache_key());
}

}  // namespace
}  // namespace mecsc::core
