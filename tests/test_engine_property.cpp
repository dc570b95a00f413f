// Property test of the full matching PROTOCOL (not just one queue): the
// engine over every structure must agree with a reference engine (two
// naive reference queues + the UMQ-first/PRQ-first rules) on every
// decision of a randomized bidirectional workload — who matches whom,
// in which order, with wildcards, duplicates and cross-context traffic.

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "match/factory.hpp"
#include "tests/match_reference.hpp"

namespace semperm::match {
namespace {

using testing::ReferenceEngine;

using Param = std::tuple<std::string, std::uint64_t>;

class EngineProtocolTest : public ::testing::TestWithParam<Param> {};

TEST_P(EngineProtocolTest, AgreesWithReferenceEngine) {
  NativeMem mem;
  memlayout::AddressSpace space;
  auto cfg = QueueConfig::from_label(std::get<0>(GetParam()));
  if (cfg.kind == QueueKind::kOmpiBins || cfg.kind == QueueKind::kFourDim)
    cfg.bins = 8;
  auto bundle = make_engine(mem, space, cfg);
  ReferenceEngine reference;
  Rng rng(std::get<1>(GetParam()));

  // Requests must be stable and distinct per operation.
  std::deque<MatchRequest> requests;
  auto fresh = [&](RequestKind kind) {
    requests.emplace_back(kind, requests.size());
    return &requests.back();
  };

  for (int op = 0; op < 4000; ++op) {
    if (rng.chance(0.5)) {
      const std::int32_t src =
          rng.chance(0.2) ? kAnySource : static_cast<std::int32_t>(rng.below(4));
      const std::int32_t tag =
          rng.chance(0.2) ? kAnyTag : static_cast<std::int32_t>(rng.below(5));
      const auto ctx = static_cast<std::uint16_t>(rng.below(2));
      const Pattern pattern = Pattern::make(src, tag, ctx);
      MatchRequest* recv = fresh(RequestKind::kRecv);
      MatchRequest* got = bundle->post_recv(pattern, recv);
      MatchRequest* want = reference.post_recv(pattern, recv);
      ASSERT_EQ(got, want) << "post op " << op;
      if (got == nullptr) {
        ASSERT_FALSE(recv->complete());
      } else {
        ASSERT_TRUE(recv->complete());
      }
    } else {
      const Envelope env{static_cast<std::int32_t>(rng.below(5)),
                         static_cast<std::int16_t>(rng.below(4)),
                         static_cast<std::uint16_t>(rng.below(2))};
      MatchRequest* msg = fresh(RequestKind::kUnexpected);
      MatchRequest* got = bundle->incoming(env, msg);
      MatchRequest* want = reference.incoming(env, msg);
      ASSERT_EQ(got, want) << "incoming op " << op << " env "
                           << env.to_string();
      if (got != nullptr) {
        ASSERT_TRUE(got->complete());
        ASSERT_EQ(got->matched(), env);
      }
    }
    ASSERT_EQ(bundle->prq().size(), reference.prq_size()) << "op " << op;
    ASSERT_EQ(bundle->umq().size(), reference.umq_size()) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsBySeeds, EngineProtocolTest,
    ::testing::Combine(::testing::Values("baseline", "lla-2", "lla-8", "ompi",
                                         "hash-4", "4d"),
                       ::testing::Values(7ull, 8ull)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace semperm::match
