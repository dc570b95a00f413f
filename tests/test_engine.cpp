// The matching protocol: UMQ-first on post, PRQ-first on arrival,
// completion bookkeeping, reserved-identity policing, Fig.-1-style
// sampling, and dwell-time (time-in-queue) statistics.

#include "match/engine.hpp"

#include <gtest/gtest.h>

#include "match/factory.hpp"

namespace semperm::match {
namespace {

class EngineTest : public ::testing::TestWithParam<std::string> {
 protected:
  EngineTest()
      : bundle_(make_engine(mem_, space_,
                            QueueConfig::from_label(GetParam()))) {}

  NativeMem mem_;
  memlayout::AddressSpace space_;
  EngineBundle<NativeMem> bundle_;
};

TEST_P(EngineTest, PrePostedReceiveMatchesArrival) {
  MatchRequest recv(RequestKind::kRecv, 1);
  EXPECT_EQ(bundle_->post_recv(Pattern::make(3, 9, 0), &recv), nullptr);
  EXPECT_EQ(bundle_->prq().size(), 1u);

  MatchRequest msg(RequestKind::kUnexpected, 2);
  MatchRequest* done = bundle_->incoming(Envelope{9, 3, 0}, &msg);
  EXPECT_EQ(done, &recv);
  EXPECT_TRUE(recv.complete());
  EXPECT_EQ(recv.matched(), (Envelope{9, 3, 0}));
  EXPECT_EQ(bundle_->prq().size(), 0u);
  EXPECT_EQ(bundle_->umq().size(), 0u);
}

TEST_P(EngineTest, UnexpectedMessageBuffersThenMatchesLaterReceive) {
  MatchRequest msg(RequestKind::kUnexpected, 1);
  EXPECT_EQ(bundle_->incoming(Envelope{4, 2, 0}, &msg), nullptr);
  EXPECT_EQ(bundle_->umq().size(), 1u);

  MatchRequest recv(RequestKind::kRecv, 2);
  MatchRequest* buffered = bundle_->post_recv(Pattern::make(2, 4, 0), &recv);
  EXPECT_EQ(buffered, &msg);
  EXPECT_TRUE(recv.complete());
  EXPECT_EQ(recv.matched(), (Envelope{4, 2, 0}));
  EXPECT_EQ(bundle_->umq().size(), 0u);
}

TEST_P(EngineTest, UmqSearchedBeforePosting) {
  // Two buffered messages; a wildcard receive must take the earlier one
  // and never land on the PRQ.
  MatchRequest m1(RequestKind::kUnexpected, 1), m2(RequestKind::kUnexpected, 2);
  bundle_->incoming(Envelope{7, 1, 0}, &m1);
  bundle_->incoming(Envelope{8, 2, 0}, &m2);
  MatchRequest recv(RequestKind::kRecv, 3);
  EXPECT_EQ(bundle_->post_recv(Pattern::make(kAnySource, kAnyTag, 0), &recv),
            &m1);
  EXPECT_EQ(bundle_->prq().size(), 0u);
  EXPECT_EQ(bundle_->umq().size(), 1u);
}

TEST_P(EngineTest, CrossTrafficKeepsQueuesConsistent) {
  // Interleave posts and arrivals with partial overlap.
  std::vector<MatchRequest> recvs(8), msgs(8);
  for (int i = 0; i < 8; ++i)
    recvs[static_cast<std::size_t>(i)] =
        MatchRequest(RequestKind::kRecv, static_cast<std::uint64_t>(i));
  for (int i = 0; i < 8; ++i)
    msgs[static_cast<std::size_t>(i)] = MatchRequest(
        RequestKind::kUnexpected, static_cast<std::uint64_t>(100 + i));
  // Post receives for tags 0..3, deliver messages for tags 2..7.
  for (int i = 0; i < 4; ++i)
    bundle_->post_recv(Pattern::make(1, i, 0),
                       &recvs[static_cast<std::size_t>(i)]);
  int matched = 0;
  for (int i = 2; i < 8; ++i)
    if (bundle_->incoming(Envelope{i, 1, 0},
                          &msgs[static_cast<std::size_t>(i)]) != nullptr)
      ++matched;
  EXPECT_EQ(matched, 2);                    // tags 2 and 3
  EXPECT_EQ(bundle_->prq().size(), 2u);     // tags 0 and 1 still posted
  EXPECT_EQ(bundle_->umq().size(), 4u);     // tags 4..7 buffered
}

TEST_P(EngineTest, ReservedWireIdentityRejected) {
  MatchRequest msg(RequestKind::kUnexpected, 1);
  EXPECT_THROW(bundle_->incoming(Envelope{kHoleTag, 1, 0}, &msg),
               std::logic_error);
  EXPECT_THROW(bundle_->incoming(Envelope{1, kHoleRank, 0}, &msg),
               std::logic_error);
}

TEST_P(EngineTest, SamplingRecordsEveryMutation) {
  bundle_->enable_sampling(10, 10);
  MatchRequest recv(RequestKind::kRecv, 1);
  bundle_->post_recv(Pattern::make(1, 5, 0), &recv);  // PRQ length 1 sampled
  MatchRequest msg(RequestKind::kUnexpected, 2);
  bundle_->incoming(Envelope{5, 1, 0}, &msg);  // PRQ length 0 sampled
  MatchRequest stray(RequestKind::kUnexpected, 3);
  bundle_->incoming(Envelope{6, 1, 0}, &stray);  // UMQ length 1 sampled
  ASSERT_NE(bundle_->prq_sampler(), nullptr);
  EXPECT_EQ(bundle_->prq_sampler()->histogram().total(), 2u);
  EXPECT_EQ(bundle_->umq_sampler()->histogram().total(), 1u);
  EXPECT_DOUBLE_EQ(bundle_->prq_sampler()->running().max(), 1.0);
}

TEST_P(EngineTest, SamplingOffByDefault) {
  EXPECT_EQ(bundle_->prq_sampler(), nullptr);
  EXPECT_EQ(bundle_->umq_sampler(), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Kinds, EngineTest,
                         ::testing::Values("baseline", "lla-8", "ompi",
                                           "hash-16"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// --- dwell-time statistics (engine ticks between enqueue and match) ------

TEST(DwellStats, PostedReceivesMeasureWait) {
  NativeMem mem;
  memlayout::AddressSpace space;
  auto bundle = make_engine(mem, space, QueueConfig::from_label("baseline"));
  MatchRequest r1(RequestKind::kRecv, 1);
  MatchRequest r2(RequestKind::kRecv, 2);
  bundle->post_recv(Pattern::make(1, 10, 0), &r1);  // tick 1
  bundle->post_recv(Pattern::make(1, 11, 0), &r2);  // tick 2
  MatchRequest m1(RequestKind::kUnexpected, 3);
  MatchRequest m2(RequestKind::kUnexpected, 4);
  bundle->incoming(Envelope{11, 1, 0}, &m1);  // tick 3: r2 waited 1
  bundle->incoming(Envelope{10, 1, 0}, &m2);  // tick 4: r1 waited 3
  const auto& dwell = bundle->prq_dwell().dwell();
  EXPECT_EQ(dwell.count(), 2u);
  EXPECT_DOUBLE_EQ(dwell.min(), 1.0);
  EXPECT_DOUBLE_EQ(dwell.max(), 3.0);
  EXPECT_EQ(bundle->ticks(), 4u);
}

TEST(DwellStats, UnexpectedMessagesMeasureBufferTime) {
  NativeMem mem;
  memlayout::AddressSpace space;
  auto bundle = make_engine(mem, space, QueueConfig::from_label("lla-8"));
  MatchRequest m(RequestKind::kUnexpected, 1);
  bundle->incoming(Envelope{5, 2, 0}, &m);  // tick 1
  MatchRequest decoy(RequestKind::kRecv, 2);
  bundle->post_recv(Pattern::make(9, 9, 0), &decoy);  // tick 2
  MatchRequest r(RequestKind::kRecv, 3);
  bundle->post_recv(Pattern::make(2, 5, 0), &r);  // tick 3: dwelt 2
  const auto& dwell = bundle->umq_dwell().dwell();
  EXPECT_EQ(dwell.count(), 1u);
  EXPECT_DOUBLE_EQ(dwell.mean(), 2.0);
}

TEST(DwellStats, EmptyUntilMatches) {
  NativeMem mem;
  memlayout::AddressSpace space;
  auto bundle = make_engine(mem, space, QueueConfig::from_label("baseline"));
  MatchRequest r(RequestKind::kRecv, 1);
  bundle->post_recv(Pattern::make(1, 1, 0), &r);
  EXPECT_EQ(bundle->prq_dwell().dwell().count(), 0u);
  EXPECT_EQ(bundle->umq_dwell().dwell().count(), 0u);
}

}  // namespace
}  // namespace semperm::match
