// MPI_Probe semantics: non-destructive peek across every queue structure
// and the engine.

#include <gtest/gtest.h>

#include <string>

#include "match/factory.hpp"

namespace semperm {
namespace {

using match::Envelope;
using match::MatchRequest;
using match::Pattern;
using match::PostedEntry;
using match::UnexpectedEntry;

class PeekRemoveTest : public ::testing::TestWithParam<std::string> {
 protected:
  PeekRemoveTest()
      : bundle_(match::make_engine(mem_, space_, config())) {}

  match::QueueConfig config() const {
    auto cfg = match::QueueConfig::from_label(GetParam());
    if (cfg.kind == match::QueueKind::kOmpiBins ||
        cfg.kind == match::QueueKind::kFourDim)
      cfg.bins = 32;
    return cfg;
  }

  NativeMem mem_;
  memlayout::AddressSpace space_;
  match::EngineBundle<NativeMem> bundle_;
  MatchRequest reqs_[16];
};

TEST_P(PeekRemoveTest, PeekDoesNotConsume) {
  auto& prq = bundle_->prq();
  prq.append(PostedEntry::from(Pattern::make(1, 7, 0), &reqs_[0]));
  auto seen = prq.peek(Envelope{7, 1, 0});
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->req, &reqs_[0]);
  EXPECT_EQ(prq.size(), 1u);  // still there
  // Peeking again yields the same entry; removing then really consumes.
  EXPECT_TRUE(prq.peek(Envelope{7, 1, 0}).has_value());
  EXPECT_TRUE(prq.find_and_remove(Envelope{7, 1, 0}).has_value());
  EXPECT_FALSE(prq.peek(Envelope{7, 1, 0}).has_value());
}

TEST_P(PeekRemoveTest, PeekRespectsFifoOrder) {
  auto& prq = bundle_->prq();
  prq.append(PostedEntry::from(Pattern::make(2, 9, 0), &reqs_[0]));
  prq.append(PostedEntry::from(Pattern::make(2, 9, 0), &reqs_[1]));
  EXPECT_EQ(prq.peek(Envelope{9, 2, 0})->req, &reqs_[0]);
}

TEST_P(PeekRemoveTest, PeekMissOnEmptyAndNonMatching) {
  auto& prq = bundle_->prq();
  EXPECT_FALSE(prq.peek(Envelope{1, 1, 0}).has_value());
  prq.append(PostedEntry::from(Pattern::make(1, 7, 0), &reqs_[0]));
  EXPECT_FALSE(prq.peek(Envelope{8, 1, 0}).has_value());
}

TEST_P(PeekRemoveTest, UmqPeekWithWildcards) {
  auto& umq = bundle_->umq();
  umq.append(UnexpectedEntry::from(Envelope{3, 4, 0}, &reqs_[0]));
  umq.append(UnexpectedEntry::from(Envelope{5, 6, 0}, &reqs_[1]));
  auto any = umq.peek(Pattern::make(match::kAnySource, match::kAnyTag, 0));
  ASSERT_TRUE(any.has_value());
  EXPECT_EQ(any->req, &reqs_[0]);  // earliest arrival
  auto specific = umq.peek(Pattern::make(6, match::kAnyTag, 0));
  ASSERT_TRUE(specific.has_value());
  EXPECT_EQ(specific->req, &reqs_[1]);
  EXPECT_EQ(umq.size(), 2u);
}

TEST_P(PeekRemoveTest, EngineProbeDoesNotConsume) {
  // No receive is posted, so the message goes unexpected and is visible
  // to probe.
  MatchRequest msg(match::RequestKind::kUnexpected, 2);
  bundle_->incoming(Envelope{7, 1, 0}, &msg);
  auto probed = bundle_->probe(Pattern::make(1, 7, 0));
  ASSERT_TRUE(probed.has_value());
  EXPECT_EQ(*probed, (Envelope{7, 1, 0}));
  EXPECT_EQ(bundle_->umq().size(), 1u);  // probe did not consume
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PeekRemoveTest,
                         ::testing::Values("baseline", "lla-2", "lla-8",
                                           "ompi", "hash-16", "4d-32"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

}  // namespace
}  // namespace semperm
