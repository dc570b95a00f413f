// Binned-queue specifics: O(1) bin selection, wildcard/global ordering via
// sequence numbers, and the cost asymmetry the paper's §2.2 describes for
// the Open MPI design (fast selection, O(N) memory).

#include "match/binned_queue.hpp"

#include <gtest/gtest.h>

#include "match/factory.hpp"

namespace semperm::match {
namespace {

using BySource = BinnedQueue<PostedEntry, NativeMem, SourceBins>;
using ByHash = BinnedQueue<PostedEntry, NativeMem, HashBins>;
using UmqBySource = BinnedQueue<UnexpectedEntry, NativeMem, SourceBins>;

class BinnedFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kBins = 16;

  BinnedFixture()
      : arena_(space_, 1 << 18),
        pool_(arena_, sizeof(BySource::Node), kCacheLine,
              memlayout::AddressPolicy::kSequential),
        by_source_(mem_, pool_, kBins),
        by_hash_(mem_, pool_, 4) {}

  PostedEntry posted(std::int32_t source, std::int32_t tag,
                     MatchRequest* req) {
    return PostedEntry::from(Pattern::make(source, tag, 0), req);
  }

  NativeMem mem_;
  memlayout::AddressSpace space_;
  memlayout::Arena arena_;
  memlayout::BlockPool pool_;
  BySource by_source_;
  ByHash by_hash_;
  MatchRequest reqs_[64];
};

TEST_F(BinnedFixture, NodePacksToOneCacheLine) {
  EXPECT_EQ(sizeof(BySource::Node), kCacheLine);
  EXPECT_EQ(sizeof(UmqBySource::Node), kCacheLine);
}

TEST_F(BinnedFixture, BySourceSearchSkipsOtherBins) {
  // Load 30 entries from source 3, then search for source 5: the search
  // must not inspect source-3 entries at all.
  for (int i = 0; i < 30; ++i) by_source_.append(posted(3, i, &reqs_[i]));
  by_source_.append(posted(5, 7, &reqs_[32]));
  by_source_.reset_stats();
  auto hit = by_source_.find_and_remove(Envelope{7, 5, 0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->req, &reqs_[32]);
  EXPECT_EQ(by_source_.stats().entries_inspected, 1u);
}

TEST_F(BinnedFixture, WildcardAndBinnedInterleaveBySeq) {
  by_source_.append(posted(2, 1, &reqs_[0]));                  // seq 0
  by_source_.append(posted(kAnySource, kAnyTag, &reqs_[1]));   // seq 1
  by_source_.append(posted(2, 1, &reqs_[2]));                  // seq 2
  // Messages for (2,1) must consume seq 0, then the wildcard, then seq 2.
  EXPECT_EQ(by_source_.find_and_remove(Envelope{1, 2, 0})->req, &reqs_[0]);
  EXPECT_EQ(by_source_.find_and_remove(Envelope{1, 2, 0})->req, &reqs_[1]);
  EXPECT_EQ(by_source_.find_and_remove(Envelope{1, 2, 0})->req, &reqs_[2]);
}

TEST_F(BinnedFixture, OutOfRangeSourceAsserts) {
  by_source_.append(posted(1, 1, &reqs_[0]));
  EXPECT_THROW(by_source_.find_and_remove(
                   Envelope{1, static_cast<std::int16_t>(kBins), 0}),
               std::logic_error);
}

TEST_F(BinnedFixture, HashPolicyHandlesCollisions) {
  // Only 4 bins: collisions guaranteed; correctness must not depend on the
  // hash spreading things out.
  for (int i = 0; i < 32; ++i)
    by_hash_.append(posted(i % 8, i, &reqs_[i]));
  for (int i = 31; i >= 0; --i) {
    auto hit = by_hash_.find_and_remove(Envelope{i, static_cast<std::int16_t>(i % 8), 0});
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(hit->req, &reqs_[i]);
  }
  EXPECT_EQ(by_hash_.size(), 0u);
}

TEST_F(BinnedFixture, HashPolicyAnyTagEntryGoesToWildcardList) {
  by_hash_.append(PostedEntry::from(Pattern::make(2, kAnyTag, 0), &reqs_[0]));
  auto hit = by_hash_.find_and_remove(Envelope{12345, 2, 0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->req, &reqs_[0]);
}

TEST_F(BinnedFixture, FootprintIncludesBinArray) {
  // The Open MPI scalability criticism: O(N) memory per communicator even
  // when empty.
  EXPECT_GE(by_source_.footprint_bytes(),
            kBins * sizeof(BySource::List));
}

TEST_F(BinnedFixture, MatchHashMixesAllFields) {
  const auto h = match_hash(1, 2, 3);
  EXPECT_NE(h, match_hash(2, 2, 3));
  EXPECT_NE(h, match_hash(1, 3, 3));
  EXPECT_NE(h, match_hash(1, 2, 4));
  // Deterministic.
  EXPECT_EQ(h, match_hash(1, 2, 3));
}

class BinnedUmqFixture : public ::testing::Test {
 protected:
  BinnedUmqFixture()
      : arena_(space_, 1 << 18),
        pool_(arena_, sizeof(UmqBySource::Node), kCacheLine,
              memlayout::AddressPolicy::kSequential),
        umq_(mem_, pool_, 16) {}

  NativeMem mem_;
  memlayout::AddressSpace space_;
  memlayout::Arena arena_;
  memlayout::BlockPool pool_;
  UmqBySource umq_;
  MatchRequest reqs_[8];
};

TEST_F(BinnedUmqFixture, GlobalListPreservesArrivalOrderForWildcards) {
  umq_.append(UnexpectedEntry::from(Envelope{5, 9, 0}, &reqs_[0]));
  umq_.append(UnexpectedEntry::from(Envelope{5, 3, 0}, &reqs_[1]));
  umq_.append(UnexpectedEntry::from(Envelope{5, 9, 0}, &reqs_[2]));
  // ANY_SOURCE search must walk arrival order across bins 9 and 3.
  EXPECT_EQ(umq_.find_and_remove(Pattern::make(kAnySource, 5, 0))->req,
            &reqs_[0]);
  EXPECT_EQ(umq_.find_and_remove(Pattern::make(kAnySource, 5, 0))->req,
            &reqs_[1]);
  EXPECT_EQ(umq_.find_and_remove(Pattern::make(kAnySource, 5, 0))->req,
            &reqs_[2]);
}

TEST_F(BinnedUmqFixture, ConcreteSearchUsesBin) {
  umq_.append(UnexpectedEntry::from(Envelope{1, 2, 0}, &reqs_[0]));
  umq_.append(UnexpectedEntry::from(Envelope{1, 3, 0}, &reqs_[1]));
  umq_.reset_stats();
  auto hit = umq_.find_and_remove(Pattern::make(3, 1, 0));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->req, &reqs_[1]);
  EXPECT_EQ(umq_.stats().entries_inspected, 1u);
}

TEST_F(BinnedUmqFixture, RemovalUnthreadsBothLists) {
  umq_.append(UnexpectedEntry::from(Envelope{1, 2, 0}, &reqs_[0]));
  umq_.append(UnexpectedEntry::from(Envelope{2, 2, 0}, &reqs_[1]));
  ASSERT_TRUE(umq_.find_and_remove(Pattern::make(2, 1, 0)).has_value());
  // The removed node must be gone from the global walk too.
  auto hit = umq_.find_and_remove(Pattern::make(kAnySource, kAnyTag, 0));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->req, &reqs_[1]);
  EXPECT_EQ(umq_.size(), 0u);
}

}  // namespace
}  // namespace semperm::match
