// The 4-D rank-decomposed trie bin index (Zounmevo & Afsahi style): trie
// geometry, lazy table allocation, and the speed/memory trade-off against
// the flat per-source array.

#include "match/binned_queue.hpp"

#include <gtest/gtest.h>

#include "match/factory.hpp"

namespace semperm::match {
namespace {

using FourDimQueue = BinnedQueue<PostedEntry, NativeMem, TrieBins>;

class FourDimFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kRanks = 4096;  // base 8 trie

  FourDimFixture()
      : arena_(space_, 1 << 20),
        pool_(arena_, sizeof(FourDimQueue::Node), kCacheLine,
              memlayout::AddressPolicy::kSequential),
        queue_(mem_, pool_, kRanks) {}

  PostedEntry posted(std::int32_t source, std::int32_t tag,
                     MatchRequest* req) {
    return PostedEntry::from(Pattern::make(source, tag, 0), req);
  }

  NativeMem mem_;
  memlayout::AddressSpace space_;
  memlayout::Arena arena_;
  memlayout::BlockPool pool_;
  FourDimQueue queue_;
  MatchRequest reqs_[32];
};

TEST_F(FourDimFixture, DigitBaseIsFourthRoot) {
  EXPECT_EQ(queue_.index().digit_base(), 8u);  // 8^4 = 4096
}

TEST_F(FourDimFixture, TablesAllocateLazily) {
  const std::size_t initial = queue_.index().tables_allocated();
  EXPECT_EQ(initial, 1u);  // just the root
  queue_.append(posted(0, 1, &reqs_[0]));
  // One path: 3 more interior tables (root already exists).
  EXPECT_EQ(queue_.index().tables_allocated(), 4u);
  // A source sharing the full prefix (same path) allocates nothing new.
  queue_.append(posted(1, 1, &reqs_[1]));
  EXPECT_EQ(queue_.index().tables_allocated(), 4u);
  // A source in a far rank range allocates a fresh path.
  queue_.append(posted(4095, 1, &reqs_[2]));
  EXPECT_EQ(queue_.index().tables_allocated(), 7u);
}

TEST_F(FourDimFixture, MatchesAcrossTriePaths) {
  queue_.append(posted(0, 5, &reqs_[0]));
  queue_.append(posted(511, 5, &reqs_[1]));
  queue_.append(posted(4095, 5, &reqs_[2]));
  EXPECT_EQ(queue_.find_and_remove(Envelope{5, 511, 0})->req, &reqs_[1]);
  EXPECT_EQ(queue_.find_and_remove(Envelope{5, 4095, 0})->req, &reqs_[2]);
  EXPECT_EQ(queue_.find_and_remove(Envelope{5, 0, 0})->req, &reqs_[0]);
  EXPECT_EQ(queue_.size(), 0u);
}

TEST_F(FourDimFixture, SearchForAbsentPathAllocatesNothing) {
  queue_.append(posted(0, 5, &reqs_[0]));
  const std::size_t tables = queue_.index().tables_allocated();
  EXPECT_FALSE(queue_.find_and_remove(Envelope{5, 3000, 0}).has_value());
  EXPECT_EQ(queue_.index().tables_allocated(), tables);
}

TEST_F(FourDimFixture, SelectionInspectsOnlyTheSourceList) {
  for (int i = 0; i < 20; ++i) queue_.append(posted(7, i, &reqs_[i]));
  queue_.append(posted(2000, 3, &reqs_[30]));
  queue_.reset_stats();
  auto hit = queue_.find_and_remove(Envelope{3, 2000, 0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(queue_.stats().entries_inspected, 1u);
}

TEST_F(FourDimFixture, WildcardOrderingAcrossLists) {
  queue_.append(posted(9, 1, &reqs_[0]));
  queue_.append(posted(kAnySource, kAnyTag, &reqs_[1]));
  queue_.append(posted(9, 1, &reqs_[2]));
  EXPECT_EQ(queue_.find_and_remove(Envelope{1, 9, 0})->req, &reqs_[0]);
  EXPECT_EQ(queue_.find_and_remove(Envelope{1, 9, 0})->req, &reqs_[1]);
  EXPECT_EQ(queue_.find_and_remove(Envelope{1, 9, 0})->req, &reqs_[2]);
}

TEST(FourDimMemory, FootprintBeatsFlatArrayAtScaleWithFewSources) {
  // The design goal (paper §5): a process talking to a handful of sources
  // in a huge communicator should not pay O(N) bin-array memory.
  NativeMem mem;
  constexpr std::size_t kComm = 32768;

  memlayout::AddressSpace space;
  auto four_d = QueueConfig::from_label("4d");
  four_d.bins = kComm;
  auto ompi = QueueConfig::from_label("ompi");
  ompi.bins = kComm;
  auto bundle_4d = make_engine(mem, space, four_d);
  auto bundle_ompi = make_engine(mem, space, ompi);

  std::vector<MatchRequest> reqs(12);
  for (int i = 0; i < 12; ++i) {
    reqs[static_cast<std::size_t>(i)] =
        MatchRequest(RequestKind::kRecv, static_cast<std::uint64_t>(i));
    const auto pattern = Pattern::make(i * 100, i, 0);
    bundle_4d->prq().append(
        PostedEntry::from(pattern, &reqs[static_cast<std::size_t>(i)]));
    bundle_ompi->prq().append(
        PostedEntry::from(pattern, &reqs[static_cast<std::size_t>(i)]));
  }
  EXPECT_LT(bundle_4d->prq().footprint_bytes(),
            bundle_ompi->prq().footprint_bytes() / 10);
}

TEST(FourDimLabels, ParseAndPrint) {
  const auto cfg = QueueConfig::from_label("4d-1000");
  EXPECT_EQ(cfg.kind, QueueKind::kFourDim);
  EXPECT_EQ(cfg.bins, 1000u);
  EXPECT_EQ(cfg.label(), "4d-1000");
  EXPECT_EQ(QueueConfig::from_label("fourdim").kind, QueueKind::kFourDim);
}

}  // namespace
}  // namespace semperm::match
