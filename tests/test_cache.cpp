#include "cachesim/cache.hpp"

#include <gtest/gtest.h>

#include "reference_cache.hpp"

namespace semperm::cachesim {
namespace {

// A tiny cache for precise behaviour checks: 4 sets x 2 ways.
SetAssocCache tiny() { return SetAssocCache("t", 4 * 2 * kCacheLine, 2); }

TEST(Cache, GeometryDerivedFromSizeAndAssoc) {
  SetAssocCache c("c", 32 * 1024, 8);
  EXPECT_EQ(c.set_count(), 64u);
  EXPECT_EQ(c.associativity(), 8u);
  EXPECT_EQ(c.size_bytes(), 32u * 1024);
}

TEST(Cache, NonPowerOfTwoSetCountAllowed) {
  // 18-slice Broadwell-style LLC: 45 MiB / 20-way.
  SetAssocCache c("llc", 45ull * 1024 * 1024, 20);
  EXPECT_EQ(c.set_count(), 36864u);
  c.fill(12345, FillReason::kDemand);
  EXPECT_TRUE(c.contains(12345));
}

TEST(Cache, MissThenHit) {
  auto c = tiny();
  EXPECT_FALSE(c.access(100));
  c.fill(100, FillReason::kDemand);
  EXPECT_TRUE(c.access(100));
  EXPECT_EQ(c.stats().demand_misses, 1u);
  EXPECT_EQ(c.stats().demand_hits, 1u);
}

TEST(Cache, LruEvictionOrder) {
  auto c = tiny();
  // Lines 0, 4, 8 all map to set 0 (set = line % 4). Two ways.
  c.fill(0, FillReason::kDemand);
  c.fill(4, FillReason::kDemand);
  c.access(0);  // 0 becomes MRU, 4 is LRU
  const auto evicted = c.fill(8, FillReason::kDemand);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 4u);
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(8));
  EXPECT_FALSE(c.contains(4));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, RefillingResidentLineDoesNotEvict) {
  auto c = tiny();
  c.fill(0, FillReason::kDemand);
  c.fill(4, FillReason::kDemand);
  EXPECT_FALSE(c.fill(0, FillReason::kDemand).has_value());
  EXPECT_TRUE(c.contains(4));
}

TEST(Cache, ContainsDoesNotPerturbLruOrStats) {
  auto c = tiny();
  c.fill(0, FillReason::kDemand);
  c.fill(4, FillReason::kDemand);  // 4 is MRU
  EXPECT_TRUE(c.contains(0));      // must not touch LRU order
  c.fill(8, FillReason::kDemand);
  EXPECT_FALSE(c.contains(0));  // 0 was still LRU
  EXPECT_EQ(c.stats().demand_hits, 0u);
  EXPECT_EQ(c.stats().demand_misses, 0u);
}

TEST(Cache, PrefetchCoverageCountedOnce) {
  auto c = tiny();
  c.fill(3, FillReason::kPrefetch);
  EXPECT_EQ(c.stats().prefetch_fills, 1u);
  EXPECT_TRUE(c.access(3));
  EXPECT_EQ(c.stats().prefetch_hits, 1u);
  EXPECT_TRUE(c.access(3));  // second hit is a plain demand hit
  EXPECT_EQ(c.stats().prefetch_hits, 1u);
}

TEST(Cache, HeaterCoverageCounted) {
  auto c = tiny();
  c.fill(5, FillReason::kHeater);
  EXPECT_EQ(c.stats().heater_fills, 1u);
  EXPECT_TRUE(c.access(5));
  EXPECT_EQ(c.stats().heater_hits, 1u);
}

TEST(Cache, HeaterTouchRefreshesLruAndReason) {
  auto c = tiny();
  c.fill(0, FillReason::kDemand);
  c.fill(4, FillReason::kDemand);  // order: 4 MRU, 0 LRU
  c.fill(0, FillReason::kHeater);  // re-touch 0: now MRU, heater-marked
  c.fill(8, FillReason::kDemand);  // evicts 4
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(4));
}

TEST(Cache, FlushIsTotalAndCheap) {
  auto c = tiny();
  for (Addr line = 0; line < 8; ++line) c.fill(line, FillReason::kDemand);
  c.flush();
  for (Addr line = 0; line < 8; ++line) EXPECT_FALSE(c.contains(line));
  EXPECT_EQ(c.resident_lines(), 0u);
}

TEST(Cache, FillAfterFlushWorks) {
  auto c = tiny();
  c.fill(0, FillReason::kDemand);
  c.flush();
  c.fill(0, FillReason::kDemand);
  EXPECT_TRUE(c.access(0));
}

TEST(Cache, Invalidate) {
  auto c = tiny();
  c.fill(0, FillReason::kDemand);
  c.invalidate(0);
  EXPECT_FALSE(c.contains(0));
  c.invalidate(0);  // idempotent
}

TEST(Cache, PolluteKeepsMruWhenStreamFits) {
  // 2-way sets: a stream of 1 line per set evicts only the LRU way of
  // full sets.
  auto c = tiny();
  c.fill(0, FillReason::kDemand);
  c.fill(4, FillReason::kDemand);  // set 0 full; 0 is LRU
  c.fill(1, FillReason::kDemand);  // set 1 half-full
  c.pollute(4 * kCacheLine);       // 1 line per set
  EXPECT_FALSE(c.contains(0));     // displaced
  EXPECT_TRUE(c.contains(4));      // MRU survives
  EXPECT_TRUE(c.contains(1));      // half-full set keeps its line
}

TEST(Cache, PolluteDegeneratesToFlushForHugeStreams) {
  auto c = tiny();
  c.fill(0, FillReason::kDemand);
  c.fill(1, FillReason::kDemand);
  c.pollute(64 * kCacheLine);  // 16 lines per set >= assoc
  EXPECT_FALSE(c.contains(0));
  EXPECT_FALSE(c.contains(1));
}

TEST(Cache, ResidentLines) {
  auto c = tiny();
  EXPECT_EQ(c.resident_lines(), 0u);
  c.fill(0, FillReason::kDemand);
  c.fill(1, FillReason::kDemand);
  EXPECT_EQ(c.resident_lines(), 2u);
}

TEST(Cache, ResetStats) {
  auto c = tiny();
  c.access(0);
  c.reset_stats();
  EXPECT_EQ(c.stats().demand_misses, 0u);
}

TEST(Cache, HitRate) {
  auto c = tiny();
  c.fill(0, FillReason::kDemand);
  c.access(0);
  c.access(1);
  EXPECT_DOUBLE_EQ(c.stats().hit_rate(), 0.5);
}

// Edge cases of the live counters (dirty lines, lines per fill reason,
// the normal-line pollute bound), each checked against the list-based
// reference cache. The randomized golden test draws a line's class from
// its address, so it never flips a resident line's class; these cover the
// transitions it cannot reach.

using testing::ReferenceSetAssocCache;

// 4 sets x 4 ways, unpartitioned; lines 0, 4, 8, ... share set 0.
constexpr std::size_t kEdgeBytes = 4 * 4 * kCacheLine;
constexpr Addr kEdgeUniverse = 64;

void expect_same(const SetAssocCache& c, const ReferenceSetAssocCache& ref) {
  const CacheStats& a = c.stats();
  const CacheStats& b = ref.stats();
  EXPECT_EQ(a.demand_hits, b.demand_hits);
  EXPECT_EQ(a.demand_misses, b.demand_misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.writebacks, b.writebacks);
  EXPECT_EQ(c.resident_lines(), ref.resident_lines());
  for (const FillReason r :
       {FillReason::kDemand, FillReason::kPrefetch, FillReason::kHeater})
    EXPECT_EQ(c.resident_lines_filled_by(r), ref.resident_lines_filled_by(r));
  for (Addr line = 0; line < kEdgeUniverse; ++line) {
    EXPECT_EQ(c.contains(line), ref.contains(line)) << "line " << line;
    EXPECT_EQ(c.line_dirty(line), ref.line_dirty(line)) << "line " << line;
  }
  c.audit();  // recounts the live counters under SEMPERM_AUDIT
}

TEST(CacheLiveCounters, PolluteDropsNetworkLinesRefilledAsNormal) {
  SetAssocCache c("c", kEdgeBytes, 4);
  ReferenceSetAssocCache ref("ref", kEdgeBytes, 4);
  // Network fills do not raise the normal-line bound...
  for (const Addr line : {0, 4, 8, 12}) {
    c.fill(line, FillReason::kDemand, LineClass::kNetwork);
    ref.fill(line, FillReason::kDemand, LineClass::kNetwork);
  }
  // ...so the hit-path class flip must: set 0 now holds 4 normal lines.
  for (const Addr line : {0, 4, 8, 12}) {
    c.fill(line, FillReason::kPrefetch, LineClass::kNormal);
    ref.fill(line, FillReason::kPrefetch, LineClass::kNormal);
  }
  c.pollute(4 * kCacheLine);  // one line per set: set 0 overflows by one
  ref.pollute(4 * kCacheLine);
  EXPECT_FALSE(c.contains(0));  // the LRU-most refilled line is dropped
  EXPECT_TRUE(c.contains(12));
  EXPECT_EQ(c.resident_lines(), 3u);
  expect_same(c, ref);
}

TEST(CacheLiveCounters, PolluteThatDropsLinesRetightensTheBound) {
  SetAssocCache c("c", kEdgeBytes, 4);
  ReferenceSetAssocCache ref("ref", kEdgeBytes, 4);
  for (Addr line = 0; line < 16; ++line) {  // every set full
    c.fill_line(line, FillReason::kDemand, LineClass::kNormal, line % 3 == 0);
    ref.fill_line(line, FillReason::kDemand, LineClass::kNormal,
                  line % 3 == 0);
  }
  c.pollute(8 * kCacheLine);  // two lines per set: drops two of each
  ref.pollute(8 * kCacheLine);
  EXPECT_EQ(c.resident_lines(), 8u);
  expect_same(c, ref);

  // Every set now holds two lines: an identical pollute changes nothing.
  const CacheStats before = c.stats();
  c.pollute(8 * kCacheLine);
  ref.pollute(8 * kCacheLine);
  EXPECT_EQ(c.stats().writebacks, before.writebacks);
  EXPECT_EQ(c.stats().evictions, before.evictions);
  EXPECT_EQ(c.resident_lines(), 8u);
  expect_same(c, ref);

  // A fill raises the tightened bound again: set 1 overflows once more.
  c.fill(17, FillReason::kDemand);
  ref.fill(17, FillReason::kDemand);
  c.pollute(8 * kCacheLine);
  ref.pollute(8 * kCacheLine);
  EXPECT_EQ(c.resident_lines(), 8u);
  expect_same(c, ref);
}

TEST(CacheLiveCounters, DirtyLinesLeavingEveryWayAreWrittenBackOnce) {
  SetAssocCache c("c", kEdgeBytes, 4);
  ReferenceSetAssocCache ref("ref", kEdgeBytes, 4);
  const auto both = [&](auto&& op) {
    op(c);
    op(ref);
    expect_same(c, ref);
  };
  // Set 0: four dirty lines, dirtied by each clean->dirty path; a second
  // mark of an already-dirty line must not count twice.
  both([](auto& x) {
    x.fill_line(0, FillReason::kDemand, LineClass::kNormal, true);
    x.fill(4, FillReason::kDemand);
    x.mark_dirty(4);
    x.mark_dirty(4);
    x.fill(8, FillReason::kHeater);
    x.fill_line(8, FillReason::kDemand, LineClass::kNormal, true);
    x.fill_line(12, FillReason::kPrefetch, LineClass::kNormal, true);
    x.fill_line(12, FillReason::kPrefetch, LineClass::kNormal, true);
  });
  EXPECT_EQ(c.stats().writebacks, 0u);
  both([](auto& x) { x.fill(16, FillReason::kDemand); });  // evicts dirty 0
  EXPECT_EQ(c.stats().writebacks, 1u);
  both([](auto& x) { x.invalidate(4); });
  EXPECT_EQ(c.stats().writebacks, 2u);
  both([](auto& x) { x.invalidate(4); });  // already gone
  EXPECT_EQ(c.stats().writebacks, 2u);
  both([](auto& x) { x.fill(20, FillReason::kDemand); });  // set 0 full again
  both([](auto& x) { x.pollute(4 * kCacheLine); });        // drops dirty 8
  EXPECT_EQ(c.stats().writebacks, 3u);
  both([](auto& x) { x.flush(); });  // dirty 12 is the last one
  EXPECT_EQ(c.stats().writebacks, 4u);
  both([](auto& x) { x.flush(); });  // nothing left to write back
  EXPECT_EQ(c.stats().writebacks, 4u);
}

// fill_missed is fill_line without the residency walk: on a stream of
// access-then-fill-on-miss it must leave every statistic, eviction and
// way identical to fill_line, dirty victims included.
TEST(CacheFillMissed, MatchesFillLineAfterEveryMiss) {
  SetAssocCache a("a", kEdgeBytes, 4);
  SetAssocCache b("b", kEdgeBytes, 4);
  std::uint64_t x = 12345;
  for (int i = 0; i < 4000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const Addr line = (x >> 33) % kEdgeUniverse;
    const bool dirty = ((x >> 20) & 7) == 0;
    const bool hit = a.access(line);
    ASSERT_EQ(hit, b.access(line));
    if (hit) continue;
    const auto ea = a.fill_line(line, FillReason::kDemand, LineClass::kNormal,
                                dirty);
    const auto eb = b.fill_missed(line, FillReason::kDemand,
                                  LineClass::kNormal, dirty);
    ASSERT_EQ(ea.has_value(), eb.has_value()) << "access " << i;
    if (ea) {
      EXPECT_EQ(ea->line, eb->line);
      EXPECT_EQ(ea->dirty, eb->dirty);
    }
  }
  EXPECT_EQ(a.stats().evictions, b.stats().evictions);
  EXPECT_EQ(a.stats().writebacks, b.stats().writebacks);
  EXPECT_EQ(a.stats().demand_misses, b.stats().demand_misses);
  for (Addr line = 0; line < kEdgeUniverse; ++line) {
    EXPECT_EQ(a.contains(line), b.contains(line)) << line;
    EXPECT_EQ(a.line_dirty(line), b.line_dirty(line)) << line;
  }
  b.audit();
}

// The peer bit is stored, carried and reported, never interpreted: it
// rides through hits and refreshes, leaves with its way, and starts clear
// on every fill that does not ask for it.
TEST(CachePeerBit, TravelsWithItsWay) {
  auto c = tiny();  // 4 sets x 2 ways; lines 0, 4, 8 share set 0
  EXPECT_FALSE(c.set_peer(0, true));  // absent: nothing to mark
  EXPECT_EQ(c.peer_bit(0), std::nullopt);
  c.fill_missed(0, FillReason::kDemand, LineClass::kNormal, /*dirty=*/false,
                /*peer=*/true);
  EXPECT_EQ(c.peer_bit(0), true);
  c.fill(4, FillReason::kDemand);
  EXPECT_EQ(c.peer_bit(4), false);
  EXPECT_TRUE(c.access(0));  // LRU move keeps the bit
  c.fill(0, FillReason::kHeater);  // a refresh keeps it too
  EXPECT_EQ(c.peer_bit(0), true);
  EXPECT_TRUE(c.mark_dirty(0));
  EXPECT_EQ(c.peer_bit(0), true);
  EXPECT_TRUE(c.line_dirty(0));

  // Line 0 is MRU; 4 is evicted first, then 0 carries its bit out.
  auto ev = c.fill_line(8, FillReason::kDemand);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line, 4u);
  EXPECT_FALSE(ev->peer);
  ev = c.fill_line(12, FillReason::kDemand);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line, 0u);
  EXPECT_TRUE(ev->peer);
  EXPECT_TRUE(ev->dirty);

  // set_peer flips only the bit: no hit, miss or LRU change.
  const CacheStats before = c.stats();
  EXPECT_TRUE(c.set_peer(8, true));
  EXPECT_EQ(c.peer_bit(8), true);
  EXPECT_TRUE(c.set_peer(8, false));
  EXPECT_EQ(c.peer_bit(8), false);
  EXPECT_EQ(c.stats().demand_hits, before.demand_hits);
  EXPECT_EQ(c.stats().demand_misses, before.demand_misses);
  ev = c.fill_line(16, FillReason::kDemand);  // 8 is still the LRU way
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line, 8u);

  // An invalidated or flushed way loses the bit with its line.
  c.set_peer(12, true);
  c.invalidate(12);
  EXPECT_EQ(c.peer_bit(12), std::nullopt);
  c.fill_line_if_absent(12, FillReason::kPrefetch, LineClass::kNormal,
                        /*dirty=*/false, /*peer=*/true);
  EXPECT_EQ(c.peer_bit(12), true);
  c.flush();
  EXPECT_EQ(c.peer_bit(12), std::nullopt);
  c.fill(12, FillReason::kDemand);
  EXPECT_EQ(c.peer_bit(12), false);
  c.audit();
}

TEST(Cache, InvalidGeometryRejected) {
  EXPECT_THROW(SetAssocCache("bad", 100, 2), std::logic_error);   // not multiple
  EXPECT_THROW(SetAssocCache("bad", 1024, 0), std::logic_error);  // zero ways
}

}  // namespace
}  // namespace semperm::cachesim
