// LineMap, the coherence directory's line-group hash map, replayed against
// std::unordered_map: random insert/find/erase/clear sequences (with
// growth from a small table) on three key shapes, plus the backward-shift
// deletion of group records at the highest load the table allows.

#include "coherence/line_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <unordered_map>
#include <vector>

namespace semperm::coherence {
namespace {

// DirEntry-shaped payload.
struct Value {
  std::uint64_t tag = 0;
  int owner = -1;
  bool dirty = false;
};

using Map = LineMap<Value>;
using KeyGen = std::function<Addr(std::mt19937_64&)>;

// The oracle: line -> tag, plus the live lines in a vector (with each
// line's index) so an erase can pick a present line uniformly.
class Oracle {
 public:
  bool contains(Addr line) const { return tags_.count(line) != 0; }
  void set(Addr line, std::uint64_t tag) {
    if (tags_.emplace(line, tag).second) {
      pos_[line] = lines_.size();
      lines_.push_back(line);
    } else {
      tags_[line] = tag;
    }
  }
  void erase(Addr line) {
    const std::size_t i = pos_.at(line);
    pos_[lines_.back()] = i;
    lines_[i] = lines_.back();
    lines_.pop_back();
    pos_.erase(line);
    tags_.erase(line);
  }
  void clear() {
    tags_.clear();
    pos_.clear();
    lines_.clear();
  }
  const std::unordered_map<Addr, std::uint64_t>& tags() const {
    return tags_;
  }
  const std::vector<Addr>& lines() const { return lines_; }

 private:
  std::unordered_map<Addr, std::uint64_t> tags_;
  std::unordered_map<Addr, std::size_t> pos_;
  std::vector<Addr> lines_;
};

// Every live line is found with its value, absent neighbours are not,
// and iteration visits exactly the live set, each line once.
void expect_same(const Map& m, const Oracle& ref) {
  std::unordered_map<Addr, std::uint64_t> seen;
  for (const auto& [line, v] : m)
    EXPECT_TRUE(seen.emplace(line, v.tag).second)
        << "line " << line << " visited twice";
  EXPECT_EQ(seen, ref.tags());
  for (const auto& [line, tag] : ref.tags()) {
    const auto it = m.find(line);
    ASSERT_NE(it, m.end()) << "line " << line << " lost";
    EXPECT_EQ(it->first, line);
    EXPECT_EQ(it->second.tag, tag);
    // The neighbour shares the group record in all but the edge case;
    // its bit must answer for it alone.
    const Addr next = line ^ 1;
    EXPECT_EQ(m.find(next) != m.end(), ref.contains(next));
  }
}

void replay(const KeyGen& gen, std::uint64_t seed, int ops) {
  std::mt19937_64 rng(seed);
  Map m(16);  // the smallest table: the replay grows it several times
  Oracle ref;
  for (int op = 0; op < ops; ++op) {
    const auto roll = rng() % 1000;
    if (roll < 500) {
      const Addr line = gen(rng);
      const std::uint64_t tag = rng();
      Value& v = m[line];
      if (!ref.contains(line)) {
        // A fresh line starts value-initialised, even in a reused slot.
        EXPECT_EQ(v.tag, 0u);
        EXPECT_EQ(v.owner, -1);
      }
      v.tag = tag;
      ref.set(line, tag);
    } else if (roll < 750) {
      const Addr line = gen(rng);
      const auto it = m.find(line);
      ASSERT_EQ(it != m.end(), ref.contains(line)) << "line " << line;
      if (it != m.end()) {
        EXPECT_EQ(it->second.tag, ref.tags().at(line));
      }
    } else if (roll < 999) {
      if (ref.lines().empty()) continue;
      const Addr line = ref.lines()[rng() % ref.lines().size()];
      const auto it = m.find(line);
      ASSERT_NE(it, m.end());
      m.erase(it);
      ref.erase(line);
      EXPECT_EQ(m.find(line), m.end());
    } else {
      m.clear();
      ref.clear();
    }
    if (op % 512 == 0) expect_same(m, ref);
  }
  expect_same(m, ref);
  // Drain through erase alone: every group record is freed again.
  while (!ref.lines().empty()) {
    const Addr line = ref.lines().back();
    m.erase(m.find(line));
    ref.erase(line);
  }
  expect_same(m, ref);
  EXPECT_EQ(m.begin(), m.end());
}

TEST(LineMap, MatchesUnorderedMapOnOneDenseRun) {
  const KeyGen dense = [](std::mt19937_64& rng) {
    return Addr{3000} + rng() % 4096;
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) replay(dense, seed, 40000);
}

TEST(LineMap, MatchesUnorderedMapOnCoherentMixShape) {
  // bench_selfperf's coherent_4core_mix: four private 1024-line regions
  // 4096 lines apart plus a 512-line shared region at 1 << 20.
  const KeyGen mix = [](std::mt19937_64& rng) {
    const std::uint64_t h = rng();
    if ((h & 3) == 0) return (Addr{1} << 20) + (h >> 3) % 512;
    return Addr{4096} * ((h >> 2) % 4) + (h >> 8) % 1024;
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) replay(mix, seed, 40000);
}

TEST(LineMap, MatchesUnorderedMapOnRandom58BitLines) {
  // Pairs of lines, so groups mostly hold one or two live lines.
  const KeyGen random = [last = Addr{0}](std::mt19937_64& rng) mutable {
    last = (rng() % 2 == 0) ? last ^ 1 : rng() & ((Addr{1} << 58) - 1);
    return last;
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) replay(random, seed, 40000);
}

TEST(LineMap, EveryLineOfAGroupIsIndependent) {
  Map m;
  for (Addr line = 32; line < 48; ++line) m[line].tag = line;
  // Erasing every other line keeps the record; the rest stay findable.
  for (Addr line = 32; line < 48; line += 2) m.erase(m.find(line));
  for (Addr line = 32; line < 48; ++line) {
    const auto it = m.find(line);
    if (line % 2 == 0) {
      EXPECT_EQ(it, m.end()) << line;
    } else {
      ASSERT_NE(it, m.end()) << line;
      EXPECT_EQ(it->second.tag, line);
    }
  }
  // The neighbouring groups were never touched.
  EXPECT_EQ(m.find(31), m.end());
  EXPECT_EQ(m.find(48), m.end());
  std::vector<Addr> seen;
  for (const auto& [line, v] : m) seen.push_back(line);
  EXPECT_EQ(seen, (std::vector<Addr>{33, 35, 37, 39, 41, 43, 45, 47}));
}

TEST(LineMap, BackwardShiftKeepsChainsAtFullLoad) {
  // 12 groups fill a 16-slot table to its 3/4 growth threshold, so probe
  // chains form (and wrap) on most key sets. Emptying a group frees its
  // record by backward shift; every other line must stay findable after
  // each removal, whatever the removal order.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    Map m(16);
    Oracle ref;
    std::vector<Addr> groups;
    while (groups.size() < 12) {
      const Addr g = rng() & ((Addr{1} << 40) - 1);
      bool fresh = true;
      for (const Addr h : groups) fresh = fresh && h != g;
      if (!fresh) continue;
      groups.push_back(g);
      // One to three live lines per group.
      for (unsigned k = 0, n = 1 + rng() % 3; k < n; ++k) {
        const Addr line = g * Map::kGroupLines + rng() % Map::kGroupLines;
        m[line].tag = line + 1;
        ref.set(line, line + 1);
      }
    }
    expect_same(m, ref);
    std::shuffle(groups.begin(), groups.end(), rng);
    for (const Addr g : groups) {
      for (Addr b = 0; b < Map::kGroupLines; ++b) {
        const Addr line = g * Map::kGroupLines + b;
        if (!ref.contains(line)) continue;
        m.erase(m.find(line));
        ref.erase(line);
      }
      expect_same(m, ref);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(LineMap, ClearKeepsTheMapUsable) {
  Map m(16);
  for (Addr line = 0; line < 4000; line += 3) m[line].tag = line;
  m.clear();
  EXPECT_EQ(m.begin(), m.end());
  EXPECT_EQ(m.find(3), m.end());
  m[3].tag = 9;
  ASSERT_NE(m.find(3), m.end());
  EXPECT_EQ(m.find(3)->second.tag, 9u);
  auto it = m.begin();
  EXPECT_EQ(++it, m.end());  // line 3 is the only one left
}

}  // namespace
}  // namespace semperm::coherence
