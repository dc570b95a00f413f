// Bounded exhaustive check of the MESI protocol in CoherentHierarchy.
//
// Every sequence of kDepth operations over kCores cores and kLines lines
// (read or write from any core, plus a heater touch of any line when the
// profile has an LLC) is replayed from a fresh hierarchy, with a full
// audit() after every step, so a protocol bug reachable within kDepth
// steps cannot hide behind random sampling.
//
// Two families of tiny profiles:
//  * Aliasing: 1-2 set, 2-way private levels (and a 2-set LLC) with the
//    architecture's prefetchers on, so the three lines conflict, evict,
//    back-invalidate and leak around the LLC through the L1 prefetcher.
//    There is no simple oracle for that, so every step's MESI states,
//    coherence counters and per-core cycles fold into one FNV-1a
//    fingerprint pinned below: any behaviour change moves it.
//  * Non-aliasing: every level holds all lines and the prefetchers are
//    off, so nothing is ever evicted and each line follows textbook MESI.
//    There every state(c, l) is compared against RefMesi, a per-line
//    model written from the protocol definition.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cachesim/arch.hpp"
#include "check/audit.hpp"
#include "coherence/coherent_hierarchy.hpp"
#include "coherence/mesi.hpp"

namespace semperm::coherence {
namespace {

using cachesim::ArchProfile;

// Two cores at depth 3 keep the file to a few seconds in a Debug
// ASan+UBSan build, and every protocol counter is still reached (the
// aliasing test asserts so); each extra core or step multiplies the
// sequence count by the number of operations (12-15).
constexpr unsigned kCores = 2;
constexpr Addr kLines = 3;
constexpr unsigned kDepth = 3;
// Prefetchers (streamer degree 4) reach a few lines past the universe;
// the fingerprint folds their states too.
constexpr Addr kFoldLines = kLines + 5;

struct Op {
  enum Kind : std::uint8_t { kRead, kWrite, kHeat };
  Kind kind;
  unsigned core;
  Addr line;
};

std::string describe(const std::vector<Op>& ops,
                     const std::vector<unsigned>& seq, std::size_t upto) {
  static const char* const kNames[] = {"R", "W", "H"};
  std::ostringstream os;
  for (std::size_t i = 0; i <= upto && i < seq.size(); ++i) {
    const Op& op = ops[seq[i]];
    os << (i ? " " : "") << kNames[op.kind] << op.core << ":" << op.line;
  }
  return os.str();
}

/// Every operation of one step. Heater touches come from the last core.
std::vector<Op> all_ops(bool heater) {
  std::vector<Op> ops;
  for (unsigned c = 0; c < kCores; ++c)
    for (Addr l = 0; l < kLines; ++l) {
      ops.push_back({Op::kRead, c, l});
      ops.push_back({Op::kWrite, c, l});
    }
  if (heater)
    for (Addr l = 0; l < kLines; ++l)
      ops.push_back({Op::kHeat, kCores - 1, l});
  return ops;
}

/// `base` shrunk to 2-way private levels (L1 one set, L2 two sets) and,
/// when `llc`, a 2-set 2-way LLC; the latencies and prefetch settings
/// stay the preset's.
ArchProfile aliasing(ArchProfile base, bool llc) {
  base.l1 = {1 * 2 * kCacheLine, 2, base.l1.hit_latency};
  base.l2 = {2 * 2 * kCacheLine, 2, base.l2.hit_latency};
  base.l3 = llc ? cachesim::LevelConfig{2 * 2 * kCacheLine, 2,
                                        base.l3.hit_latency}
                : cachesim::LevelConfig{0, 0, 0};
  return base;
}

/// `base` with every level one 4-way set (all lines fit) and no prefetch.
ArchProfile roomy(ArchProfile base, bool llc) {
  base.l1 = {4 * kCacheLine, 4, base.l1.hit_latency};
  base.l2 = {4 * kCacheLine, 4, base.l2.hit_latency};
  base.l3 = llc ? cachesim::LevelConfig{4 * kCacheLine, 4,
                                        base.l3.hit_latency}
                : cachesim::LevelConfig{0, 0, 0};
  base.prefetch.l1_next_line = false;
  base.prefetch.l2_adjacent_pair = false;
  base.prefetch.l2_streamer = false;
  return base;
}

/// Textbook MESI, one state per (line, core), no capacity effects.
struct RefMesi {
  using S = MesiState;
  std::array<std::array<S, kCores>, kLines> st{};  // all kInvalid

  void apply(const Op& op) {
    auto& row = st[op.line];
    if (op.kind == Op::kHeat) {
      // The heater's LLC read pulls a remote Modified copy back to Shared.
      for (unsigned o = 0; o < kCores; ++o)
        if (o != op.core && row[o] == S::kModified) row[o] = S::kShared;
    } else if (op.kind == Op::kWrite) {
      for (auto& s : row) s = S::kInvalid;
      row[op.core] = S::kModified;
    } else if (row[op.core] == S::kInvalid) {
      bool others = false;
      for (unsigned o = 0; o < kCores; ++o) {
        if (o == op.core || row[o] == S::kInvalid) continue;
        others = true;
        row[o] = S::kShared;  // E/M observe the read; S stays S
      }
      row[op.core] = others ? S::kShared : S::kExclusive;
    }
  }
};

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

Cycles apply(CoherentHierarchy& h, const Op& op) {
  switch (op.kind) {
    case Op::kRead: return h.access_line(op.core, op.line, false);
    case Op::kWrite: return h.access_line(op.core, op.line, true);
    case Op::kHeat: return h.heater_touch_line(op.core, op.line).cycles;
  }
  return 0;
}

void fold_step(Fnv1a& f, const CoherentHierarchy& h, Cycles cost) {
  f.add(cost);
  for (unsigned c = 0; c < kCores; ++c) {
    for (Addr l = 0; l < kFoldLines; ++l)
      f.add(static_cast<std::uint64_t>(h.state(c, l)));
    f.add(h.core_stats(c).total_cycles);
  }
  const CoherenceStats& s = h.coherence_stats();
  for (std::uint64_t v :
       {s.snoops, s.invalidations, s.interventions, s.clean_downgrades,
        s.upgrades, s.dirty_writebacks, s.back_invalidations,
        s.lock_transfers})
    f.add(v);
}

/// Replays every kDepth-long sequence over `ops` on a fresh `arch`
/// hierarchy, auditing after each step and, with `check_ref`, comparing
/// every state against RefMesi. Folds all steps into `fp` and sums the
/// final coherence counters of every sequence into `events`.
void enumerate(const ArchProfile& arch, bool check_ref, Fnv1a& fp,
               CoherenceStats& events) {
  const std::vector<Op> ops = all_ops(arch.l3.present());
  std::vector<unsigned> seq(kDepth, 0);
  for (;;) {
    CoherentHierarchy h(arch, kCores);
    RefMesi ref;
    for (std::size_t i = 0; i < kDepth; ++i) {
      const Op& op = ops[seq[i]];
      Cycles cost = 0;
      try {
        cost = apply(h, op);  // audit builds check the touched line here
        h.audit();
      } catch (const check::AuditError& e) {
        FAIL() << arch.name << " [" << describe(ops, seq, i)
               << "]: " << e.what();
      }
      fold_step(fp, h, cost);
      if (!check_ref) continue;
      ref.apply(op);
      for (Addr l = 0; l < kLines; ++l)
        for (unsigned c = 0; c < kCores; ++c)
          ASSERT_EQ(h.state(c, l), ref.st[l][c])
              << arch.name << " [" << describe(ops, seq, i) << "] core " << c
              << " line " << l;
    }
    events += h.coherence_stats();
    // Odometer step to the next sequence.
    std::size_t d = 0;
    while (d < kDepth && ++seq[d] == ops.size()) seq[d++] = 0;
    if (d == kDepth) return;
  }
}

TEST(CoherenceExhaustive, AliasingSequencesMatchPinnedFingerprint) {
  Fnv1a fp;
  CoherenceStats llc_events;
  CoherenceStats knl_events;
  enumerate(aliasing(cachesim::sandy_bridge(), true), false, fp, llc_events);
  enumerate(aliasing(cachesim::knl(), false), false, fp, knl_events);
  // The enumeration reaches every protocol path, not just the easy ones.
  for (const CoherenceStats* s : {&llc_events, &knl_events}) {
    EXPECT_GT(s->invalidations, 0u);
    EXPECT_GT(s->interventions, 0u);
    EXPECT_GT(s->clean_downgrades, 0u);
    EXPECT_GT(s->upgrades, 0u);
    EXPECT_GT(s->dirty_writebacks, 0u);
  }
  EXPECT_GT(llc_events.back_invalidations, 0u);
  EXPECT_EQ(fp.h, 0xa37f7086081b56edULL)
      << std::hex << "fingerprint 0x" << fp.h;
}

TEST(CoherenceExhaustive, NonAliasingMatchesReferenceModel) {
  Fnv1a fp;
  CoherenceStats events;
  enumerate(roomy(cachesim::sandy_bridge(), true), true, fp, events);
  enumerate(roomy(cachesim::knl(), false), true, fp, events);
  EXPECT_GT(events.clean_downgrades, 0u);
  EXPECT_EQ(events.back_invalidations, 0u);  // nothing ever aliases
}

}  // namespace
}  // namespace semperm::coherence
