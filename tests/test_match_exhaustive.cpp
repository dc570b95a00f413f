// Bounded exhaustive check of the matching protocol over every queue kind.
//
// Every sequence of kDepth operations is replayed on a fresh engine:
//  * post a receive: source 0, 1 or ANY, tag 0 or ANY;
//  * deliver a message: source 0 or 1, tag 0 or 1;
//  * probe the unexpected queue with any of the receive patterns.
// Each result (which request matched, what the probe saw) is compared with
// ReferenceEngine, the engine is audited after every step, and every
// result plus both queues' SearchStats fold into one FNV-1a fingerprint
// per kind, pinned below. The reference pins *what* matches; the
// fingerprint also pins how many entries each structure inspected and
// scanned to find it, so a refactor of a search loop cannot change either
// unnoticed.
//
// Every kind gets two bins, so the binned structures hit their edge cases:
// one per-source bin per source, two hash bins for four concrete keys
// (collisions), and a base-2 trie.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "match/factory.hpp"
#include "tests/match_reference.hpp"

namespace semperm::match {
namespace {

using testing::ReferenceEngine;

// Depth 3 over 16 operations is 4,096 sequences per kind and keeps the
// file to about 2 s in a Debug ASan+UBSan build; depth 4 took 37 s there.
constexpr unsigned kDepth = 3;

struct Op {
  enum Kind : std::uint8_t { kPost, kArrive, kProbe };
  Kind kind;
  std::int32_t source;
  std::int32_t tag;
};

std::vector<Op> all_ops() {
  std::vector<Op> ops;
  for (Op::Kind kind : {Op::kPost, Op::kProbe})
    for (std::int32_t source : {0, 1, kAnySource})
      for (std::int32_t tag : {0, kAnyTag}) ops.push_back({kind, source, tag});
  for (std::int32_t source : {0, 1})
    for (std::int32_t tag : {0, 1}) ops.push_back({Op::kArrive, source, tag});
  return ops;
}

std::string describe(const std::vector<Op>& ops,
                     const std::vector<unsigned>& seq, std::size_t upto) {
  static const char* const kNames[] = {"post", "arrive", "probe"};
  auto field = [](std::int32_t v) {
    return v < 0 ? std::string("*") : std::to_string(v);
  };
  std::ostringstream os;
  for (std::size_t i = 0; i <= upto && i < seq.size(); ++i) {
    const Op& op = ops[seq[i]];
    os << (i ? " " : "") << kNames[op.kind] << "(" << field(op.source) << ","
       << field(op.tag) << ")";
  }
  return os.str();
}

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const SearchStats& s) {
    for (std::uint64_t v : {s.searches, s.found, s.entries_inspected,
                            s.slots_scanned, s.appends, s.removals})
      add(v);
  }
};

struct Kind {
  const char* label;
  std::uint64_t fingerprint;
};

QueueConfig config_for(const Kind& kind) {
  QueueConfig cfg = QueueConfig::from_label(kind.label);
  cfg.bins = 2;
  cfg.arena_bytes = 64 * 1024;
  return cfg;
}

class MatchExhaustive : public ::testing::TestWithParam<Kind> {};

TEST_P(MatchExhaustive, EverySequenceAgreesWithReferenceEngine) {
  const QueueConfig cfg = config_for(GetParam());
  const std::vector<Op> ops = all_ops();
  Fnv1a fp;
  std::uint64_t matches = 0;
  std::uint64_t probe_hits = 0;
  std::vector<unsigned> seq(kDepth, 0);
  for (;;) {
    NativeMem mem;
    memlayout::AddressSpace space;
    auto bundle = make_engine(mem, space, cfg);
    ReferenceEngine reference;
    std::array<MatchRequest, kDepth> reqs{};
    // Request i+1 is folded for reqs[i]; 0 means "no request".
    auto id = [&](const MatchRequest* r) -> std::uint64_t {
      return r == nullptr ? 0 : static_cast<std::uint64_t>(r - reqs.data()) + 1;
    };
    for (std::size_t i = 0; i < kDepth; ++i) {
      const Op& op = ops[seq[i]];
      try {
        if (op.kind == Op::kProbe) {
          const Pattern pattern = Pattern::make(op.source, op.tag, 0);
          const auto got = bundle->probe(pattern);
          const auto want = reference.probe(pattern);
          ASSERT_EQ(got, want) << cfg.label() << " [" << describe(ops, seq, i)
                               << "]";
          fp.add(got.has_value());
          if (got) {
            fp.add(static_cast<std::uint64_t>(got->rank));
            fp.add(static_cast<std::uint64_t>(got->tag));
            ++probe_hits;
          }
        } else {
          MatchRequest* req = &reqs[i];
          MatchRequest* got = nullptr;
          MatchRequest* want = nullptr;
          if (op.kind == Op::kPost) {
            *req = MatchRequest(RequestKind::kRecv, i);
            const Pattern pattern = Pattern::make(op.source, op.tag, 0);
            got = bundle->post_recv(pattern, req);
            want = reference.post_recv(pattern, req);
          } else {
            *req = MatchRequest(RequestKind::kUnexpected, i);
            const Envelope env{op.tag, static_cast<std::int16_t>(op.source),
                               0};
            got = bundle->incoming(env, req);
            want = reference.incoming(env, req);
          }
          ASSERT_EQ(id(got), id(want))
              << cfg.label() << " [" << describe(ops, seq, i) << "]";
          fp.add(id(got));
          if (got != nullptr) ++matches;
        }
        bundle->audit();
      } catch (const check::AuditError& e) {
        FAIL() << cfg.label() << " [" << describe(ops, seq, i)
               << "]: " << e.what();
      }
      ASSERT_EQ(bundle->prq().size(), reference.prq_size())
          << cfg.label() << " [" << describe(ops, seq, i) << "]";
      ASSERT_EQ(bundle->umq().size(), reference.umq_size())
          << cfg.label() << " [" << describe(ops, seq, i) << "]";
      fp.add(bundle->prq().stats());
      fp.add(bundle->umq().stats());
    }
    // Odometer step to the next sequence.
    std::size_t d = 0;
    while (d < kDepth && ++seq[d] == ops.size()) seq[d++] = 0;
    if (d == kDepth) break;
  }
  EXPECT_GT(matches, 0u);
  EXPECT_GT(probe_hits, 0u);
  EXPECT_EQ(fp.h, GetParam().fingerprint)
      << cfg.label() << std::hex << " fingerprint 0x" << fp.h;
}

// The kinds test_engine_property covers. Within three steps no LLA node
// holds a hole, and two sources give the trie one leaf per source, so the
// LLA kinds fold like the list and 4d like ompi.
INSTANTIATE_TEST_SUITE_P(
    Kinds, MatchExhaustive,
    ::testing::Values(Kind{"baseline", 0xed1bc11a860d4584ULL},
                      Kind{"lla-2", 0xed1bc11a860d4584ULL},
                      Kind{"lla-8", 0xed1bc11a860d4584ULL},
                      Kind{"ompi", 0xd8a1b999ef548944ULL},
                      Kind{"hash-2", 0xf564a817cfc2c184ULL},
                      Kind{"4d", 0xd8a1b999ef548944ULL}),
    [](const auto& info) {
      std::string name = info.param.label;
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace semperm::match
