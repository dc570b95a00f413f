// Bounded exhaustive check of the degradation ladder (DESIGN.md §17.3).
//
// Every sequence of kDepth health checks over {healthy, queue-hot,
// miss-hot} is replayed on a fresh DegradationManager. After every check
// the manager's level, probation flag, check counts, escalations,
// recoveries, probation re-escalations and per-level dwell are compared
// with ReferenceLadder, a direct transcription of the ladder's rules kept
// here. The observed states fold into one FNV-1a fingerprint per config,
// pinned below, so a rewrite of the ladder cannot move any edge unnoticed.
//
// The three signal values sit exactly on the thresholds: queue-hot is a
// depth equal to the watermark, miss-hot an EWMA equal to miss_rate_high,
// and healthy is one step below both. The clock advances by 1, 2, 3, ...
// so each level's dwell is a distinct sum.
//
// The configs are small enough that nine checks reach every edge: the climb
// to L3 with a broken and an unbroken streak, probation armed on leaving
// L3, the single-check snap back to L3 from L2 and from L1, and an
// unhealthy check right after probation closes that must start a streak
// instead of snapping.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "resilience/degradation.hpp"

namespace semperm::resilience {
namespace {

// 3^9 = 19,683 sequences per config: the three configs take about 1 s in
// a Debug ASan+UBSan build, and depth 10 took 3 s there.
constexpr unsigned kDepth = 9;

enum Signal : unsigned { kHealthy, kQueueHot, kMissHot, kSignalCount };

constexpr std::size_t kWatermark = 8;

HealthSignals signals_for(Signal s, const DegradationConfig& cfg) {
  HealthSignals h;
  h.queue_high_watermark = kWatermark;
  h.queue_depth = s == kQueueHot ? kWatermark : kWatermark - 1;
  h.miss_rate_ewma = s == kMissHot ? cfg.miss_rate_high
                                   : std::nextafter(cfg.miss_rate_high, 0.0);
  return h;
}

/// The ladder's rules, one check at a time:
///  * dwell: the interval since the previous check belongs to the level
///    in force across it (the first check has no interval);
///  * degrade_after_checks unhealthy checks in a row climb one level
///    (the streak restarts at the top too, without a climb);
///  * recover_after_checks healthy checks in a row step down one level;
///  * stepping down from L3 opens probation_checks of probation; each
///    healthy check uses one up, and an unhealthy check inside it jumps
///    straight to L3 and closes it.
struct ReferenceLadder {
  DegradationConfig cfg;
  int level = 0;
  std::uint32_t unhealthy_run = 0;
  std::uint32_t healthy_run = 0;
  std::uint32_t probation = 0;
  std::uint64_t checks = 0;
  std::uint64_t unhealthy_checks = 0;
  std::uint64_t escalations = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t reescalations = 0;
  std::uint64_t dwell[kLevels] = {};
  std::uint64_t last = 0;

  void check(std::uint64_t now, bool unhealthy) {
    ++checks;
    if (last != 0) dwell[level] += now - last;
    last = now;
    if (unhealthy) {
      ++unhealthy_checks;
      healthy_run = 0;
      if (probation > 0) {
        probation = 0;
        unhealthy_run = 0;
        level = kLevels - 1;
        ++escalations;
        ++reescalations;
      } else if (++unhealthy_run == cfg.degrade_after_checks) {
        unhealthy_run = 0;
        if (level < kLevels - 1) {
          ++level;
          ++escalations;
        }
      }
      return;
    }
    unhealthy_run = 0;
    if (probation > 0) --probation;
    if (++healthy_run == cfg.recover_after_checks) {
      healthy_run = 0;
      if (level > 0) {
        if (level == kLevels - 1) probation = cfg.probation_checks;
        --level;
        ++recoveries;
      }
    }
  }
};

/// Everything compared after a check, from the manager or the model.
struct Observed {
  int returned_level = 0;  // check_once's result
  int level = 0;           // level() and stats().level
  bool probation = false;
  std::uint64_t checks = 0;
  std::uint64_t unhealthy_checks = 0;
  std::uint64_t escalations = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t reescalations = 0;
  std::uint64_t dwell[kLevels] = {};

  bool operator==(const Observed&) const = default;

  static Observed of(const ReferenceLadder& r) {
    Observed o;
    o.returned_level = r.level;
    o.level = r.level;
    o.probation = r.probation > 0;
    o.checks = r.checks;
    o.unhealthy_checks = r.unhealthy_checks;
    o.escalations = r.escalations;
    o.recoveries = r.recoveries;
    o.reescalations = r.reescalations;
    for (int l = 0; l < kLevels; ++l) o.dwell[l] = r.dwell[l];
    return o;
  }

  static Observed of(int returned, const DegradationManager& mgr) {
    const DegradationStats s = mgr.stats();
    Observed o;
    o.returned_level = returned;
    // level() and stats().level must agree; a mismatch shows as -1.
    o.level = mgr.level() == s.level ? s.level : -1;
    o.probation = mgr.on_probation();
    o.checks = s.checks;
    o.unhealthy_checks = s.unhealthy_checks;
    o.escalations = s.escalations;
    o.recoveries = s.recoveries;
    o.reescalations = s.probation_reescalations;
    for (int l = 0; l < kLevels; ++l) o.dwell[l] = s.dwell[l];
    return o;
  }
};

std::ostream& operator<<(std::ostream& os, const Observed& o) {
  os << "{L" << o.returned_level << "/L" << o.level;
  if (o.probation) os << " probation";
  os << " checks " << o.checks << " unhealthy " << o.unhealthy_checks;
  os << " esc " << o.escalations << " rec " << o.recoveries;
  os << " reesc " << o.reescalations << " dwell";
  for (std::uint64_t d : o.dwell) os << ' ' << d;
  return os << '}';
}

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

std::string describe(const std::vector<unsigned>& seq, std::size_t upto) {
  static const char* const kNames[] = {"healthy", "queue-hot", "miss-hot"};
  std::ostringstream os;
  for (std::size_t i = 0; i <= upto && i < seq.size(); ++i)
    os << (i ? " " : "") << kNames[seq[i]];
  return os.str();
}

struct LadderCase {
  const char* name;
  std::uint32_t degrade_after;
  std::uint32_t recover_after;
  std::uint32_t probation;
  std::uint64_t fingerprint;
};

void PrintTo(const LadderCase& c, std::ostream* os) { *os << c.name; }

class LadderExhaustive : public ::testing::TestWithParam<LadderCase> {};

TEST_P(LadderExhaustive, EverySequenceAgreesWithReferenceLadder) {
  const LadderCase& c = GetParam();
  DegradationConfig cfg;
  cfg.degrade_after_checks = c.degrade_after;
  cfg.recover_after_checks = c.recover_after;
  cfg.probation_checks = c.probation;
  HealthSignals inputs[kSignalCount];
  for (unsigned s = 0; s < kSignalCount; ++s)
    inputs[s] = signals_for(static_cast<Signal>(s), cfg);

  Fnv1a fp;
  std::uint64_t reescalations = 0;
  int top = 0;
  std::vector<unsigned> seq(kDepth, 0);
  for (;;) {
    DegradationManager mgr(cfg);
    ReferenceLadder ref{cfg};
    std::uint64_t now = 1;
    for (std::size_t i = 0; i < kDepth; ++i) {
      now += i;
      ref.check(now, seq[i] != kHealthy);
      const Observed got =
          Observed::of(mgr.check_once(now, inputs[seq[i]]), mgr);
      const Observed want = Observed::of(ref);
      ASSERT_EQ(got, want) << c.name << " [" << describe(seq, i) << "]";
      fp.add(static_cast<std::uint64_t>(got.level) |
             (static_cast<std::uint64_t>(got.probation) << 2) |
             (got.escalations << 8) | (got.recoveries << 24) |
             (got.reescalations << 40));
      if (got.level > top) top = got.level;
    }
    const DegradationStats s = mgr.stats();
    for (int l = 0; l < kLevels; ++l) fp.add(s.dwell[l]);
    reescalations += s.probation_reescalations;
    // Odometer step to the next sequence.
    std::size_t d = 0;
    while (d < kDepth && ++seq[d] == kSignalCount) seq[d++] = 0;
    if (d == kDepth) break;
  }
  EXPECT_EQ(top, kLevels - 1);
  EXPECT_GT(reescalations, 0u);
  EXPECT_EQ(fp.h, c.fingerprint)
      << c.name << std::hex << " fingerprint 0x" << fp.h;
}

// slow_climb breaks and completes streaks on both sides; fast_climb
// reaches L3 in three checks, so probation both expires (and the next
// unhealthy check climbs one level, not to L3) and snaps back from L2;
// fast_drop leaves L3 one level per healthy check, so the snap back comes
// from L1 as well.
INSTANTIATE_TEST_SUITE_P(
    Configs, LadderExhaustive,
    ::testing::Values(LadderCase{"slow_climb", 2, 2, 2, 0xd286855b02369e11ULL},
                      LadderCase{"fast_climb", 1, 2, 3, 0x7e221e500b8c75edULL},
                      LadderCase{"fast_drop", 2, 1, 2, 0xca85ba004a888421ULL}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace semperm::resilience
