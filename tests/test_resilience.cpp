// Robustness-layer unit tests (DESIGN.md §17): the TinyLFU-style
// admission filter's sketch arithmetic, determinism, and aging; the
// watermark backpressure valve's hysteresis; and the unified degradation
// ladder — escalation on each health signal, dwell accounting, the exact
// probation boundary, re-escalation during probation, and a TSan race of
// check_once against lock-free observers.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "resilience/admission.hpp"
#include "resilience/backpressure.hpp"
#include "resilience/degradation.hpp"

namespace semperm::resilience {
namespace {

AdmissionConfig tiny_sketch() {
  AdmissionConfig cfg;
  cfg.rows = 4;
  cfg.counters_log2 = 8;  // 256 counters/row: collisions unlikely for
  cfg.age_period = 1024;  // the handful of keys these tests use
  return cfg;
}

TEST(Admission, SketchCountsAndSaturates) {
  AdmissionFilter f(tiny_sketch());
  EXPECT_EQ(f.estimate(42), 0u);
  for (int i = 0; i < 5; ++i) f.record(42);
  // Count-min overestimates only: the estimate is >= the true count and
  // with 4 rows over 256 counters a single key is collision-free.
  EXPECT_EQ(f.estimate(42), 5u);
  EXPECT_EQ(f.estimate(43), 0u);
  for (int i = 0; i < 100; ++i) f.record(42);
  EXPECT_EQ(f.estimate(42), 15u);  // saturates at counter_max
  EXPECT_EQ(f.stats().records, 105u);
}

TEST(Admission, AgingHalvesEstimates) {
  AdmissionConfig cfg = tiny_sketch();
  cfg.age_period = 32;
  AdmissionFilter f(cfg);
  for (int i = 0; i < 10; ++i) f.record(7);
  ASSERT_EQ(f.estimate(7), 10u);
  // Pad to the aging boundary with a different key; the 32nd record
  // triggers the halving pass over every counter.
  for (int i = 0; i < 22; ++i) f.record(8);
  EXPECT_EQ(f.stats().agings, 1u);
  EXPECT_EQ(f.estimate(7), 5u);
  // Key 8 saturated at counter_max (15) before the boundary halved it.
  EXPECT_EQ(f.estimate(8), 7u);
}

TEST(Admission, PrefersFrequentCandidate) {
  AdmissionFilter f(tiny_sketch());
  for (int i = 0; i < 8; ++i) f.record(100);  // hot flow
  f.record(200);                              // one-hit wonder
  // A hot candidate displaces a cold victim; a one-hit wonder does not
  // displace a hot resident.
  EXPECT_TRUE(f.admit(/*candidate=*/100, /*victim=*/200));
  EXPECT_FALSE(f.admit(/*candidate=*/200, /*victim=*/100));
  // Equal-frequency churn is admitted (LRU's regime, margin 0).
  EXPECT_TRUE(f.admit(/*candidate=*/200, /*victim=*/201));
  EXPECT_EQ(f.stats().admits, 2u);
  EXPECT_EQ(f.stats().rejects, 1u);
}

TEST(Admission, StrictMarginRaisesTheBar) {
  AdmissionFilter f(tiny_sketch());
  for (int i = 0; i < 3; ++i) f.record(1);
  f.record(2);
  EXPECT_TRUE(f.admit(1, 2));  // 3 >= 1 + 0
  f.set_strict_margin(2);
  EXPECT_TRUE(f.admit(1, 2));  // 3 >= 1 + 2
  f.set_strict_margin(3);
  EXPECT_FALSE(f.admit(1, 2));  // 3 < 1 + 3
  // The L0 lever restores the permissive bar.
  f.set_strict_margin(0);
  EXPECT_TRUE(f.admit(1, 2));
}

TEST(Admission, SameSeedSameDecisions) {
  AdmissionConfig cfg = tiny_sketch();
  cfg.age_period = 64;
  AdmissionFilter a(cfg), b(cfg);
  // A seeded pseudo-trace of records and admit probes must produce
  // bit-identical decision streams on both filters.
  std::uint64_t x = 0x9e3779b9u;
  for (int i = 0; i < 1000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t key = (x >> 33) % 97;
    a.record(key);
    b.record(key);
    if (i % 7 == 0) {
      EXPECT_EQ(a.admit(key, key + 1), b.admit(key, key + 1)) << i;
    }
  }
  EXPECT_EQ(a.stats().admits, b.stats().admits);
  EXPECT_EQ(a.stats().rejects, b.stats().rejects);
  EXPECT_EQ(a.stats().agings, b.stats().agings);

  AdmissionConfig other = cfg;
  other.seed ^= 1;
  AdmissionFilter c(other);
  for (int i = 0; i < 1000; ++i) c.record(i % 97);
  // Different seeds place keys in different counters; total records
  // still match (the stats contract is seed-independent).
  EXPECT_EQ(c.stats().records, 1000u);
}

TEST(Backpressure, HysteresisValve) {
  BackpressureValve v(/*high=*/8, /*low=*/2);
  EXPECT_FALSE(v.update(7));  // below high: no shed
  EXPECT_TRUE(v.update(8));   // reaches high: shed ON
  EXPECT_TRUE(v.update(5));   // between watermarks: stays ON (hysteresis)
  EXPECT_TRUE(v.update(3));
  EXPECT_FALSE(v.update(2));  // drains to low: shed OFF
  EXPECT_FALSE(v.update(7));  // below high again: still OFF
  EXPECT_TRUE(v.update(9));   // second window
  const BackpressureStats& s = v.stats();
  EXPECT_EQ(s.updates, 7u);
  EXPECT_EQ(s.shed_windows, 2u);
  EXPECT_EQ(s.peak_depth, 9u);
}

// ---------------------------------------------------------------------
// Degradation ladder.

DegradationConfig fast_ladder() {
  DegradationConfig cfg;
  cfg.degrade_after_checks = 2;
  cfg.recover_after_checks = 3;
  cfg.probation_checks = 2;
  return cfg;
}

HealthSignals healthy() { return HealthSignals{}; }

HealthSignals overloaded_queue() {
  HealthSignals s;
  s.queue_depth = 10;
  s.queue_high_watermark = 8;
  return s;
}

/// Drive the manager to L3 with unhealthy checks, returning the clock.
std::uint64_t escalate_to_top(DegradationManager& mgr, std::uint64_t now,
                              const HealthSignals& bad,
                              std::uint32_t degrade_after) {
  while (mgr.level() < kLevels - 1) {
    for (std::uint32_t i = 0; i < degrade_after; ++i)
      mgr.check_once(++now, bad);
  }
  return now;
}

TEST(Degradation, EscalatesOnEachSignal) {
  const DegradationConfig cfg = fast_ladder();
  // Queue depth at/above the watermark.
  {
    DegradationManager mgr(cfg);
    EXPECT_EQ(mgr.check_once(1, overloaded_queue()), 0);
    EXPECT_EQ(mgr.check_once(2, overloaded_queue()), 1);
  }
  // Miss-rate EWMA at/above the threshold.
  {
    DegradationManager mgr(cfg);
    HealthSignals s;
    s.miss_rate_ewma = cfg.miss_rate_high;
    EXPECT_EQ(mgr.check_once(1, s), 0);
    EXPECT_EQ(mgr.check_once(2, s), 1);
  }
  // A high watermark of 0 means "no queue signal", not "always over".
  {
    DegradationManager mgr(cfg);
    HealthSignals s;
    s.queue_depth = 1000;
    s.queue_high_watermark = 0;
    EXPECT_EQ(mgr.check_once(1, s), 0);
    EXPECT_EQ(mgr.check_once(2, s), 0);
    EXPECT_EQ(mgr.stats().unhealthy_checks, 0u);
  }
}

TEST(Degradation, RecoversAndAccountsDwell) {
  const DegradationConfig cfg = fast_ladder();
  DegradationManager mgr(cfg);
  // Two unhealthy checks at clocks 1,2 -> L1; two more at 3,4 -> L2.
  std::uint64_t now = 0;
  for (int i = 0; i < 4; ++i) mgr.check_once(++now, overloaded_queue());
  ASSERT_EQ(mgr.level(), 2);
  // Three healthy checks de-escalate one level.
  for (int i = 0; i < 3; ++i) mgr.check_once(++now, healthy());
  EXPECT_EQ(mgr.level(), 1);
  for (int i = 0; i < 3; ++i) mgr.check_once(++now, healthy());
  EXPECT_EQ(mgr.level(), 0);
  EXPECT_FALSE(mgr.on_probation());  // probation only arms leaving L3

  const DegradationStats s = mgr.stats();
  EXPECT_EQ(s.level, 0);
  EXPECT_EQ(s.checks, 10u);
  EXPECT_EQ(s.unhealthy_checks, 4u);
  EXPECT_EQ(s.escalations, 2u);
  EXPECT_EQ(s.recoveries, 2u);
  EXPECT_EQ(s.probation_reescalations, 0u);
  // Dwell: each check advances the clock by 1 and attributes the unit to
  // the level in force across the interval. Levels in force across the
  // 9 unit intervals: L0,L1,L1,L2,L2,L2,L1,L1,L1 — but the level flips
  // *within* the check at the far edge, so the interval belongs to the
  // pre-check level: L0 x2, L1 x2, L2 x3, L1 x2 ... verify by sum and
  // by the invariant that every level saw some dwell except none at L3.
  EXPECT_EQ(s.dwell[0] + s.dwell[1] + s.dwell[2] + s.dwell[3], 9u);
  EXPECT_GT(s.dwell[1], 0u);
  EXPECT_GT(s.dwell[2], 0u);
  EXPECT_EQ(s.dwell[3], 0u);
}

TEST(Degradation, ProbationExpiresAtExactBoundary) {
  // probation_checks = 2, degrade_after = 2: after the probation window
  // closes, an unhealthy check must NOT snap to L3 — the normal streak
  // logic is back in force.
  const DegradationConfig cfg = fast_ladder();
  DegradationManager mgr(cfg);
  std::uint64_t now = escalate_to_top(mgr, 0, overloaded_queue(),
                                      cfg.degrade_after_checks);
  ASSERT_EQ(mgr.level(), 3);
  // recover_after healthy checks leave L3 -> L2, arming probation.
  for (std::uint32_t i = 0; i < cfg.recover_after_checks; ++i)
    mgr.check_once(++now, healthy());
  ASSERT_EQ(mgr.level(), 2);
  ASSERT_TRUE(mgr.on_probation());
  // Exactly probation_checks healthy checks close the window...
  for (std::uint32_t i = 0; i < cfg.probation_checks; ++i)
    mgr.check_once(++now, healthy());
  EXPECT_FALSE(mgr.on_probation());
  // ...so the next unhealthy check starts a streak instead of snapping.
  EXPECT_EQ(mgr.check_once(++now, overloaded_queue()), 2);
  EXPECT_EQ(mgr.check_once(++now, overloaded_queue()), 3);  // normal streak
  EXPECT_EQ(mgr.stats().probation_reescalations, 0u);
}

TEST(Degradation, ReEscalatesDuringProbation) {
  const DegradationConfig cfg = fast_ladder();
  DegradationManager mgr(cfg);
  std::uint64_t now = escalate_to_top(mgr, 0, overloaded_queue(),
                                      cfg.degrade_after_checks);
  const std::uint64_t escalations_to_top = mgr.stats().escalations;
  for (std::uint32_t i = 0; i < cfg.recover_after_checks; ++i)
    mgr.check_once(++now, healthy());
  ASSERT_EQ(mgr.level(), 2);
  ASSERT_TRUE(mgr.on_probation());
  // One healthy check inside the window keeps probation open...
  mgr.check_once(++now, healthy());
  ASSERT_TRUE(mgr.on_probation());
  // ...and a single unhealthy check snaps straight back to L3, no
  // streak grace: a system that just collapsed must re-prove itself.
  EXPECT_EQ(mgr.check_once(++now, overloaded_queue()), 3);
  const DegradationStats s = mgr.stats();
  EXPECT_EQ(s.probation_reescalations, 1u);
  EXPECT_EQ(s.escalations, escalations_to_top + 1);
  EXPECT_FALSE(mgr.on_probation());  // probation is an L3-exit state
}

TEST(Degradation, ResetReturnsToFullService) {
  const DegradationConfig cfg = fast_ladder();
  DegradationManager mgr(cfg);
  escalate_to_top(mgr, 0, overloaded_queue(), cfg.degrade_after_checks);
  ASSERT_EQ(mgr.level(), 3);
  mgr.reset();
  EXPECT_EQ(mgr.level(), 0);
  EXPECT_FALSE(mgr.on_probation());
}

// DegradationManager policy racing lock-free observers. Run under TSan
// to validate the locking: one thread drives check_once across every
// level boundary while another reads level(), stats() and
// on_probation() without the policy lock.
TEST(Degradation, CheckOnceRacesSteeringAndRegistryChurn) {
  DegradationManager mgr(fast_ladder());

  std::atomic<bool> stop{false};
  // Policy thread: alternate unhealthy/healthy windows so the ladder
  // keeps climbing and recovering.
  std::thread policy([&] {
    std::uint64_t now = 0;
    while (!stop.load(std::memory_order_acquire)) {
      for (int i = 0; i < 4 && !stop.load(std::memory_order_acquire); ++i)
        mgr.check_once(++now, overloaded_queue());
      for (int i = 0; i < 8 && !stop.load(std::memory_order_acquire); ++i)
        mgr.check_once(++now, healthy());
    }
  });
  // Observer thread: lock-free reads of the published state.
  std::uint64_t observed_levels = 0;
  std::thread observe([&] {
    while (!stop.load(std::memory_order_acquire)) {
      observed_levels += static_cast<std::uint64_t>(mgr.level());
      (void)mgr.stats();
      (void)mgr.on_probation();
      std::this_thread::yield();
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_release);
  policy.join();
  observe.join();

  const DegradationStats s = mgr.stats();
  EXPECT_GT(s.checks, 0u);
  EXPECT_GT(s.escalations, 0u);
  (void)observed_levels;
}

}  // namespace
}  // namespace semperm::resilience
