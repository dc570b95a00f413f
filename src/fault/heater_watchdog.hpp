// semperm/fault/heater_watchdog.hpp
//
// Resilience companion to the heater (DESIGN.md §12.2): a watchdog that
// detects a lagging heater — passes not completing on schedule because
// the heater core is preempted, starved, or stalled by fault injection —
// and degrades the heating service gracefully instead of letting a
// silently cold cache masquerade as a hot one.
//
// Degradation ladder (each level includes the levers of the ones below):
//   L0 healthy   — configured budget, all priorities heated.
//   L1 reduced   — per-pass byte budget halved: shorter passes are more
//                  likely to complete inside the period.
//   L2 essential — additionally, only priority-0 ("essential") regions
//                  are heated; low-priority regions are allowed to cool.
//   L3 paused    — the heater is self-paused entirely: a heater that
//                  cannot keep up only adds interference (paper §3.2
//                  challenge 3), so stop pretending.
// Recovery walks the ladder back down one level per healthy streak. L3 is
// special: a paused heater produces no passes to observe, so after the
// recovery streak elapses the watchdog resumes the heater *on probation*
// at L2 and lets the normal staleness signal decide from there.
//
// Determinism: all policy lives in check_once(now_ns), a pure function of
// the observed pass timestamp and the explicit `now` — tests drive it
// directly with synthetic clocks. start() merely runs check_once on a
// background thread against the steady clock.
//
// The watchdog is plain code compiled in every build configuration (like
// obs::MetricsRegistry), as are the injection sites that make it fire on
// demand.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "hotcache/heater_thread.hpp"

namespace semperm::fault {

struct WatchdogConfig {
  /// How often the background thread samples heater liveness.
  std::uint64_t check_period_ns = 1'000'000;  // 1 ms
  /// A pass older than this (relative to `now`) counts as stale. Must
  /// comfortably exceed the heater period plus one pass duration.
  std::uint64_t stale_threshold_ns = 5'000'000;  // 5 ms
  /// Consecutive stale checks before escalating one level.
  std::uint32_t degrade_after_checks = 2;
  /// Consecutive healthy checks before de-escalating one level (and the
  /// probation length at L3 before the heater is resumed).
  std::uint32_t recover_after_checks = 4;
  /// Priority ceiling applied at L2: regions with priority above this
  /// are skipped while degraded.
  std::uint8_t essential_ceiling = 0;
  /// L1 budget when the heater's configured budget is 0 (= unlimited):
  /// "half of unlimited" needs a concrete number.
  std::size_t fallback_degraded_budget = 1u << 20;
};

struct WatchdogStats {
  int level = 0;                    // current degradation level (0..3)
  std::uint64_t checks = 0;         // check_once invocations
  std::uint64_t stale_checks = 0;   // checks that observed staleness
  std::uint64_t degradations = 0;   // level escalations
  std::uint64_t recoveries = 0;     // level de-escalations
  /// Time spent at each ladder level, accumulated between consecutive
  /// check_once clocks (so units are whatever clock drives the checks:
  /// ns from the background thread, synthetic units from tests).
  std::uint64_t dwell_ns[4] = {0, 0, 0, 0};
};

class HeaterWatchdog {
 public:
  /// The heater must outlive the watchdog. The heater's *configured*
  /// budget is captured here, so construct after configuring the heater.
  HeaterWatchdog(hotcache::HeaterThread& heater, WatchdogConfig config);
  ~HeaterWatchdog();

  HeaterWatchdog(const HeaterWatchdog&) = delete;
  HeaterWatchdog& operator=(const HeaterWatchdog&) = delete;

  /// Start/stop the background checking thread. stop() leaves the
  /// current degradation level applied (call reset() to undo).
  void start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// One deterministic policy step against the caller's clock. Returns
  /// the level in force after the step. Thread-safe (serialized).
  int check_once(std::uint64_t now_ns);

  /// Force the ladder back to L0 and restore the heater's configured
  /// budget/ceiling (and resume it if the watchdog paused it).
  void reset();

  int level() const { return level_.load(std::memory_order_acquire); }
  WatchdogStats stats() const;

 private:
  void thread_main();
  /// Apply one ladder level's levers to the heater. Policy state is
  /// mutated, so the policy lock must be held.
  void apply_level_locked(int level) REQUIRES(policy_mutex_);

  hotcache::HeaterThread& heater_;
  WatchdogConfig config_;
  std::size_t configured_budget_;  // heater budget captured at construction

  Mutex policy_mutex_;  // serializes check_once/reset/apply
  // Staleness reference before pass #1.
  std::uint64_t baseline_ns_ GUARDED_BY(policy_mutex_) = 0;
  // Previous check's clock — the per-level dwell accumulator's edge.
  std::uint64_t last_check_ns_ GUARDED_BY(policy_mutex_) = 0;
  std::uint32_t stale_streak_ GUARDED_BY(policy_mutex_) = 0;
  std::uint32_t healthy_streak_ GUARDED_BY(policy_mutex_) = 0;
  // Checks spent at L3.
  std::uint32_t probation_checks_ GUARDED_BY(policy_mutex_) = 0;
  bool paused_by_watchdog_ GUARDED_BY(policy_mutex_) = false;

  std::atomic<int> level_{0};
  std::atomic<std::uint64_t> checks_{0};
  std::atomic<std::uint64_t> stale_checks_{0};
  std::atomic<std::uint64_t> degradations_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> dwell_ns_[4] = {};

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  Mutex wake_mutex_;
  CondVar wake_cv_;
};

}  // namespace semperm::fault
