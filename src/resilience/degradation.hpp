// semperm/resilience/degradation.hpp
//
// The degradation ladder (DESIGN.md §17.3) of the steering pipeline:
//
//   L0 full service    — admission at its configured margin, full rule
//                        walks, all heater regions heated.
//   L1 strict admission — the admission filter's strict margin raises the
//                        bar a miss must clear to displace a live flow.
//   L2 essential only  — the miss path walks only the essential head of
//                        the rule table (rule-walk budget cap) and the
//                        heater stops refreshing the rule arena.
//   L3 shed new flows  — table misses are shed outright (probe-only
//                        lookups, no install, no walk); residents are
//                        still served.
//
// The manager owns *policy only*: check_once(now, signals) is a pure
// function of the explicit clock and the health signals the caller
// observed (queue depth vs. watermark, miss-rate EWMA), so simulated
// drivers pass simulated cycles and native drivers pass wall time, and
// tests drive it with synthetic clocks. The caller applies the levers for
// the level returned.
//
// Recovery is probation-based: after de-escalating from the top level,
// the ladder is on probation for `probation_checks` checks during which a
// single unhealthy check snaps straight back to L3 (no streak grace) — a
// system that just collapsed must re-prove itself.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "obs/trace.hpp"

namespace semperm::obs {
class Counter;
class Gauge;
}  // namespace semperm::obs

namespace semperm::resilience {

inline constexpr int kLevels = 4;  // L0..L3

struct DegradationConfig {
  /// Consecutive unhealthy checks before escalating one level.
  std::uint32_t degrade_after_checks = 2;
  /// Consecutive healthy checks before de-escalating one level.
  std::uint32_t recover_after_checks = 4;
  /// Probation length (checks) after leaving the top level.
  std::uint32_t probation_checks = 4;
  /// Miss-rate EWMA at or above this is unhealthy.
  double miss_rate_high = 0.75;
};

/// One check's observations, gathered by the caller.
struct HealthSignals {
  std::size_t queue_depth = 0;
  std::size_t queue_high_watermark = 0;  // 0 = no queue signal
  double miss_rate_ewma = 0.0;
};

struct DegradationStats {
  int level = 0;
  std::uint64_t checks = 0;
  std::uint64_t unhealthy_checks = 0;
  std::uint64_t escalations = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t probation_reescalations = 0;
  /// Time accumulated at each level, in the caller's check_once clock
  /// units (simulated cycles for the steering driver, ns for native).
  std::uint64_t dwell[kLevels] = {0, 0, 0, 0};
};

class DegradationManager {
 public:
  explicit DegradationManager(DegradationConfig cfg);

  DegradationManager(const DegradationManager&) = delete;
  DegradationManager& operator=(const DegradationManager&) = delete;

  /// One deterministic policy step against the caller's clock. Returns
  /// the level in force after the step. Thread-safe (serialized).
  int check_once(std::uint64_t now, const HealthSignals& signals);

  /// Force the ladder back to L0.
  void reset(std::uint64_t now = 0);

  int level() const { return level_.load(std::memory_order_acquire); }
  bool on_probation() const;
  DegradationStats stats() const;

 private:
  void apply_level_locked(int level) REQUIRES(policy_mutex_);
  void accrue_dwell_locked(std::uint64_t now) REQUIRES(policy_mutex_);

  DegradationConfig cfg_;

  mutable Mutex policy_mutex_;
  std::uint32_t unhealthy_streak_ GUARDED_BY(policy_mutex_) = 0;
  std::uint32_t healthy_streak_ GUARDED_BY(policy_mutex_) = 0;
  std::uint32_t probation_left_ GUARDED_BY(policy_mutex_) = 0;
  std::uint64_t last_check_ GUARDED_BY(policy_mutex_) = 0;

  std::atomic<int> level_{0};
  std::atomic<std::uint64_t> checks_{0};
  std::atomic<std::uint64_t> unhealthy_checks_{0};
  std::atomic<std::uint64_t> escalations_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> probation_reescalations_{0};
  std::atomic<std::uint64_t> dwell_[kLevels] = {};

  // Process-lifetime registry handles (cached: check_once may run at
  // epoch cadence and the registry map lookup is mutex-guarded).
  obs::Gauge& level_metric_;
  obs::Counter& escalations_metric_;
  obs::Counter& recoveries_metric_;
  SEMPERM_TRACE_ONLY(std::uint16_t track_ = 0;)
};

}  // namespace semperm::resilience
