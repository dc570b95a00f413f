#include "resilience/degradation.hpp"

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace semperm::resilience {

DegradationManager::DegradationManager(DegradationConfig cfg)
    : cfg_(cfg),
      level_metric_(
          obs::MetricsRegistry::global().gauge("resilience.degradation_level")),
      escalations_metric_(
          obs::MetricsRegistry::global().counter("resilience.escalations")),
      recoveries_metric_(
          obs::MetricsRegistry::global().counter("resilience.recoveries")) {
  SEMPERM_ASSERT_MSG(cfg.degrade_after_checks > 0 &&
                         cfg.recover_after_checks > 0,
                     "streak thresholds must be nonzero");
  level_metric_.set(0);
  SEMPERM_TRACE_ONLY(track_ = obs::intern_track("resilience/ladder");)
}

void DegradationManager::accrue_dwell_locked(std::uint64_t now) {
  const int lvl = level_.load(std::memory_order_relaxed);
  if (last_check_ != 0 && now > last_check_)
    dwell_[lvl].fetch_add(now - last_check_, std::memory_order_relaxed);
  last_check_ = now;
}

void DegradationManager::apply_level_locked(int level) {
  level_.store(level, std::memory_order_release);
  level_metric_.set(level);
}

int DegradationManager::check_once(std::uint64_t now,
                                   const HealthSignals& signals) {
  MutexLock lock(policy_mutex_);
  checks_.fetch_add(1, std::memory_order_relaxed);
  accrue_dwell_locked(now);
  const int lvl = level_.load(std::memory_order_relaxed);

  const bool queue_hot = signals.queue_high_watermark != 0 &&
                         signals.queue_depth >= signals.queue_high_watermark;
  const bool misses_hot = signals.miss_rate_ewma >= cfg_.miss_rate_high;
  const bool unhealthy = queue_hot || misses_hot;

  if (unhealthy) {
    unhealthy_checks_.fetch_add(1, std::memory_order_relaxed);
    healthy_streak_ = 0;
    if (probation_left_ > 0) {
      // A system that just climbed down from the top level gets no streak
      // grace: one unhealthy check on probation snaps straight back.
      probation_left_ = 0;
      unhealthy_streak_ = 0;
      probation_reescalations_.fetch_add(1, std::memory_order_relaxed);
      escalations_.fetch_add(1, std::memory_order_relaxed);
      escalations_metric_.add(1);
      apply_level_locked(kLevels - 1);
      SEMPERM_TRACE_INSTANT(obs::Category::kResilience, "degrade", track_,
                            kLevels - 1, 1.0);
    } else if (++unhealthy_streak_ >= cfg_.degrade_after_checks) {
      unhealthy_streak_ = 0;
      if (lvl < kLevels - 1) {
        escalations_.fetch_add(1, std::memory_order_relaxed);
        escalations_metric_.add(1);
        apply_level_locked(lvl + 1);
        SEMPERM_TRACE_INSTANT(obs::Category::kResilience, "degrade", track_,
                              static_cast<std::uint64_t>(lvl + 1), 0.0);
      }
    }
  } else {
    unhealthy_streak_ = 0;
    if (probation_left_ > 0) --probation_left_;
    if (++healthy_streak_ >= cfg_.recover_after_checks) {
      healthy_streak_ = 0;
      if (lvl > 0) {
        recoveries_.fetch_add(1, std::memory_order_relaxed);
        recoveries_metric_.add(1);
        if (lvl == kLevels - 1) probation_left_ = cfg_.probation_checks;
        apply_level_locked(lvl - 1);
        SEMPERM_TRACE_INSTANT(obs::Category::kResilience, "recover", track_,
                              static_cast<std::uint64_t>(lvl - 1),
                              probation_left_ > 0 ? 1.0 : 0.0);
      }
    }
  }
  return level_.load(std::memory_order_relaxed);
}

void DegradationManager::reset(std::uint64_t now) {
  MutexLock lock(policy_mutex_);
  if (now != 0) accrue_dwell_locked(now);
  apply_level_locked(0);
  unhealthy_streak_ = 0;
  healthy_streak_ = 0;
  probation_left_ = 0;
  last_check_ = now;
}

bool DegradationManager::on_probation() const {
  MutexLock lock(policy_mutex_);
  return probation_left_ > 0;
}

DegradationStats DegradationManager::stats() const {
  DegradationStats s;
  s.level = level_.load(std::memory_order_acquire);
  s.checks = checks_.load(std::memory_order_relaxed);
  s.unhealthy_checks = unhealthy_checks_.load(std::memory_order_relaxed);
  s.escalations = escalations_.load(std::memory_order_relaxed);
  s.recoveries = recoveries_.load(std::memory_order_relaxed);
  s.probation_reescalations =
      probation_reescalations_.load(std::memory_order_relaxed);
  for (int i = 0; i < kLevels; ++i)
    s.dwell[i] = dwell_[i].load(std::memory_order_relaxed);
  return s;
}

}  // namespace semperm::resilience
