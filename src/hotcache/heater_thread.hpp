// semperm/hotcache/heater_thread.hpp
//
// The real hot-caching heater (paper §3.2, Fig. 3): a thread that
// periodically walks the registered regions, reading the first four bytes
// of every cache line into a throwaway sum. Refreshing the lines' recency
// keeps them resident under (pseudo-)LRU eviction — "semi-permanent cache
// occupancy".
//
// The paper's three implementation challenges, and where they are handled:
//  1. placement — HeaterConfig::pin_cpu pins the heater to a core sharing
//     a cache level with the communication thread;
//  2. synchronisation — RegionRegistry (seqlock slots, tombstone reuse);
//  3. application interference — pause()/resume() lets a bulk-synchronous
//     application stop the heater during compute phases and re-arm it
//     before communication.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "hotcache/region_registry.hpp"
#include "obs/perf_counters.hpp"

namespace semperm::hotcache {

struct HeaterConfig {
  /// Sleep between heating passes (the paper's periodicity knob — it
  /// controls the granularity of the induced temporal locality).
  std::uint64_t period_ns = 50'000;
  /// CPU to pin the heater to; -1 = unpinned.
  int pin_cpu = -1;
  /// Byte budget per pass; 0 = touch everything registered. Bounding the
  /// pass models a heater that cannot keep more than a cache's worth hot.
  std::size_t max_bytes_per_pass = 0;
  /// Bracket every heating pass with hardware counters (perf_event_open
  /// on the heater thread, so the reading covers exactly the heater's own
  /// work — DESIGN.md §16). When the group cannot open, hw_error() says
  /// why and heating proceeds unmeasured.
  bool measure_hw = false;
};

struct HeaterStats {
  std::uint64_t passes = 0;
  std::uint64_t lines_touched = 0;
  std::uint64_t bytes_touched = 0;
  bool pinned = false;
};

class HeaterThread {
 public:
  /// The registry must outlive the heater.
  HeaterThread(RegionRegistry& registry, HeaterConfig config);
  ~HeaterThread();

  HeaterThread(const HeaterThread&) = delete;
  HeaterThread& operator=(const HeaterThread&) = delete;

  void start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Cooperative interference mitigation: the application may pause the
  /// heater during compute phases.
  void pause();
  void resume();
  bool paused() const { return paused_.load(std::memory_order_acquire); }

  /// Run exactly one heating pass on the *calling* thread (used by tests
  /// and by callers that drive heating explicitly at phase boundaries).
  void run_single_pass();

  HeaterStats stats() const;

  /// Aggregated hardware-counter reading over every measured pass
  /// (HeaterConfig::measure_hw). valid_mask == 0 when measurement was
  /// off, unavailable, or no pass has completed yet; stable after stop().
  obs::PerfCounters::Reading hw_reading() const;
  /// Why the counter group failed to open (empty when it opened or
  /// measurement was never requested).
  std::string hw_error() const;

  /// Touch every cache line of [base, base+len): read the first 4 bytes of
  /// each line into a discarded sum. Exposed for the heater
  /// micro-benchmark.
  static std::uint64_t touch(const std::byte* base, std::size_t len);

 private:
  void thread_main();

  RegionRegistry& registry_;
  HeaterConfig config_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  // stop_requested_/paused_ are atomics, but their *stores* still happen
  // under wake_mutex_ so the heater thread cannot miss a wakeup between
  // testing the flag and sleeping on wake_cv_ (the classic lost-notify
  // window).
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> paused_{false};
  mutable Mutex wake_mutex_;
  CondVar wake_cv_;

  std::atomic<std::uint64_t> passes_{0};
  std::atomic<std::uint64_t> lines_touched_{0};
  std::atomic<std::uint64_t> bytes_touched_{0};
  std::atomic<bool> pinned_{false};
  mutable Mutex hw_mu_;
  obs::PerfCounters::Reading hw_total_ GUARDED_BY(hw_mu_);
  std::string hw_error_ GUARDED_BY(hw_mu_);
};

}  // namespace semperm::hotcache
