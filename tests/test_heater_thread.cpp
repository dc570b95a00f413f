#include "hotcache/heater_thread.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace semperm::hotcache {
namespace {

TEST(HeaterThread, SinglePassTouchesAllRegisteredLines) {
  RegionRegistry reg;
  std::vector<std::byte> a(4096), b(256);
  reg.register_region(a.data(), a.size());
  reg.register_region(b.data(), b.size());
  HeaterThread heater(reg, HeaterConfig{});
  heater.run_single_pass();
  const auto stats = heater.stats();
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.lines_touched, 4096u / 64 + 256u / 64);
  EXPECT_EQ(stats.bytes_touched, 4096u + 256u);
}

TEST(HeaterThread, PassBudgetBoundsTouching) {
  RegionRegistry reg;
  std::vector<std::byte> big(1 << 16);
  reg.register_region(big.data(), big.size());
  HeaterConfig cfg;
  cfg.max_bytes_per_pass = 1024;
  HeaterThread heater(reg, cfg);
  heater.run_single_pass();
  EXPECT_EQ(heater.stats().bytes_touched, 1024u);
}

TEST(HeaterThread, SkipsTombstonedRegions) {
  RegionRegistry reg;
  std::vector<std::byte> a(640), b(640);
  reg.register_region(a.data(), a.size());
  const auto slot = reg.register_region(b.data(), b.size());
  reg.unregister_region(slot);
  HeaterThread heater(reg, HeaterConfig{});
  heater.run_single_pass();
  EXPECT_EQ(heater.stats().bytes_touched, 640u);
}

TEST(HeaterThread, StartStopLifecycle) {
  RegionRegistry reg;
  std::vector<std::byte> a(4096);
  reg.register_region(a.data(), a.size());
  HeaterConfig cfg;
  cfg.period_ns = 100'000;  // 0.1 ms
  HeaterThread heater(reg, cfg);
  EXPECT_FALSE(heater.running());
  heater.start();
  EXPECT_TRUE(heater.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  heater.stop();
  EXPECT_FALSE(heater.running());
  EXPECT_GE(heater.stats().passes, 1u);
}

TEST(HeaterThread, StopIsIdempotentAndDestructorSafe) {
  RegionRegistry reg;
  HeaterThread heater(reg, HeaterConfig{});
  heater.start();
  heater.stop();
  heater.stop();  // no-op
  // Destructor runs stop() again — must not hang or crash.
}

TEST(HeaterThread, PauseSuppressesPasses) {
  RegionRegistry reg;
  std::vector<std::byte> a(64);
  reg.register_region(a.data(), a.size());
  HeaterConfig cfg;
  cfg.period_ns = 200'000;
  HeaterThread heater(reg, cfg);
  heater.pause();
  heater.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto paused_passes = heater.stats().passes;
  heater.resume();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  heater.stop();
  EXPECT_EQ(paused_passes, 0u);
  EXPECT_GE(heater.stats().passes, 1u);
}

TEST(HeaterThread, TouchSumsFirstWordPerLine) {
  alignas(64) std::uint32_t words[64] = {};
  words[0] = 5;                       // line 0, first 4 bytes
  words[16] = 7;                      // line 1 (64 bytes = 16 words)
  words[1] = 100;                     // NOT the first word of a line
  const auto sum = HeaterThread::touch(
      reinterpret_cast<const std::byte*>(words), sizeof(words));
  EXPECT_EQ(sum, 12u);
}

TEST(HeaterThread, RestartAfterStop) {
  RegionRegistry reg;
  std::vector<std::byte> a(64);
  reg.register_region(a.data(), a.size());
  HeaterThread heater(reg, HeaterConfig{});
  heater.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  heater.stop();
  const auto first = heater.stats().passes;
  EXPECT_GE(first, 1u);
  heater.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  heater.stop();
  EXPECT_GT(heater.stats().passes, first);
}

TEST(HeaterThread, PauseResumeRacesRegistryMutation) {
  // Stress the synchronisation: the application pauses/resumes while
  // another thread churns the registry, all against a free-running
  // heater. TSan validates; natively this is a smoke test that nothing
  // deadlocks or crashes.
  RegionRegistry reg;
  std::vector<std::byte> stable(1 << 12);
  std::vector<std::byte> churn(1 << 12);
  reg.register_region(stable.data(), stable.size());
  HeaterConfig hc;
  hc.period_ns = 1'000;  // effectively continuous
  HeaterThread heater(reg, hc);
  heater.start();

  std::atomic<bool> go{true};
  std::thread pauser([&] {
    for (int i = 0; i < 1500; ++i) {
      heater.pause();
      std::this_thread::yield();
      heater.resume();
    }
    go.store(false);
  });
  std::thread registrar([&] {
    while (go.load()) {
      const std::size_t h = reg.register_region(churn.data(), churn.size());
      std::this_thread::yield();
      reg.unregister_region(h);
    }
  });
  pauser.join();
  registrar.join();
  heater.stop();
  EXPECT_GE(heater.stats().passes, 1u);
}

}  // namespace
}  // namespace semperm::hotcache
