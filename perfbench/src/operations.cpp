#include "operations.hpp"

#include <algorithm>
#include <exception>

#include "apps/apps.hpp"
#include "cachesim/arch.hpp"
#include "fingerprint.hpp"
#include "simmpi/network_model.hpp"

namespace perfbench {

namespace sw = semperm::workloads;
namespace sc = semperm::cachesim;
namespace st = semperm::traffic;
namespace sm = semperm::motifs;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::optional<Workload> workload_from_name(const std::string& name) {
  for (const Workload w : all_workloads())
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kOsuTemporal:
      return "osu_temporal";
    case Workload::kAppFds:
      return "app_fds";
    case Workload::kTrafficOverload:
      return "traffic_overload";
    case Workload::kTable1Mt:
      return "table1_mt";
  }
  return "?";
}

std::vector<Workload> all_workloads() {
  return {Workload::kOsuTemporal, Workload::kAppFds,
          Workload::kTrafficOverload, Workload::kTable1Mt};
}

namespace {

/// Salt folded into every simulated seed; 0 for the reference seed.
std::uint64_t salt_of(std::uint64_t seed) {
  return seed == kReferenceSeed ? 0 : splitmix64(seed);
}

// --- osu_temporal: Figs. 6/7 temporal series -----------------------------

struct OsuSeries {
  const char* label;
  const char* queue;
  sw::HeaterMode heater;
};

const OsuSeries kTemporalSeries[] = {
    {"baseline", "baseline", sw::HeaterMode::kOff},
    {"HC", "baseline", sw::HeaterMode::kPerElement},
    {"LLA", "lla-2", sw::HeaterMode::kOff},
    {"HC+LLA", "lla-2", sw::HeaterMode::kPooled},
};

sw::OsuParams osu_point(const sc::ArchProfile& arch,
                        const semperm::simmpi::NetworkModel& net,
                        const OsuSeries& s, std::size_t bytes,
                        std::size_t depth, std::uint64_t salt) {
  sw::OsuParams p;
  p.arch = arch;
  p.net = net;
  p.queue = semperm::match::QueueConfig::from_label(s.queue);
  p.heater = s.heater;
  p.msg_bytes = bytes;
  p.queue_depth = depth;
  // The figure benches' quick tier: one warm-up and two measured
  // iterations per point.
  p.iterations = 2;
  p.warmup_iterations = 1;
  p.seed ^= salt;
  return p;
}

std::vector<Operation> osu_operations(std::uint64_t salt) {
  struct Testbed {
    const char* name;
    sc::ArchProfile arch;
    semperm::simmpi::NetworkModel net;
  };
  const Testbed testbeds[] = {
      {"SNB", sc::sandy_bridge(), semperm::simmpi::qdr_infiniband()},
      {"BDW", sc::broadwell(), semperm::simmpi::omnipath()},
  };
  std::vector<Operation> ops;
  for (const Testbed& t : testbeds) {
    for (const OsuSeries& s : kTemporalSeries) {
      const std::string base = std::string(t.name) + "/" + s.label;
      // Panel (a): message-size sweep at search depth 1024.
      for (const std::size_t bytes : {1ul, 16ul, 256ul, 4096ul, 65536ul,
                                      1048576ul})
        ops.push_back({base + "/a/bytes=" + std::to_string(bytes),
                       osu_point(t.arch, t.net, s, bytes, 1024, salt)});
      // Panels (b) and (c): search-depth sweeps at 1 B and 4 KiB.
      for (const std::size_t bytes : {1ul, 4096ul})
        for (const std::size_t depth : {1ul, 8ul, 64ul, 512ul, 4096ul})
          ops.push_back({base + (bytes == 1 ? "/b" : "/c") +
                             "/depth=" + std::to_string(depth),
                         osu_point(t.arch, t.net, s, bytes, depth, salt)});
    }
  }
  return ops;
}

// --- app_fds: Fig. 10 FDS proxy -------------------------------------------

std::vector<Operation> fds_operations(std::uint64_t salt) {
  using semperm::apps::FdsSystem;
  const auto lla = semperm::match::QueueConfig::from_label("lla-2");
  const auto lla_large = semperm::match::QueueConfig::from_label("lla-large");
  std::vector<Operation> ops;
  const auto add = [&](const std::string& label, sw::AppModelParams p) {
    p.seed ^= salt;
    // The figure bench's quick tier: a fifth of the measured time steps.
    p.phases /= 5;
    ops.push_back({label, std::move(p)});
  };
  for (const int procs : {128, 256, 512, 1024, 2048, 4096, 8192}) {
    const std::string n = "/procs=" + std::to_string(procs);
    if (procs <= 1024) {
      const auto bdw = semperm::apps::fds_params(procs, FdsSystem::kBroadwell);
      add("BDW/baseline" + n, bdw);
      auto v = bdw;
      v.queue = lla;
      add("BDW/LLA" + n, v);
    }
    const auto nhm = semperm::apps::fds_params(procs, FdsSystem::kNehalem);
    add("NHM/baseline" + n, nhm);
    auto hc = nhm;
    hc.heater = sw::HeaterMode::kPerElement;
    add("NHM/HC" + n, hc);
    if (procs <= 4096) {
      auto v = nhm;
      v.queue = lla;
      add("NHM/LLA" + n, v);
      v.heater = sw::HeaterMode::kPooled;
      add("NHM/HC+LLA" + n, v);
    }
    auto large = nhm;
    large.queue = lla_large;
    add("NHM/LLA-large" + n, large);
  }
  return ops;
}

// --- traffic_overload: steering across the LLC crossover ------------------

constexpr std::uint64_t kTrafficPackets = 60'000;

st::SteeringParams steering_point(const sc::ArchProfile& arch,
                                  std::uint64_t flows, std::uint64_t salt) {
  st::SteeringParams p;
  p.arch = arch;
  p.gen.flows = flows;
  p.gen.seed ^= salt;
  p.packets = kTrafficPackets;
  return p;
}

std::vector<Operation> traffic_operations(std::uint64_t salt) {
  struct Testbed {
    const char* name;
    sc::ArchProfile arch;
  };
  const Testbed testbeds[] = {{"SNB", sc::sandy_bridge()},
                              {"BDW", sc::broadwell()}};
  std::vector<Operation> ops;
  for (const Testbed& t : testbeds) {
    for (const std::uint64_t flows : {100'000ul, 1'000'000ul}) {
      const std::string base =
          std::string(t.name) + "/flows=" + std::to_string(flows);
      // Steady envelope at the figure's peak skew, heater off and on.
      for (const bool heater : {false, true}) {
        st::SteeringParams p = steering_point(t.arch, flows, salt);
        p.gen.zipf_s = 1.05;
        p.heater_on = heater;
        ops.push_back(
            {base + "/steady/heater=" + (heater ? "on" : "off"), p});
      }
      // Flash crowd at 10x offered load through the resilience layer, in
      // the overload campaign's overcommitted-table configuration.
      st::SteeringParams p = steering_point(t.arch, flows, salt);
      p.gen.zipf_s = 1.1;
      p.table_slots = 4096;
      p.heater_on = true;
      p.gen.pattern = st::TemporalPattern::kFlashCrowd;
      p.gen.crowd.burst_start = kTrafficPackets / 4;
      p.gen.crowd.burst_len = kTrafficPackets / 2;
      p.gen.crowd.crowd_flows = std::uint64_t{1} << 18;
      p.gen.crowd.fraction = 0.85;
      p.res.enabled = true;
      p.res.admission_on = true;
      p.res.service_numer = 1;
      p.res.service_denom = 10;
      ops.push_back({base + "/flash/10x", p});
    }
  }
  return ops;
}

// --- table1_mt: Table 1 decompositions on the KNL CoherentHierarchy --------

std::vector<Operation> mt_operations(std::uint64_t salt) {
  // Table 1's 5- and 27-point rows, one seeded trial per operation. The
  // cheap 5-point rows run under five trial seeds each, the 27-point rows
  // under four (8x8x4), two (1x1x128) and one (the 1x1x256 giant), so the
  // median falls among the 5-point rows, the p75 tail in the middle of the
  // 8x8x4 trials, and a pass stays a few seconds long.
  std::vector<Operation> ops;
  for (sm::MtDecompParams p : sm::table1_rows()) {
    int variants = 0;
    if (p.stencil == sm::Stencil::k5pt)
      variants = 5;
    else if (p.stencil == sm::Stencil::k27pt)
      variants = p.grid.nz == 256 ? 1 : p.grid.nz == 128 ? 2 : 4;
    const std::string row =
        p.grid.to_string() + "/" + sm::stencil_name(p.stencil);
    for (int v = 0; v < variants; ++v) {
      sm::MtDecompParams q = p;
      q.trials = 1;
      q.seed ^= salt ^ (v == 0 ? 0 : splitmix64(static_cast<std::uint64_t>(v)));
      ops.push_back({row + "/trial=" + std::to_string(v), q});
    }
  }
  return ops;
}

template <class Result>
OpOutcome outcome_of(const Result& r) {
  return {fingerprint(r), check_identities(r)};
}

}  // namespace

std::vector<Operation> make_operations(Workload w, std::uint64_t seed) {
  const std::uint64_t salt = salt_of(seed);
  switch (w) {
    case Workload::kOsuTemporal:
      return osu_operations(salt);
    case Workload::kAppFds:
      return fds_operations(salt);
    case Workload::kTrafficOverload:
      return traffic_operations(salt);
    case Workload::kTable1Mt:
      return mt_operations(salt);
  }
  return {};
}

OpOutcome run_library(const Operation& op) {
  try {
    return std::visit(
        [](const auto& p) -> OpOutcome {
          using P = std::decay_t<decltype(p)>;
          if constexpr (std::is_same_v<P, sw::OsuParams>)
            return outcome_of(sw::run_osu_bw(p));
          else if constexpr (std::is_same_v<P, sw::AppModelParams>)
            return outcome_of(sw::run_app_model(p));
          else if constexpr (std::is_same_v<P, st::SteeringParams>)
            return outcome_of(st::run_steering(p));
          else
            return outcome_of(sm::run_mt_decomp(p));
        },
        op.params);
  } catch (const std::exception& e) {
    return {0, std::string("threw: ") + e.what()};
  }
}

void shrink_for_selftest(Operation& op) {
  std::visit(
      [](auto& p) {
        using P = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<P, sw::OsuParams>) {
          p.queue_depth = std::min<std::size_t>(p.queue_depth, 64);
        } else if constexpr (std::is_same_v<P, sw::AppModelParams>) {
          p.phases = 1;
          p.standing_depth = std::min<std::size_t>(p.standing_depth, 256);
        } else if constexpr (std::is_same_v<P, st::SteeringParams>) {
          p.gen.flows = 4096;
          p.packets = 16'384;
          p.epoch_packets = 2048;
          p.gen.crowd.burst_start = p.packets / 4;
          p.gen.crowd.burst_len = p.packets / 2;
          p.gen.crowd.crowd_flows = 4096;
        } else {
          p.grid = p.grid.nz == 1 ? sm::ThreadGrid{8, 4, 1}
                                  : sm::ThreadGrid{2, 2, 4};
          p.trials = 1;
        }
      },
      op.params);
}

}  // namespace perfbench
