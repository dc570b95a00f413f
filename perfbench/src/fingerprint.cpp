#include "fingerprint.hpp"

#include <cstdio>
#include <sstream>

namespace perfbench {

namespace {

void add_hierarchy(Fnv64& f, const semperm::cachesim::HierarchyStats& h) {
  f.add(h.accesses);
  f.add(h.lines_touched);
  f.add(h.dram_fetches);
  f.add(h.total_cycles);
  f.add(static_cast<std::uint64_t>(h.levels.size()));
  for (const auto& l : h.levels) {
    f.add(l.name);
    f.add(l.demand_hits);
    f.add(l.demand_misses);
    f.add(l.prefetch_fills);
    f.add(l.prefetch_hits);
    f.add(l.writebacks);
  }
}

void add_faults(Fnv64& f, const semperm::fault::FaultStats& s) {
  f.add(s.rolls);
  f.add(s.drops);
  f.add(s.duplicates);
  f.add(s.reorders);
  f.add(s.delays);
  f.add(s.heater_stalls);
  f.add(s.forced_deliveries);
}

}  // namespace

std::uint64_t fingerprint(const semperm::workloads::OsuResult& r) {
  Fnv64 f;
  f.add(r.bandwidth_mibps);
  f.add(r.msg_time_ns);
  f.add(r.match_ns_per_msg);
  f.add(r.mean_search_depth);
  f.add(r.dram_fetches_per_msg);
  f.add(r.llc_hit_rate);
  add_hierarchy(f, r.hier);
  add_faults(f, r.faults);
  f.add(r.stalled_refreshes);
  return f.value();
}

std::uint64_t fingerprint(const semperm::workloads::AppModelResult& r) {
  Fnv64 f;
  f.add(r.runtime_s);
  f.add(r.compute_s);
  f.add(r.comm_s);
  f.add(r.match_s);
  f.add(r.mean_search_depth);
  return f.value();
}

std::uint64_t fingerprint(const semperm::traffic::SteeringResult& r) {
  Fnv64 f;
  for (const std::uint64_t v :
       {r.generated, r.dropped, r.lookups, r.hits, r.misses, r.shed,
        r.insertions, r.evictions, r.shed_backpressure, r.shed_degraded,
        r.admission_rejects, r.serviced_walks, r.peak_queue_depth,
        r.escalations, r.recoveries, r.hot_lookups, r.hot_hits,
        r.total_cycles, r.epochs, r.heated_lines_refreshed,
        r.stalled_refreshes, r.live_flows})
    f.add(v);
  f.add(r.level_final);
  f.add(r.level_max);
  for (const double v : {r.hit_ratio, r.hot_hit_ratio, r.ns_per_packet,
                         r.miss_walk_ns, r.llc_hit_rate, r.dram_per_packet})
    f.add(v);
  add_faults(f, r.faults);
  return f.value();
}

std::uint64_t fingerprint(const semperm::motifs::MtDecompResult& r) {
  Fnv64 f;
  f.add(r.grid.nx);
  f.add(r.grid.ny);
  f.add(r.grid.nz);
  f.add(static_cast<int>(r.stencil));
  f.add(r.tr);
  f.add(r.ts);
  f.add(r.length);
  f.add(r.mean_search_depth);
  f.add(r.stddev_search_depth);
  f.add(r.mean_cycles_per_op);
  f.add(r.lock_transfers_per_op);
  const auto& c = r.coherence;
  for (const std::uint64_t v :
       {c.snoops, c.invalidations, c.interventions, c.clean_downgrades,
        c.upgrades, c.dirty_writebacks, c.back_invalidations,
        c.lock_transfers})
    f.add(v);
  return f.value();
}

std::string check_identities(const semperm::cachesim::HierarchyStats& h) {
  std::ostringstream os;
  if (h.levels.empty()) return "hierarchy reports no levels";
  std::uint64_t reaching = h.lines_touched;
  for (const auto& l : h.levels) {
    if (l.demand_hits + l.demand_misses != reaching) {
      os << l.name << ": hits " << l.demand_hits << " + misses "
         << l.demand_misses << " != accesses " << reaching;
      return os.str();
    }
    reaching = l.demand_misses;
  }
  if (h.dram_fetches != reaching) {
    os << "DRAM fetches " << h.dram_fetches << " != last-level misses "
       << reaching;
    return os.str();
  }
  return "";
}

std::string check_identities(const semperm::workloads::OsuResult& r) {
  return check_identities(r.hier);
}

std::string check_identities(const semperm::workloads::AppModelResult& r) {
  if (r.runtime_s != r.compute_s + r.comm_s)
    return "runtime != compute + comm";
  if (!(r.match_s >= 0.0 && r.match_s <= r.comm_s))
    return "match time outside [0, comm]";
  return "";
}

std::string check_identities(const semperm::traffic::SteeringResult& r) {
  std::ostringstream os;
  if (r.generated != r.hits + r.misses + r.shed + r.dropped) {
    os << "generated " << r.generated << " != hits " << r.hits
       << " + misses " << r.misses << " + shed " << r.shed << " + dropped "
       << r.dropped;
    return os.str();
  }
  if (r.lookups != r.hits + r.misses + r.shed_degraded) {
    os << "lookups " << r.lookups << " != hits + misses + degraded sheds";
    return os.str();
  }
  return "";
}

std::string check_identities(const semperm::motifs::MtDecompResult& r) {
  if (r.length <= 0) return "";
  if (!(r.mean_search_depth >= 1.0 &&
        r.mean_search_depth <= static_cast<double>(r.length)))
    return "mean search depth outside [1, length]";
  return "";
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
