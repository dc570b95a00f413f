#include "traffic/steering.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "cachesim/heater.hpp"
#include "cachesim/hierarchy.hpp"
#include "cachesim/mem_model.hpp"
#include "check/audit.hpp"
#include "common/assert.hpp"
#include "match/factory.hpp"
#include "memlayout/arena.hpp"
#include "obs/metrics.hpp"
#include "obs/owner.hpp"
#include "obs/trace.hpp"
#include "resilience/admission.hpp"
#include "resilience/backpressure.hpp"
#include "resilience/degradation.hpp"

namespace semperm::traffic {

namespace {

/// Rule-table identities: tags are partitioned so the miss-path probe
/// pattern can never match a rule entry (the walk always inspects the
/// full list — a steering miss pays for the whole rule table).
constexpr std::int32_t kRuleTagBase = 1'000'000;
constexpr std::int16_t kRuleRank = 2;
constexpr std::int32_t kProbeRank = 3;
constexpr std::int32_t kProbeTag = 7;

/// Pending-walk identities (resilience path): each queued miss posts a
/// receive on a dedicated match engine's PRQ under a tag unique while the
/// slot is occupied, so servicing the FIFO head is an exact-match
/// incoming(). The rank is disjoint from every rule/probe identity.
constexpr std::int32_t kPendingRank = 5;
constexpr std::int32_t kPendingTagBase = 2'000'000;

}  // namespace

SteeringResult run_steering(const SteeringParams& p) {
  SEMPERM_ASSERT(p.packets > 0 && p.epoch_packets > 0 && p.chunk_lines > 0);
  if (p.res.enabled) {
    SEMPERM_ASSERT_MSG(p.res.queue_low < p.res.queue_high &&
                           p.res.queue_high <= p.res.queue_capacity,
                       "watermarks must satisfy low < high <= capacity");
    SEMPERM_ASSERT(p.res.service_numer > 0 && p.res.service_denom > 0);
  }

  cachesim::Hierarchy hier(p.arch);
  cachesim::SimMem mem(hier);
  memlayout::AddressSpace space;

  // The steering-rule table: a match engine whose unexpected queue holds
  // `rules` never-matching entries. bundle->probe() is the slow path.
  match::QueueConfig qcfg;
  qcfg.arena_bytes = std::size_t{1} << 20;
  qcfg.layout_seed ^= p.gen.seed ^ kTrafficDefaultSeed;
  auto bundle = match::make_engine(mem, space, qcfg);
  std::vector<match::MatchRequest> rule_reqs(p.rules);
  for (std::size_t i = 0; i < p.rules; ++i) {
    rule_reqs[i] = match::MatchRequest(match::RequestKind::kUnexpected, i);
    match::MatchRequest* hit = bundle->incoming(
        match::Envelope{kRuleTagBase + static_cast<std::int32_t>(i), kRuleRank,
                        0},
        &rule_reqs[i]);
    SEMPERM_ASSERT(hit == nullptr);
  }
  const match::Pattern miss_pattern =
      match::Pattern::make(kProbeRank, kProbeTag, 0);

  // Resilience plumbing (DESIGN.md §17). The essential-rules engine is the
  // L2 rule-walk budget: a second rule table holding only the essential
  // head, probed instead of the full one while degraded. The pending
  // engine's PRQ is the bounded queue of misses awaiting their slow-path
  // walk; its UMQ stays empty by construction (every service matches).
  using Bundle = decltype(bundle);
  Bundle essential{};
  Bundle pending{};
  std::vector<match::MatchRequest> ess_reqs;
  std::vector<match::MatchRequest> pending_recvs;
  std::vector<match::MatchRequest> pending_msgs;
  std::unique_ptr<resilience::AdmissionFilter> filter;
  std::optional<resilience::BackpressureValve> valve;
  std::unique_ptr<resilience::DegradationManager> ladder;
  if (p.res.enabled) {
    match::QueueConfig ecfg = qcfg;
    ecfg.layout_seed ^= 0xe55e7a1ULL;
    essential = match::make_engine(mem, space, ecfg);
    const std::size_t ess_rules = std::min(p.rules, p.res.essential_rules);
    ess_reqs.resize(ess_rules);
    for (std::size_t i = 0; i < ess_rules; ++i) {
      ess_reqs[i] = match::MatchRequest(match::RequestKind::kUnexpected, i);
      match::MatchRequest* hit = essential->incoming(
          match::Envelope{kRuleTagBase + static_cast<std::int32_t>(i),
                          kRuleRank, 0},
          &ess_reqs[i]);
      SEMPERM_ASSERT(hit == nullptr);
    }
    match::QueueConfig pcfg = qcfg;
    pcfg.layout_seed ^= 0x9e4d177ULL;
    pending = match::make_engine(mem, space, pcfg);
    pending_recvs.resize(p.res.queue_capacity);
    pending_msgs.resize(p.res.queue_capacity);
    if (p.res.admission_on) {
      resilience::AdmissionConfig acfg;
      acfg.seed = p.gen.seed ^ 0xad3155f1ULL;
      acfg.age_period = p.res.admission_age_period != 0
                            ? p.res.admission_age_period
                            : p.epoch_packets;
      filter = std::make_unique<resilience::AdmissionFilter>(acfg);
    }
    valve.emplace(p.res.queue_high, p.res.queue_low);
    if (p.res.ladder_on) {
      resilience::DegradationConfig dcfg;
      dcfg.degrade_after_checks = p.res.degrade_after_checks;
      dcfg.recover_after_checks = p.res.recover_after_checks;
      dcfg.probation_checks = p.res.probation_checks;
      dcfg.miss_rate_high = p.res.miss_rate_high;
      ladder = std::make_unique<resilience::DegradationManager>(dcfg);
    }
  }

  FlowTableConfig tcfg = auto_geometry(p.gen.flows, p.table_ways);
  if (p.table_slots != 0) tcfg.slots = p.table_slots;
  tcfg.salt ^= p.gen.seed;
  FlowTable table(tcfg);
  table.attach_sim(space);
  table.set_admission(filter.get());

  std::unique_ptr<cachesim::SimHeater> heater;
  std::size_t rules_region_handle = 0;
  bool rules_region_live = false;
  if (p.heater_on) {
    cachesim::SimHeaterConfig hc;
    hc.capacity_bytes = p.heater_capacity_bytes;
    hc.period_ns = p.heater_period_ns;
    hc.refresh_window_ns = p.heater_refresh_window_ns;
    heater = std::make_unique<cachesim::SimHeater>(hier, hc);
    // The flow cache is the heated tail; the rule table rides along in
    // whatever budget remains (it is registered second, and SimHeater
    // heats oldest registration first).
    heater->register_region(table.sim_first_line() * kCacheLine,
                            table.storage_bytes());
    rules_region_handle = heater->register_region(
        bundle.arena->sim_base(), std::max<std::size_t>(bundle.arena->used(), 1));
    rules_region_live = true;
  }

  std::unique_ptr<fault::FaultInjector> injector;
  if (p.fault != nullptr && p.fault->any_active())
    injector = std::make_unique<fault::FaultInjector>(*p.fault);

  obs::Gauge& live_flows_metric =
      obs::MetricsRegistry::global().gauge("traffic.live_flows");
  obs::Counter& packets_metric =
      obs::MetricsRegistry::global().counter("traffic.packets");
  // Per-miss rule-table walk cost and per-flush steering chunk size.
  // Recording happens per miss / per flush, not per simulated access, so
  // the histogram mutex stays off the hot path.
  obs::Histogram& miss_walk_hist = obs::MetricsRegistry::global().histogram(
      "match.miss_walk_cycles", /*bucket_width=*/64);
  obs::Histogram& steer_chunk_hist = obs::MetricsRegistry::global().histogram(
      "traffic.steer_chunk_lines", /*bucket_width=*/1);
  obs::Gauge& queue_depth_metric =
      obs::MetricsRegistry::global().gauge("resilience.queue_depth");
  // Residency attribution (DESIGN.md §16): lines the flow table streams
  // through the hierarchy are owned by "flow_table"; lines the steering
  // miss path walks in the rule table are owned by "rule_table".
  SEMPERM_TRACE_ONLY(
      const obs::OwnerId flow_table_owner = obs::intern_owner("flow_table");
      const obs::OwnerId rule_table_owner = obs::intern_owner("rule_table");)

  FlowGenerator gen(p.gen);
  SteeringResult res;
  std::vector<Addr> chunk;
  chunk.reserve(p.chunk_lines + p.table_ways + 1);
  Cycles miss_walk_cycles = 0;
  std::uint64_t epoch_no = 0;
  SEMPERM_TRACE_ONLY(const std::uint16_t track =
                         obs::intern_track("traffic/steering");)

  const auto flush = [&] {
    if (chunk.empty()) return;
    SEMPERM_OWNER_SCOPE(flow_table_owner);
    steer_chunk_hist.add(chunk.size());
    mem.work(hier.simulate({chunk.data(), chunk.size()}));
    chunk.clear();
  };

  // Resilience loop state. `level` mirrors the ladder; `active_rules`
  // is the engine the slow path walks at the current level.
  int level = 0;
  Bundle* active_rules = &bundle;
  std::uint64_t service_tokens = 0;
  std::uint64_t pending_head = 0;
  std::uint64_t pending_tail = 0;
  std::size_t pending_count = 0;
  // Deepest the queue got since the last health check: the ladder's
  // queue signal. An instantaneous boundary sample would miss the whole
  // saw-tooth the valve carves between the watermarks.
  std::size_t epoch_peak_depth = 0;
  double miss_ewma = 0.0;
  std::uint64_t ewma_last_lookups = 0;
  std::uint64_t ewma_last_misses = 0;
  const FlowTableStats& ts = table.stats();

  // Enqueue one miss onto the pending PRQ. The valve keeps the depth at
  // or below the high watermark, strictly below capacity.
  const auto post_pending = [&] {
    SEMPERM_ASSERT_MSG(pending_count < p.res.queue_capacity,
                       "pending ring overflow — the valve must bound depth");
    const std::size_t slot =
        static_cast<std::size_t>(pending_tail % p.res.queue_capacity);
    pending_recvs[slot] = match::MatchRequest(match::RequestKind::kRecv, slot);
    match::MatchRequest* got = pending->post_recv(
        match::Pattern::make(kPendingRank,
                             kPendingTagBase + static_cast<std::int32_t>(slot),
                             0),
        &pending_recvs[slot]);
    SEMPERM_ASSERT_MSG(got == nullptr,
                       "the pending engine's UMQ must stay empty");
    ++pending_tail;
    ++pending_count;
    if (pending_count > epoch_peak_depth) epoch_peak_depth = pending_count;
  };

  // Service the FIFO head: complete its posted receive, then pay for the
  // slow-path rule walk against the level-selected rule table.
  const auto service_one = [&] {
    const std::size_t slot =
        static_cast<std::size_t>(pending_head % p.res.queue_capacity);
    pending_msgs[slot] =
        match::MatchRequest(match::RequestKind::kUnexpected, slot);
    match::MatchRequest* hit = pending->incoming(
        match::Envelope{kPendingTagBase + static_cast<std::int32_t>(slot),
                        kPendingRank, 0},
        &pending_msgs[slot]);
    SEMPERM_ASSERT_MSG(hit == &pending_recvs[slot],
                       "pending service must match its own posted receive");
    ++pending_head;
    --pending_count;
    ++res.serviced_walks;
    SEMPERM_OWNER_SCOPE(rule_table_owner);
    const Cycles mark = mem.cycles();
    const auto env = (*active_rules)->probe(miss_pattern);
    SEMPERM_ASSERT_MSG(!env.has_value(), "probe pattern matched a rule");
    const Cycles walk = mem.cycles() - mark;
    miss_walk_cycles += walk;
    miss_walk_hist.add(walk);
  };

  // Apply the ladder's levers for a new level (DESIGN.md §17.3).
  const auto apply_level = [&](int lvl) {
    level = lvl;
    if (lvl > res.level_max) res.level_max = lvl;
    if (filter) filter->set_strict_margin(lvl >= 1 ? p.res.strict_margin : 0);
    active_rules = (lvl >= 2 && essential.engine != nullptr) ? &essential
                                                             : &bundle;
    if (heater) {
      // L2+ heater essential-only: stop spending refresh budget on the
      // rule table; the flow cache (registered first, heated first) keeps
      // its full share. De-escalation re-registers the rules at the back
      // of the heating order.
      if (lvl >= 2 && rules_region_live) {
        heater->unregister_region(rules_region_handle);
        rules_region_live = false;
      } else if (lvl < 2 && !rules_region_live) {
        rules_region_handle = heater->register_region(
            bundle.arena->sim_base(),
            std::max<std::size_t>(bundle.arena->used(), 1));
        rules_region_live = true;
      }
    }
  };

  for (std::uint64_t pkt = 0; pkt < p.packets; ++pkt) {
    if (pkt % p.epoch_packets == 0) {
      flush();
      ++epoch_no;
      SEMPERM_TRACE_INSTANT(obs::Category::kTraffic, "epoch", track, epoch_no,
                            static_cast<double>(table.live_flows()));
      // End-of-epoch occupancy: the flow-table residency built up over
      // the last epoch, sampled *before* the emulated compute phase
      // displaces it (pollute on an unpartitioned cache is a full
      // flush — sampling after it would only ever read zeros).
      SEMPERM_TRACE_ONLY(if (obs::trace_on()) {
        obs::MetricsRegistry::global().sample(obs::sim_now());
        hier.trace_sample_occupancy(obs::sim_now());
      })
      if (p.compute_working_set_bytes > 0)
        hier.pollute(p.compute_working_set_bytes);
      if (heater) {
        if (injector && injector->heater_stalls(epoch_no))
          ++res.stalled_refreshes;
        else
          res.heated_lines_refreshed += heater->refresh();
      }
      live_flows_metric.set(static_cast<double>(table.live_flows()));
      // Start-of-epoch occupancy: what survived the compute phase plus
      // what the heater just re-heated — the other edge of the
      // occupancy saw-tooth the §4.3 story is about.
      SEMPERM_TRACE_ONLY(
          if (obs::trace_on()) hier.trace_sample_occupancy(obs::sim_now());)
      if (ladder) {
        // Epoch-boundary health check on the simulated clock. The miss
        // rate counts *demand* misses (steer misses plus degraded probe
        // misses) so a ladder that blinds itself at L3 cannot fake
        // health — recovery requires the traffic itself to cool off.
        const std::uint64_t lk = ts.lookups + ts.probe_lookups;
        const std::uint64_t dm =
            ts.misses + (ts.probe_lookups - ts.probe_hits);
        if (lk > ewma_last_lookups) {
          const double rate =
              static_cast<double>(dm - ewma_last_misses) /
              static_cast<double>(lk - ewma_last_lookups);
          miss_ewma = 0.75 * miss_ewma + 0.25 * rate;
        }
        ewma_last_lookups = lk;
        ewma_last_misses = dm;
        resilience::HealthSignals sig;
        sig.queue_depth = epoch_peak_depth;
        sig.queue_high_watermark = p.res.queue_high;
        sig.miss_rate_ewma = miss_ewma;
        const int lvl = ladder->check_once(mem.cycles(), sig);
        if (lvl != level) apply_level(lvl);
        queue_depth_metric.set(static_cast<double>(pending_count));
        epoch_peak_depth = pending_count;
      }
    }
    if (gen.in_crowd_window(pkt) && pkt == p.gen.crowd.burst_start)
      SEMPERM_TRACE_INSTANT(obs::Category::kTraffic, "flash_crowd", track,
                            p.gen.crowd.burst_len, 0.0);
    const std::uint64_t flow = gen.next();
    packets_metric.add(1);
    if (p.res.enabled) {
      // One arrival slot of slow-path service elapses whether or not this
      // arrival survives: the token bucket is the offered-load model.
      service_tokens += p.res.service_numer;
      while (service_tokens >= p.res.service_denom && pending_count > 0) {
        service_tokens -= p.res.service_denom;
        service_one();
      }
      if (pending_count == 0 && service_tokens > p.res.service_denom)
        service_tokens = p.res.service_denom;  // idle service does not bank
    }
    if (injector) {
      // Datagram semantics: a dropped arrival is simply lost (no
      // retransmit chain), so conservation reads generated == lookups +
      // shed + dropped. Only the drop site is consulted on this path.
      const fault::FaultDecision d =
          injector->decide(/*src=*/1, /*dst=*/0, pkt + 1, /*attempt=*/0);
      if (d.drop) {
        ++res.dropped;
        continue;
      }
    }
    if (valve && valve->update(pending_count)) {
      ++res.shed_backpressure;
      continue;
    }
    const bool standing = flow < p.gen.flows;
    if (p.res.enabled && level >= 3) {
      // L3 shed-new-flows: residents are still served from the table;
      // misses are shed outright (no install, no walk, no queue entry).
      const bool hit = table.probe(flow, &chunk);
      if (standing) {
        ++res.hot_lookups;
        res.hot_hits += hit ? 1 : 0;
      }
    } else {
      const bool hit = table.steer(flow, &chunk);
      if (standing) {
        ++res.hot_lookups;
        res.hot_hits += hit ? 1 : 0;
      }
      if (!hit) {
        if (p.res.enabled) {
          post_pending();
        } else {
          SEMPERM_OWNER_SCOPE(rule_table_owner);
          const Cycles mark = mem.cycles();
          const auto env = bundle->probe(miss_pattern);
          SEMPERM_ASSERT_MSG(!env.has_value(), "probe pattern matched a rule");
          const Cycles walk = mem.cycles() - mark;
          miss_walk_cycles += walk;
          miss_walk_hist.add(walk);
        }
      }
    }
    if (chunk.size() >= p.chunk_lines) flush();
  }
  // Quiesce: every admitted miss completes its slow-path walk before the
  // run ends — serviced_walks == misses is part of the audit.
  while (pending_count > 0) service_one();
  flush();
  live_flows_metric.set(static_cast<double>(table.live_flows()));

  res.generated = gen.generated();
  res.lookups = ts.lookups + ts.probe_lookups;
  res.hits = ts.hits + ts.probe_hits;
  res.misses = ts.misses;
  res.shed_degraded = ts.probe_lookups - ts.probe_hits;
  res.shed = res.shed_backpressure + res.shed_degraded;
  res.admission_rejects = ts.admission_rejects;
  res.insertions = ts.insertions;
  res.evictions = ts.evictions;
  res.hit_ratio =
      res.lookups > 0
          ? static_cast<double>(res.hits) / static_cast<double>(res.lookups)
          : 0.0;
  res.hot_hit_ratio = res.hot_lookups > 0
                          ? static_cast<double>(res.hot_hits) /
                                static_cast<double>(res.hot_lookups)
                          : 0.0;
  res.total_cycles = mem.cycles();
  res.ns_per_packet =
      p.arch.cycles_to_ns(res.total_cycles) /
      std::max<double>(1.0, static_cast<double>(res.lookups));
  res.miss_walk_ns = ts.misses > 0
                         ? p.arch.cycles_to_ns(miss_walk_cycles) /
                               static_cast<double>(ts.misses)
                         : 0.0;
  const auto& llc = hier.level(hier.level_count() - 1).stats();
  res.llc_hit_rate = llc.hit_rate();
  res.dram_per_packet =
      static_cast<double>(hier.stats().dram_fetches) /
      std::max<double>(1.0, static_cast<double>(res.lookups));
  res.epochs = epoch_no;
  res.live_flows = table.live_flows();
  if (injector) res.faults = injector->stats();
  if (valve) res.peak_queue_depth = valve->stats().peak_depth;
  if (ladder) {
    const resilience::DegradationStats ds = ladder->stats();
    res.level_final = ds.level;
    res.escalations = ds.escalations;
    res.recoveries = ds.recoveries;
  }
  if (p.res.enabled) {
    obs::MetricsRegistry::global().counter("traffic.shed").add(res.shed);
    obs::MetricsRegistry::global()
        .counter("traffic.admission_rejects")
        .add(res.admission_rejects);
  }

  // The shed-conservation identity (DESIGN.md §17.2): every generated
  // arrival is accounted exactly once.
  SEMPERM_AUDIT_CHECK(
      res.generated == res.hits + res.misses + res.shed + res.dropped,
      "steering shed-conservation violated: generated "
          << res.generated << " != hits " << res.hits << " + misses "
          << res.misses << " + shed " << res.shed << " + dropped "
          << res.dropped);
  SEMPERM_AUDIT_CHECK(!p.res.enabled || res.serviced_walks == res.misses,
                      "pending-walk conservation violated: serviced "
                          << res.serviced_walks << " != misses "
                          << res.misses);
  SEMPERM_AUDIT_ONLY(if (p.res.enabled) {
    pending->audit();
    SEMPERM_AUDIT_CHECK(pending->prq().size() == 0 &&
                            pending->umq().size() == 0,
                        "pending queues must quiesce empty");
  })
  table.set_admission(nullptr);
  return res;
}

}  // namespace semperm::traffic
