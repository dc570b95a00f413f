#include "composed.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cachesim/heater.hpp"
#include "cachesim/hierarchy.hpp"
#include "cachesim/mem_model.hpp"
#include "coherence/coherent_hierarchy.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fingerprint.hpp"
#include "match/factory.hpp"
#include "memlayout/arena.hpp"
#include "obs/metrics.hpp"
#include "resilience/admission.hpp"
#include "resilience/backpressure.hpp"
#include "resilience/degradation.hpp"
#include "traffic/flow_gen.hpp"
#include "traffic/flow_table.hpp"

namespace perfbench {

namespace {

namespace sw = semperm::workloads;
namespace sc = semperm::cachesim;
namespace st = semperm::traffic;
namespace sm = semperm::motifs;
namespace mt = semperm::match;
using semperm::Addr;
using semperm::Cycles;
using semperm::kCacheLine;

/// SimMem with every access timed as a leaf span of the access layer —
/// the match engines are templated on the MemoryModel concept, so the
/// wrapper subtracts nested cache time from each match call.
class TimedMem {
 public:
  static constexpr bool kSimulated = true;

  TimedMem(sc::SimMem& inner, Tracer* t) : inner_(&inner), t_(t) {}

  void map_arena(const semperm::memlayout::Arena& a) { inner_->map_arena(a); }
  void read(const void* p, std::size_t n) {
    LeafSpan s(t_, Layer::kAccess);
    inner_->read(p, n);
  }
  void write(const void* p, std::size_t n) {
    LeafSpan s(t_, Layer::kAccess);
    inner_->write(p, n);
  }
  void work(Cycles c) { inner_->work(c); }
  Cycles cycles() const { return inner_->cycles(); }

 private:
  sc::SimMem* inner_;
  Tracer* t_;
};

static_assert(semperm::MemoryModel<TimedMem>);

struct Ctx {
  Tracer* t;
  LayerCounts n;
};

template <class Engine>
std::uint64_t inspected(Engine& e) {
  return e.prq().stats().entries_inspected + e.umq().stats().entries_inspected;
}

/// One match-engine call under a match span, counting the entries it
/// inspected (read outside the span, so the count costs the span nothing).
template <class Engine, class Call>
auto match_call(Ctx& c, Engine& e, Call&& call) {
  const std::uint64_t before = inspected(e);
  std::optional<decltype(call())> r;
  {
    Span s(c.t, Layer::kMatch);
    r.emplace(call());
  }
  c.n.match_entries += inspected(e) - before;
  return *r;
}

/// Fold a hierarchy's statistics since its last reset into the counts.
void absorb(Ctx& c, const sc::Hierarchy& h) {
  const sc::HierarchyStats& s = h.stats();
  c.n.access_lines += s.lines_touched;
  c.n.dram_fetches += s.dram_fetches;
  for (const auto& l : s.levels) {
    c.n.prefetch_fills += l.prefetch_fills;
    c.n.prefetch_hits += l.prefetch_hits;
  }
  if (!s.levels.empty()) {
    c.n.llc_hits += s.levels.back().demand_hits;
    c.n.llc_misses += s.levels.back().demand_misses;
  }
}

/// Compute-phase model call under a phase span.
void compute_phase(Ctx& c, sc::Hierarchy& h, std::size_t working_set) {
  Span s(c.t, Layer::kPhase);
  if (working_set == 0)
    h.flush_all();
  else
    h.pollute(working_set);
  ++c.n.phase_calls;
}

std::uint64_t heater_refresh(Ctx& c, sc::SimHeater& heater) {
  c.n.heater_budget_lines +=
      std::min(static_cast<double>(heater.registered_bytes()),
               static_cast<double>(heater.capacity_bytes()) *
                   heater.coverage()) /
      static_cast<double>(kCacheLine);
  std::uint64_t lines = 0;
  {
    Span s(c.t, Layer::kHeater);
    lines = heater.refresh();
  }
  ++c.n.heater_refreshes;
  c.n.heater_lines += lines;
  return lines;
}

void require_no_fault_plan(const semperm::fault::FaultPlan* plan) {
  SEMPERM_ASSERT_MSG(plan == nullptr || !plan->any_active(),
                     "composed drivers do not reproduce the fault plane");
}

// --- workloads::run_osu_bw -------------------------------------------------

constexpr std::int32_t kOsuUnmatchedTagBase = 1'000'000;
constexpr std::int16_t kOsuSenderRank = 1;
constexpr std::int16_t kOsuNobodyRank = 2;

sw::OsuResult osu_bw(const sw::OsuParams& params, Ctx& c) {
  SEMPERM_ASSERT(params.window > 0 && params.iterations > 0);
  require_no_fault_plan(params.fault);

  std::optional<sc::Hierarchy> hier_slot;
  {
    Span s(c.t, Layer::kBuild);
    hier_slot.emplace(params.arch);
  }
  sc::Hierarchy& hier = *hier_slot;
  sc::SimMem sim(hier);
  TimedMem mem(sim, c.t);
  semperm::memlayout::AddressSpace space;
  mt::EngineBundle<TimedMem> bundle;
  {
    Span s(c.t, Layer::kMatchPrepop);
    mt::QueueConfig cfg = params.queue;
    cfg.layout_seed ^= params.seed ^ sw::kOsuDefaultSeed;
    bundle = mt::make_engine(mem, space, cfg);
  }
  auto& registry = semperm::obs::MetricsRegistry::global();
  semperm::obs::Counter& iterations_metric = registry.counter("osu.iterations");
  semperm::obs::Gauge& heated_lines_metric =
      registry.gauge("osu.llc_heated_lines");
  semperm::obs::Histogram& match_cycles_hist =
      registry.histogram("match.iteration_cycles", /*bucket_width=*/64);

  if (params.arch.network_cache.present() || params.arch.llc_reserved_ways > 0) {
    Span s(c.t, Layer::kBuild);
    hier.mark_network_region(bundle.arena->sim_base(),
                             bundle.arena->capacity());
  }

  std::vector<mt::MatchRequest> depth_requests(params.queue_depth);
  {
    Span s(c.t, Layer::kMatchPrepop);
    for (std::size_t i = 0; i < params.queue_depth; ++i) {
      depth_requests[i] = mt::MatchRequest(mt::RequestKind::kRecv, i);
      mt::MatchRequest* m = bundle->post_recv(
          mt::Pattern::make(kOsuNobodyRank,
                            kOsuUnmatchedTagBase + static_cast<std::int32_t>(i),
                            /*ctx=*/0),
          &depth_requests[i]);
      SEMPERM_ASSERT(m == nullptr);
    }
  }

  std::unique_ptr<sc::SimHeater> heater;
  if (params.heater != sw::HeaterMode::kOff) {
    sc::SimHeaterConfig hc;
    hc.capacity_bytes = params.heater_capacity_bytes;
    heater = std::make_unique<sc::SimHeater>(hier, hc);
    if (params.heater == sw::HeaterMode::kPooled) {
      heater->register_region(bundle.arena->sim_base(),
                              std::max<std::size_t>(bundle.arena->used(), 1));
    } else {
      const std::size_t node = 4 * kCacheLine;
      const std::size_t used = bundle.arena->used();
      for (std::size_t off = 0; off < used; off += node)
        heater->register_region(bundle.arena->sim_base() + off,
                                std::min(node, used - off));
    }
  }
  const auto charge_heater_mutation = [&] {
    if (params.heater == sw::HeaterMode::kPerElement)
      mem.work(heater->mutation_cost());
  };

  semperm::RunningStats iter_time_ns;
  semperm::RunningStats match_ns_per_msg;
  std::vector<mt::MatchRequest> recvs(params.window);
  std::vector<mt::MatchRequest> msgs(params.window);

  const std::size_t total_iters = params.warmup_iterations + params.iterations;
  for (std::size_t it = 0; it < total_iters; ++it) {
    const bool measured = it >= params.warmup_iterations;
    if (measured && it == params.warmup_iterations) {
      absorb(c, hier);
      hier.reset_stats();
      bundle->prq().reset_stats();
    }
    // Bench::begin_iteration.
    if (params.clear_cache_between_iterations)
      compute_phase(c, hier, params.compute_working_set_bytes);
    if (heater) heater_refresh(c, *heater);
    iterations_metric.add(1);
    double heated = 0.0;
    {
      Span s(c.t, Layer::kResidentScan);
      heated = static_cast<double>(
          hier.level(hier.level_count() - 1)
              .resident_lines_filled_by(sc::FillReason::kHeater));
    }
    heated_lines_metric.set(heated);

    const Cycles mark = mem.cycles();
    for (std::size_t m = 0; m < params.window; ++m) {
      recvs[m] = mt::MatchRequest(mt::RequestKind::kRecv, m);
      mt::MatchRequest* hit = match_call(c, *bundle, [&] {
        return bundle->post_recv(
            mt::Pattern::make(kOsuSenderRank, static_cast<std::int32_t>(m), 0),
            &recvs[m]);
      });
      SEMPERM_ASSERT(hit == nullptr);
      charge_heater_mutation();
    }
    for (std::size_t m = 0; m < params.window; ++m) {
      msgs[m] = mt::MatchRequest(mt::RequestKind::kUnexpected, m);
      mt::MatchRequest* recv = match_call(c, *bundle, [&] {
        return bundle->incoming(
            mt::Envelope{static_cast<std::int32_t>(m), kOsuSenderRank, 0},
            &msgs[m]);
      });
      SEMPERM_ASSERT_MSG(recv != nullptr, "pre-posted receive must match");
      charge_heater_mutation();
    }
    const Cycles match_cycles = mem.cycles() - mark;

    const double cpu_ns =
        params.arch.cycles_to_ns(match_cycles) +
        static_cast<double>(params.window) * params.arch.sw_overhead_ns;
    const double per_msg_wire_ns = static_cast<double>(params.msg_bytes) /
                                   params.net.bandwidth_bytes_per_ns;
    const double wire_ns = static_cast<double>(params.window) * per_msg_wire_ns;
    const double chaos_ns = 0.0;
    const double iter_ns =
        params.net.latency_ns + std::max(cpu_ns, wire_ns) + chaos_ns;
    if (measured) {
      iter_time_ns.add(iter_ns);
      match_ns_per_msg.add(params.arch.cycles_to_ns(match_cycles) /
                           static_cast<double>(params.window));
      match_cycles_hist.add(match_cycles);
    }
  }
  absorb(c, hier);

  // finish().
  const std::size_t msgs_per_iter = params.window;
  const std::size_t bytes_per_iter = params.window * params.msg_bytes;
  sw::OsuResult r;
  const double mean_iter_ns = iter_time_ns.mean();
  r.bandwidth_mibps = static_cast<double>(bytes_per_iter) /
                      (mean_iter_ns * 1e-9) / (1024.0 * 1024.0);
  r.msg_time_ns = mean_iter_ns / static_cast<double>(msgs_per_iter);
  r.match_ns_per_msg = match_ns_per_msg.mean();
  const auto& prq_stats = bundle->prq().stats();
  r.mean_search_depth = prq_stats.mean_inspected();
  const auto& hs = hier.stats();
  r.dram_fetches_per_msg =
      static_cast<double>(hs.dram_fetches) /
      std::max<double>(1.0, static_cast<double>(prq_stats.searches));
  const auto& llc = hier.level(hier.level_count() - 1).stats();
  r.llc_hit_rate = llc.hit_rate();
  r.hier = hs;
  return r;
}

// --- workloads::run_app_model ----------------------------------------------

constexpr std::int32_t kAppStandingTagBase = 1'000'000;
constexpr std::int16_t kAppPeerRank = 1;
constexpr std::int16_t kAppNobodyRank = 2;

sw::AppModelResult app_model(const sw::AppModelParams& params, Ctx& c) {
  SEMPERM_ASSERT(params.phases > 0 && params.messages_per_phase > 0);
  SEMPERM_ASSERT(params.match_disorder >= 0.0 && params.match_disorder <= 1.0);

  std::optional<sc::Hierarchy> hier_slot;
  {
    Span s(c.t, Layer::kBuild);
    hier_slot.emplace(params.arch);
  }
  sc::Hierarchy& hier = *hier_slot;
  sc::SimMem sim(hier);
  TimedMem mem(sim, c.t);
  semperm::memlayout::AddressSpace space;
  mt::EngineBundle<TimedMem> bundle;
  std::vector<mt::MatchRequest> standing(params.standing_depth);
  semperm::Rng rng(params.seed);
  {
    Span s(c.t, Layer::kMatchPrepop);
    bundle = mt::make_engine(mem, space, params.queue);
    for (std::size_t i = 0; i < params.standing_depth; ++i) {
      standing[i] = mt::MatchRequest(mt::RequestKind::kRecv, i);
      mt::MatchRequest* hit = bundle->post_recv(
          mt::Pattern::make(kAppNobodyRank,
                            kAppStandingTagBase + static_cast<std::int32_t>(i),
                            0),
          &standing[i]);
      SEMPERM_ASSERT(hit == nullptr);
    }
  }

  std::unique_ptr<sc::SimHeater> heater;
  if (params.heater != sw::HeaterMode::kOff) {
    sc::SimHeaterConfig hc;
    hc.race_with_pollution = params.cold_cache_per_message;
    hc.scan_cost_per_region = params.heater_scan_cost;
    heater = std::make_unique<sc::SimHeater>(hier, hc);
    heater->register_region(bundle.arena->sim_base(),
                            std::max<std::size_t>(bundle.arena->used(), 1));
    if (params.heater == sw::HeaterMode::kPerElement) {
      const std::size_t node = 4 * kCacheLine;
      for (std::size_t i = 0; i + 1 < params.standing_depth; ++i)
        heater->register_region(bundle.arena->sim_base() + i * node, node);
    }
  }

  std::vector<mt::MatchRequest> recvs(params.messages_per_phase);
  std::vector<mt::MatchRequest> msgs(params.messages_per_phase);
  double total_match_ns = 0.0;

  for (std::size_t phase = 0; phase < params.phases; ++phase) {
    compute_phase(c, hier, params.compute_working_set_bytes);
    if (heater) heater_refresh(c, *heater);

    const Cycles mark = mem.cycles();
    for (std::size_t m = 0; m < params.messages_per_phase; ++m) {
      recvs[m] = mt::MatchRequest(mt::RequestKind::kRecv, m);
      mt::MatchRequest* hit = match_call(c, *bundle, [&] {
        return bundle->post_recv(
            mt::Pattern::make(kAppPeerRank, static_cast<std::int32_t>(m), 0),
            &recvs[m]);
      });
      SEMPERM_ASSERT(hit == nullptr);
      if (params.heater == sw::HeaterMode::kPerElement)
        mem.work(heater->mutation_cost());
    }
    std::vector<std::size_t> order(params.messages_per_phase);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    const auto disordered = static_cast<std::size_t>(
        params.match_disorder * static_cast<double>(order.size()));
    if (disordered > 1) {
      std::vector<std::size_t> window(
          order.end() - static_cast<std::ptrdiff_t>(disordered), order.end());
      rng.shuffle(window);
      std::copy(window.begin(), window.end(),
                order.end() - static_cast<std::ptrdiff_t>(disordered));
    }
    for (std::size_t idx : order) {
      if (params.cold_cache_per_message) {
        const Cycles before = mem.cycles();
        compute_phase(c, hier, params.compute_working_set_bytes);
        if (heater) heater_refresh(c, *heater);
        SEMPERM_ASSERT(mem.cycles() == before);
      }
      msgs[idx] = mt::MatchRequest(mt::RequestKind::kUnexpected, idx);
      mt::MatchRequest* recv = match_call(c, *bundle, [&] {
        return bundle->incoming(
            mt::Envelope{static_cast<std::int32_t>(idx), kAppPeerRank, 0},
            &msgs[idx]);
      });
      SEMPERM_ASSERT(recv != nullptr);
      if (params.heater == sw::HeaterMode::kPerElement)
        mem.work(heater->mutation_cost());
    }
    total_match_ns += params.arch.cycles_to_ns(mem.cycles() - mark);
  }
  absorb(c, hier);

  const double msgs_total = static_cast<double>(params.phases) *
                            static_cast<double>(params.messages_per_phase);
  const double sw_ns = msgs_total * params.arch.sw_overhead_ns;
  const double wire_ns = msgs_total * params.net.transfer_ns(params.msg_bytes) *
                         (1.0 - params.comm_overlap);

  sw::AppModelResult result;
  double match_total_ns = total_match_ns;
  double compute_total_ns =
      static_cast<double>(params.phases) * params.compute_ns_per_phase;
  if (heater && params.cold_cache_per_message) {
    const double duty = heater->duty();
    compute_total_ns *= 1.0 + duty * params.heater_interference;
    match_total_ns *= 1.0 + duty * params.heater_interference * 0.5;
  }
  result.match_s = match_total_ns * 1e-9;
  result.comm_s = (match_total_ns + sw_ns + wire_ns) * 1e-9;
  result.compute_s = compute_total_ns * 1e-9;
  result.runtime_s = result.compute_s + result.comm_s;
  result.mean_search_depth = bundle->prq().stats().mean_inspected();
  return result;
}

// --- traffic::run_steering -------------------------------------------------

constexpr std::int32_t kRuleTagBase = 1'000'000;
constexpr std::int16_t kRuleRank = 2;
constexpr std::int32_t kProbeRank = 3;
constexpr std::int32_t kProbeTag = 7;
constexpr std::int32_t kPendingRank = 5;
constexpr std::int32_t kPendingTagBase = 2'000'000;

st::SteeringResult steering(const st::SteeringParams& p, Ctx& c) {
  SEMPERM_ASSERT(p.packets > 0 && p.epoch_packets > 0 && p.chunk_lines > 0);
  if (p.res.enabled) {
    SEMPERM_ASSERT_MSG(p.res.queue_low < p.res.queue_high &&
                           p.res.queue_high <= p.res.queue_capacity,
                       "watermarks must satisfy low < high <= capacity");
    SEMPERM_ASSERT(p.res.service_numer > 0 && p.res.service_denom > 0);
  }
  require_no_fault_plan(p.fault);

  std::optional<sc::Hierarchy> hier_slot;
  {
    Span s(c.t, Layer::kBuild);
    hier_slot.emplace(p.arch);
  }
  sc::Hierarchy& hier = *hier_slot;
  sc::SimMem sim(hier);
  TimedMem mem(sim, c.t);
  semperm::memlayout::AddressSpace space;

  mt::QueueConfig qcfg;
  qcfg.arena_bytes = std::size_t{1} << 20;
  qcfg.layout_seed ^= p.gen.seed ^ st::kTrafficDefaultSeed;
  using Bundle = mt::EngineBundle<TimedMem>;
  Bundle bundle;
  std::vector<mt::MatchRequest> rule_reqs(p.rules);
  {
    Span s(c.t, Layer::kMatchPrepop);
    bundle = mt::make_engine(mem, space, qcfg);
    for (std::size_t i = 0; i < p.rules; ++i) {
      rule_reqs[i] = mt::MatchRequest(mt::RequestKind::kUnexpected, i);
      mt::MatchRequest* hit = bundle->incoming(
          mt::Envelope{kRuleTagBase + static_cast<std::int32_t>(i), kRuleRank,
                       0},
          &rule_reqs[i]);
      SEMPERM_ASSERT(hit == nullptr);
    }
  }
  const mt::Pattern miss_pattern = mt::Pattern::make(kProbeRank, kProbeTag, 0);

  Bundle essential{};
  Bundle pending{};
  std::vector<mt::MatchRequest> ess_reqs;
  std::vector<mt::MatchRequest> pending_recvs;
  std::vector<mt::MatchRequest> pending_msgs;
  std::unique_ptr<semperm::resilience::AdmissionFilter> filter;
  std::optional<semperm::resilience::BackpressureValve> valve;
  std::unique_ptr<semperm::resilience::DegradationManager> ladder;
  if (p.res.enabled) {
    {
      Span s(c.t, Layer::kMatchPrepop);
      mt::QueueConfig ecfg = qcfg;
      ecfg.layout_seed ^= 0xe55e7a1ULL;
      essential = mt::make_engine(mem, space, ecfg);
      const std::size_t ess_rules = std::min(p.rules, p.res.essential_rules);
      ess_reqs.resize(ess_rules);
      for (std::size_t i = 0; i < ess_rules; ++i) {
        ess_reqs[i] = mt::MatchRequest(mt::RequestKind::kUnexpected, i);
        mt::MatchRequest* hit = essential->incoming(
            mt::Envelope{kRuleTagBase + static_cast<std::int32_t>(i),
                         kRuleRank, 0},
            &ess_reqs[i]);
        SEMPERM_ASSERT(hit == nullptr);
      }
      mt::QueueConfig pcfg = qcfg;
      pcfg.layout_seed ^= 0x9e4d177ULL;
      pending = mt::make_engine(mem, space, pcfg);
    }
    pending_recvs.resize(p.res.queue_capacity);
    pending_msgs.resize(p.res.queue_capacity);
    Span s(c.t, Layer::kResilience);
    if (p.res.admission_on) {
      semperm::resilience::AdmissionConfig acfg;
      acfg.seed = p.gen.seed ^ 0xad3155f1ULL;
      acfg.age_period = p.res.admission_age_period != 0
                            ? p.res.admission_age_period
                            : p.epoch_packets;
      filter = std::make_unique<semperm::resilience::AdmissionFilter>(acfg);
    }
    valve.emplace(p.res.queue_high, p.res.queue_low);
    if (p.res.ladder_on) {
      semperm::resilience::DegradationConfig dcfg;
      dcfg.degrade_after_checks = p.res.degrade_after_checks;
      dcfg.recover_after_checks = p.res.recover_after_checks;
      dcfg.probation_checks = p.res.probation_checks;
      dcfg.miss_rate_high = p.res.miss_rate_high;
      ladder = std::make_unique<semperm::resilience::DegradationManager>(dcfg);
    }
  }

  std::optional<st::FlowTable> table_slot;
  {
    Span s(c.t, Layer::kTrafficBuild);
    st::FlowTableConfig tcfg = st::auto_geometry(p.gen.flows, p.table_ways);
    if (p.table_slots != 0) tcfg.slots = p.table_slots;
    tcfg.salt ^= p.gen.seed;
    table_slot.emplace(tcfg);
    table_slot->attach_sim(space);
    table_slot->set_admission(filter.get());
  }
  st::FlowTable& table = *table_slot;

  std::unique_ptr<sc::SimHeater> heater;
  std::size_t rules_region_handle = 0;
  bool rules_region_live = false;
  if (p.heater_on) {
    sc::SimHeaterConfig hc;
    hc.capacity_bytes = p.heater_capacity_bytes;
    hc.period_ns = p.heater_period_ns;
    hc.refresh_window_ns = p.heater_refresh_window_ns;
    heater = std::make_unique<sc::SimHeater>(hier, hc);
    heater->register_region(table.sim_first_line() * kCacheLine,
                            table.storage_bytes());
    rules_region_handle = heater->register_region(
        bundle.arena->sim_base(),
        std::max<std::size_t>(bundle.arena->used(), 1));
    rules_region_live = true;
  }

  auto& registry = semperm::obs::MetricsRegistry::global();
  semperm::obs::Gauge& live_flows_metric = registry.gauge("traffic.live_flows");
  semperm::obs::Counter& packets_metric = registry.counter("traffic.packets");
  semperm::obs::Histogram& miss_walk_hist =
      registry.histogram("match.miss_walk_cycles", /*bucket_width=*/64);
  semperm::obs::Histogram& steer_chunk_hist =
      registry.histogram("traffic.steer_chunk_lines", /*bucket_width=*/1);
  semperm::obs::Gauge& queue_depth_metric =
      registry.gauge("resilience.queue_depth");

  std::optional<st::FlowGenerator> gen_slot;
  {
    Span s(c.t, Layer::kZipfBuild);
    gen_slot.emplace(p.gen);
  }
  st::FlowGenerator& gen = *gen_slot;
  st::SteeringResult res;
  std::vector<Addr> chunk;
  chunk.reserve(p.chunk_lines + p.table_ways + 1);
  Cycles miss_walk_cycles = 0;
  std::uint64_t epoch_no = 0;

  const auto flush = [&] {
    if (chunk.empty()) return;
    steer_chunk_hist.add(chunk.size());
    Cycles cost = 0;
    {
      Span s(c.t, Layer::kAccess);
      cost = hier.simulate({chunk.data(), chunk.size()});
    }
    mem.work(cost);
    chunk.clear();
  };

  int level = 0;
  Bundle* active_rules = &bundle;
  std::uint64_t service_tokens = 0;
  std::uint64_t pending_head = 0;
  std::uint64_t pending_tail = 0;
  std::size_t pending_count = 0;
  std::size_t epoch_peak_depth = 0;
  double miss_ewma = 0.0;
  std::uint64_t ewma_last_lookups = 0;
  std::uint64_t ewma_last_misses = 0;
  const st::FlowTableStats& ts = table.stats();

  const auto post_pending = [&] {
    SEMPERM_ASSERT_MSG(pending_count < p.res.queue_capacity,
                       "pending ring overflow — the valve must bound depth");
    const std::size_t slot =
        static_cast<std::size_t>(pending_tail % p.res.queue_capacity);
    pending_recvs[slot] = mt::MatchRequest(mt::RequestKind::kRecv, slot);
    mt::MatchRequest* got = match_call(c, *pending, [&] {
      return pending->post_recv(
          mt::Pattern::make(kPendingRank,
                            kPendingTagBase + static_cast<std::int32_t>(slot),
                            0),
          &pending_recvs[slot]);
    });
    SEMPERM_ASSERT_MSG(got == nullptr,
                       "the pending engine's UMQ must stay empty");
    ++pending_tail;
    ++pending_count;
    if (pending_count > epoch_peak_depth) epoch_peak_depth = pending_count;
  };

  const auto service_one = [&] {
    const std::size_t slot =
        static_cast<std::size_t>(pending_head % p.res.queue_capacity);
    pending_msgs[slot] = mt::MatchRequest(mt::RequestKind::kUnexpected, slot);
    mt::MatchRequest* hit = match_call(c, *pending, [&] {
      return pending->incoming(
          mt::Envelope{kPendingTagBase + static_cast<std::int32_t>(slot),
                       kPendingRank, 0},
          &pending_msgs[slot]);
    });
    SEMPERM_ASSERT_MSG(hit == &pending_recvs[slot],
                       "pending service must match its own posted receive");
    ++pending_head;
    --pending_count;
    ++res.serviced_walks;
    const Cycles mark = mem.cycles();
    const auto env = match_call(c, **active_rules,
                                [&] { return (*active_rules)->probe(miss_pattern); });
    SEMPERM_ASSERT_MSG(!env.has_value(), "probe pattern matched a rule");
    const Cycles walk = mem.cycles() - mark;
    miss_walk_cycles += walk;
    miss_walk_hist.add(walk);
  };

  const auto apply_level = [&](int lvl) {
    level = lvl;
    if (lvl > res.level_max) res.level_max = lvl;
    if (filter) {
      Span s(c.t, Layer::kResilience);
      filter->set_strict_margin(lvl >= 1 ? p.res.strict_margin : 0);
    }
    active_rules =
        (lvl >= 2 && essential.engine != nullptr) ? &essential : &bundle;
    if (heater) {
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
      if (p.compute_working_set_bytes > 0)
        compute_phase(c, hier, p.compute_working_set_bytes);
      if (heater) res.heated_lines_refreshed += heater_refresh(c, *heater);
      live_flows_metric.set(static_cast<double>(table.live_flows()));
      if (ladder) {
        const std::uint64_t lk = ts.lookups + ts.probe_lookups;
        const std::uint64_t dm = ts.misses + (ts.probe_lookups - ts.probe_hits);
        if (lk > ewma_last_lookups) {
          const double rate = static_cast<double>(dm - ewma_last_misses) /
                              static_cast<double>(lk - ewma_last_lookups);
          miss_ewma = 0.75 * miss_ewma + 0.25 * rate;
        }
        ewma_last_lookups = lk;
        ewma_last_misses = dm;
        semperm::resilience::HealthSignals sig;
        sig.queue_depth = epoch_peak_depth;
        sig.queue_high_watermark = p.res.queue_high;
        sig.miss_rate_ewma = miss_ewma;
        int lvl = 0;
        {
          Span s(c.t, Layer::kResilience);
          lvl = ladder->check_once(mem.cycles(), sig);
        }
        if (lvl != level) apply_level(lvl);
        queue_depth_metric.set(static_cast<double>(pending_count));
        epoch_peak_depth = pending_count;
      }
    }
    std::uint64_t flow = 0;
    {
      LeafSpan s(c.t, Layer::kTrafficGen);
      flow = gen.next();
    }
    ++c.n.packets;
    packets_metric.add(1);
    if (p.res.enabled) {
      service_tokens += p.res.service_numer;
      while (service_tokens >= p.res.service_denom && pending_count > 0) {
        service_tokens -= p.res.service_denom;
        service_one();
      }
      if (pending_count == 0 && service_tokens > p.res.service_denom)
        service_tokens = p.res.service_denom;
    }
    if (valve) {
      bool shed = false;
      {
        LeafSpan s(c.t, Layer::kResilience);
        shed = valve->update(pending_count);
      }
      if (shed) {
        ++res.shed_backpressure;
        continue;
      }
    }
    const bool standing = flow < p.gen.flows;
    bool hit = false;
    ++c.n.steer_calls;
    if (p.res.enabled && level >= 3) {
      {
        LeafSpan s(c.t, Layer::kTrafficSteer);
        hit = table.probe(flow, &chunk);
      }
      if (standing) {
        ++res.hot_lookups;
        res.hot_hits += hit ? 1 : 0;
      }
    } else {
      {
        LeafSpan s(c.t, Layer::kTrafficSteer);
        hit = table.steer(flow, &chunk);
      }
      if (standing) {
        ++res.hot_lookups;
        res.hot_hits += hit ? 1 : 0;
      }
      if (!hit) {
        if (p.res.enabled) {
          post_pending();
        } else {
          const Cycles mark = mem.cycles();
          const auto env = match_call(c, *bundle,
                                      [&] { return bundle->probe(miss_pattern); });
          SEMPERM_ASSERT_MSG(!env.has_value(), "probe pattern matched a rule");
          const Cycles walk = mem.cycles() - mark;
          miss_walk_cycles += walk;
          miss_walk_hist.add(walk);
        }
      }
    }
    if (chunk.size() >= p.chunk_lines) flush();
  }
  while (pending_count > 0) service_one();
  flush();
  live_flows_metric.set(static_cast<double>(table.live_flows()));
  absorb(c, hier);

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
  res.miss_walk_ns = ts.misses > 0 ? p.arch.cycles_to_ns(miss_walk_cycles) /
                                         static_cast<double>(ts.misses)
                                   : 0.0;
  const auto& llc = hier.level(hier.level_count() - 1).stats();
  res.llc_hit_rate = llc.hit_rate();
  res.dram_per_packet =
      static_cast<double>(hier.stats().dram_fetches) /
      std::max<double>(1.0, static_cast<double>(res.lookups));
  res.epochs = epoch_no;
  res.live_flows = table.live_flows();
  if (valve) res.peak_queue_depth = valve->stats().peak_depth;
  if (ladder) {
    const semperm::resilience::DegradationStats ds = ladder->stats();
    res.level_final = ds.level;
    res.escalations = ds.escalations;
    res.recoveries = ds.recoveries;
  }
  if (p.res.enabled) {
    registry.counter("traffic.shed").add(res.shed);
    registry.counter("traffic.admission_rejects").add(res.admission_rejects);
  }
  table.set_admission(nullptr);

  c.n.steer_lookups += res.lookups;
  c.n.steer_hits += res.hits;
  c.n.generated += res.generated;
  c.n.shed += res.shed;
  return res;
}

// --- motifs::run_mt_decomp ------------------------------------------------

constexpr Addr kShadowLockLine = Addr{1} << 30;
constexpr Addr kShadowEntryBase = (Addr{1} << 30) + 16;

sm::MtDecompResult mt_decomp(const sm::MtDecompParams& params, Ctx& c) {
  const sm::DecompAnalysis analysis =
      sm::analyze_decomposition(params.grid, params.stencil);
  sm::MtDecompResult result;
  result.grid = params.grid;
  result.stencil = params.stencil;
  result.tr = analysis.tr;
  result.ts = analysis.ts;
  result.length = analysis.length;

  semperm::Rng trial_rng(params.seed);
  semperm::RunningStats depth_over_trials;
  constexpr std::int16_t kProxyRank = 1;

  std::unique_ptr<semperm::coherence::CoherentHierarchy> coh;
  unsigned ncores = 1;
  if (params.model_coherence) {
    ncores = params.cores != 0 ? params.cores
                               : std::min(params.arch.cores_per_socket, 64u);
    ncores = std::max(1u, std::min(ncores, 64u));
    Span s(c.t, Layer::kBuild);
    coh = std::make_unique<semperm::coherence::CoherentHierarchy>(params.arch,
                                                                  ncores);
  }
  const auto core_of = [&](int recv_cell) {
    return static_cast<unsigned>(recv_cell) % ncores;
  };
  const auto coherent = [&](unsigned core, Addr line, bool write) {
    ++c.n.coherent_lines;
    LeafSpan s(c.t, Layer::kCoherence);
    return coh->access_line(core, line, write);
  };
  int lock_holder = -1;
  std::uint64_t lock_transfers = 0;
  std::uint64_t coh_ops = 0;
  Cycles coh_cycles = 0;

  for (int trial = 0; trial < params.trials; ++trial) {
    semperm::Rng rng = trial_rng.fork();
    semperm::NativeMem mem;
    semperm::memlayout::AddressSpace space;
    mt::EngineBundle<semperm::NativeMem> bundle;
    {
      Span s(c.t, Layer::kMatchPrepop);
      bundle = mt::make_engine(mem, space, params.queue);
    }

    std::vector<std::vector<int>> by_recv_thread;
    {
      std::map<int, std::vector<int>> groups;
      for (std::size_t i = 0; i < analysis.edges.size(); ++i)
        groups[analysis.edges[i].recv_cell].push_back(static_cast<int>(i));
      for (auto& [cell, edges] : groups)
        by_recv_thread.push_back(std::move(edges));
    }
    rng.shuffle(by_recv_thread);
    std::vector<int> post_order;
    post_order.reserve(analysis.edges.size());
    for (const auto& burst : by_recv_thread)
      post_order.insert(post_order.end(), burst.begin(), burst.end());

    if (coh) {
      Span s(c.t, Layer::kPhase);
      coh->flush_all();
      ++c.n.phase_calls;
      lock_holder = -1;
    }
    std::vector<int> shadow_list;
    shadow_list.reserve(analysis.edges.size());
    const auto charge_lock = [&](unsigned core) {
      coh_cycles += coherent(core, kShadowLockLine, /*write=*/true);
      if (lock_holder >= 0 && lock_holder != static_cast<int>(core))
        ++lock_transfers;
      lock_holder = static_cast<int>(core);
    };

    std::vector<mt::MatchRequest> requests(analysis.edges.size());
    for (int idx : post_order) {
      const sm::ExternalEdge& e = analysis.edges[static_cast<std::size_t>(idx)];
      requests[static_cast<std::size_t>(idx)] = mt::MatchRequest(
          mt::RequestKind::kRecv, static_cast<std::uint64_t>(idx));
      mt::MatchRequest* matched = match_call(c, *bundle, [&] {
        return bundle->post_recv(
            mt::Pattern::make(kProxyRank, e.sender_id, /*ctx=*/0),
            &requests[static_cast<std::size_t>(idx)]);
      });
      SEMPERM_ASSERT_MSG(matched == nullptr, "no messages sent yet");
      if (coh) {
        const unsigned core = core_of(e.recv_cell);
        charge_lock(core);
        coh_cycles += coherent(
            core, kShadowEntryBase + static_cast<Addr>(idx), /*write=*/true);
        shadow_list.push_back(idx);
        ++coh_ops;
      }
    }
    SEMPERM_ASSERT(bundle->prq().size() ==
                   static_cast<std::size_t>(analysis.length));

    std::vector<std::vector<int>> by_send_thread;
    {
      std::map<int, std::vector<int>> groups;
      for (std::size_t i = 0; i < analysis.edges.size(); ++i)
        groups[analysis.edges[i].sender_id].push_back(static_cast<int>(i));
      for (auto& [sender, edges] : groups)
        by_send_thread.push_back(std::move(edges));
    }
    rng.shuffle(by_send_thread);
    std::vector<int> send_order;
    send_order.reserve(analysis.edges.size());
    for (const auto& burst : by_send_thread)
      send_order.insert(send_order.end(), burst.begin(), burst.end());
    if (params.send_interleave > 0.0 && send_order.size() > 1) {
      std::vector<std::size_t> displaced;
      for (std::size_t i = 0; i < send_order.size(); ++i)
        if (rng.chance(params.send_interleave)) displaced.push_back(i);
      std::vector<int> values;
      values.reserve(displaced.size());
      for (std::size_t i : displaced) values.push_back(send_order[i]);
      rng.shuffle(values);
      for (std::size_t j = 0; j < displaced.size(); ++j)
        send_order[displaced[j]] = values[j];
    }
    bundle->prq().reset_stats();
    std::vector<mt::MatchRequest> messages(analysis.edges.size());
    for (int idx : send_order) {
      const sm::ExternalEdge& e = analysis.edges[static_cast<std::size_t>(idx)];
      messages[static_cast<std::size_t>(idx)] = mt::MatchRequest(
          mt::RequestKind::kUnexpected, static_cast<std::uint64_t>(idx));
      const std::uint64_t inspected_before =
          coh ? bundle->prq().stats().entries_inspected : 0;
      mt::MatchRequest* recv = match_call(c, *bundle, [&] {
        return bundle->incoming(
            mt::Envelope{e.sender_id, kProxyRank, /*ctx=*/0},
            &messages[static_cast<std::size_t>(idx)]);
      });
      SEMPERM_ASSERT_MSG(recv != nullptr, "every message must find a receive");
      if (coh) {
        const std::uint64_t n_inspected =
            bundle->prq().stats().entries_inspected - inspected_before;
        const int midx = static_cast<int>(recv - requests.data());
        const unsigned core =
            core_of(analysis.edges[static_cast<std::size_t>(midx)].recv_cell);
        charge_lock(core);
        std::uint64_t walked = 0;
        for (int j : shadow_list) {
          if (walked >= n_inspected) break;
          ++walked;
          coh_cycles += coherent(core, kShadowEntryBase + static_cast<Addr>(j),
                                 /*write=*/false);
        }
        shadow_list.erase(
            std::find(shadow_list.begin(), shadow_list.end(), midx));
        coh_cycles += coherent(core, kShadowEntryBase + static_cast<Addr>(midx),
                               /*write=*/true);
        ++coh_ops;
      }
    }
    SEMPERM_ASSERT(bundle->prq().size() == 0);
    depth_over_trials.add(bundle->prq().stats().mean_inspected());
  }

  result.mean_search_depth = depth_over_trials.mean();
  result.stddev_search_depth = depth_over_trials.stddev();
  if (coh && coh_ops > 0) {
    result.mean_cycles_per_op =
        static_cast<double>(coh_cycles) / static_cast<double>(coh_ops);
    result.lock_transfers_per_op =
        static_cast<double>(lock_transfers) / static_cast<double>(coh_ops);
    result.coherence = coh->coherence_stats();
    result.coherence.lock_transfers = lock_transfers;
    c.n.invalidations += result.coherence.invalidations;
    c.n.interventions += result.coherence.interventions;
  }
  return result;
}

template <class Result>
OpOutcome outcome_of(const Result& r) {
  return {fingerprint(r), check_identities(r)};
}

}  // namespace

LayerCounts& LayerCounts::operator+=(const LayerCounts& o) {
  ops += o.ops;
  match_entries += o.match_entries;
  access_lines += o.access_lines;
  llc_hits += o.llc_hits;
  llc_misses += o.llc_misses;
  prefetch_fills += o.prefetch_fills;
  prefetch_hits += o.prefetch_hits;
  dram_fetches += o.dram_fetches;
  phase_calls += o.phase_calls;
  heater_refreshes += o.heater_refreshes;
  heater_lines += o.heater_lines;
  heater_budget_lines += o.heater_budget_lines;
  coherent_lines += o.coherent_lines;
  invalidations += o.invalidations;
  interventions += o.interventions;
  packets += o.packets;
  steer_calls += o.steer_calls;
  steer_lookups += o.steer_lookups;
  steer_hits += o.steer_hits;
  generated += o.generated;
  shed += o.shed;
  return *this;
}

OpOutcome run_composed(const Operation& op, Tracer* tracer,
                       LayerCounts* counts) {
  Ctx c{tracer, {}};
  OpOutcome out;
  try {
    Span s(tracer, Layer::kOp);
    out = std::visit(
        [&](const auto& p) -> OpOutcome {
          using P = std::decay_t<decltype(p)>;
          if constexpr (std::is_same_v<P, sw::OsuParams>)
            return outcome_of(osu_bw(p, c));
          else if constexpr (std::is_same_v<P, sw::AppModelParams>)
            return outcome_of(app_model(p, c));
          else if constexpr (std::is_same_v<P, st::SteeringParams>)
            return outcome_of(steering(p, c));
          else
            return outcome_of(mt_decomp(p, c));
        },
        op.params);
  } catch (const std::exception& e) {
    out = {0, std::string("composed driver threw: ") + e.what()};
  }
  c.n.ops = 1;
  if (counts != nullptr) *counts += c.n;
  return out;
}

}  // namespace perfbench
