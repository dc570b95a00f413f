#include "span_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_map>

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kOp:
      return "workloads";
    case Layer::kMatch:
      return "match";
    case Layer::kMatchPrepop:
      return "match.prepopulate";
    case Layer::kAccess:
      return "cachesim.access";
    case Layer::kPhase:
      return "cachesim.phase";
    case Layer::kResidentScan:
      return "cachesim.resident_scan";
    case Layer::kBuild:
      return "cachesim.build";
    case Layer::kHeater:
      return "heater.refresh";
    case Layer::kCoherence:
      return "coherence.access";
    case Layer::kTrafficGen:
      return "traffic.gen";
    case Layer::kTrafficSteer:
      return "traffic.steer";
    case Layer::kZipfBuild:
      return "traffic.zipf_build";
    case Layer::kTrafficBuild:
      return "traffic.table_build";
    case Layer::kResilience:
      return "resilience";
    case Layer::kCount:
      break;
  }
  return "?";
}

Tracer::Tracer(std::size_t record_cap) : cap_(record_cap) {
  open_.reserve(16);
  records_.reserve(std::min<std::size_t>(cap_, std::size_t{1} << 16));
  // Rate of the span clock against the steady clock, over ~10 ms.
  tick0_ = ticks();
  ns0_ = now_ns();
  std::int64_t ns = ns0_;
  while (ns - ns0_ < 10'000'000) ns = now_ns();
  const std::int64_t dt = ticks() - tick0_;
  ns_per_tick_ = dt > 0 ? static_cast<double>(ns - ns0_) / static_cast<double>(dt)
                        : 1.0;
  measure_leaf_cost();
}

void Tracer::measure_leaf_cost() {
  // Empty leaf spans, with the same reads and bookkeeping, inside one open
  // span: the shortest leaf interval is the cost inside a leaf, the rest of
  // the loop's time per leaf the cost around it. The shortest, not the
  // typical, interval: a leaf around a call of a few ns (the backpressure
  // valve) is often shorter than the typical empty one, and subtracting
  // that would drive its layer's total below zero. The calibration totals
  // are then cleared.
  constexpr int kLeaves = 20'000;
  std::vector<std::int64_t> inside(kLeaves);
  open_.push_back({ticks(), 0, Layer::kOp, 0, 0});
  const std::int64_t start = ticks();
  for (std::int64_t& d : inside) {
    const std::int64_t t0 = ticks();
    d = ticks() - t0;
    add_leaf(Layer::kAccess, d);
  }
  const std::int64_t total = ticks() - start;
  open_.pop_back();
  std::int64_t sum = 0;
  for (const std::int64_t d : inside) sum += d;
  leaf_inside_ = *std::min_element(inside.begin(), inside.end());
  leaf_outside_ = std::max<std::int64_t>(0, (total - sum) / kLeaves);
  self_ticks_ = {};
  calls_ = {};
  negative_ = 0;
  leaves_ = 0;
}

void Tracer::begin(Layer layer) {
  const std::uint32_t parent = open_.empty() ? 0 : open_.back().id;
  open_.push_back({ticks(), 0, layer, next_id_++, parent});
}

void Tracer::end() {
  const std::int64_t t = ticks();
  const Open o = open_.back();
  open_.pop_back();
  const std::int64_t dur = t - o.start;
  const std::int64_t self = dur - o.child;
  if (self < 0) ++negative_;
  const auto l = static_cast<std::size_t>(o.layer);
  self_ticks_[l] += self;
  ++calls_[l];
  if (!open_.empty()) open_.back().child += dur;
  if (records_.size() < cap_) {
    const std::int64_t start = to_ns(o.start);
    const std::int64_t end = to_ns(t);
    // Converted separately so a record's self time never exceeds its
    // duration through rounding.
    const std::int64_t self_ns = std::min(
        end - start, static_cast<std::int64_t>(static_cast<double>(self) *
                                               ns_per_tick_));
    records_.push_back({start, end, self_ns, o.id, o.parent, op_, o.layer});
  } else {
    ++dropped_;
  }
}

LayerArray Tracer::totals() const {
  LayerArray out{};
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].self_ns = static_cast<std::int64_t>(
        static_cast<double>(self_ticks_[i]) * ns_per_tick_);
    out[i].calls = calls_[i];
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fprintf(f,
               "perfbench-spans v1 record_bytes=%zu records=%zu dropped=%llu "
               "fields=start_ns,end_ns,self_ns,id,parent,op,layer\n",
               sizeof(SpanRecord), records_.size(),
               static_cast<unsigned long long>(dropped_));
  const bool ok = std::fwrite(records_.data(), sizeof(SpanRecord),
                              records_.size(), f) == records_.size();
  return std::fclose(f) == 0 && ok;
}

std::string check_nesting(const std::vector<SpanRecord>& records) {
  std::unordered_map<std::uint32_t, const SpanRecord*> by_id;
  by_id.reserve(records.size());
  for (const SpanRecord& r : records) by_id.emplace(r.id, &r);
  for (const SpanRecord& r : records) {
    std::ostringstream os;
    if (r.end_ns < r.start_ns) {
      os << "span " << r.id << " ends before it starts";
      return os.str();
    }
    if (r.self_ns < 0) {
      os << "span " << r.id << " (" << layer_name(r.layer)
         << ") has negative self time " << r.self_ns << " ns";
      return os.str();
    }
    if (r.parent == 0) continue;
    const auto it = by_id.find(r.parent);
    if (it == by_id.end()) continue;  // parent beyond the record cap
    const SpanRecord& p = *it->second;
    if (r.start_ns < p.start_ns || r.end_ns > p.end_ns || r.op != p.op) {
      os << "span " << r.id << " (" << layer_name(r.layer)
         << ") escapes its parent " << p.id << " (" << layer_name(p.layer)
         << ")";
      return os.str();
    }
  }
  return "";
}

}  // namespace perfbench
