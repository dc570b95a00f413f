// perfbench/src/span_trace.hpp
//
// Host-time spans for the traced run. The composed drivers (composed.hpp)
// open a span around every public library call they make; each span
// records its layer, start, end, parent span and operation id. Self time
// is a span's duration minus the time of the spans nested in it.
//
// Spans of the hottest calls (single cache accesses, single packets) are
// "leaf" spans (LeafSpan): they nest in the open span and are charged like
// any other, but only their per-layer totals are kept, so memory stays
// bounded on runs of millions of calls. All other spans are kept in memory
// (up to a cap) and written out when the run ends.
//
// A leaf span costs two clock reads, a few tens of ns, which on a run of
// single cache accesses is a fifth of the work. The tracer measures that
// cost when it is made, on empty leaf spans. The part inside a leaf's
// interval, at its lowest, is taken out of the leaf's layer total, so a
// leaf layer keeps at most a few ticks per leaf of tracing cost and never
// goes below its true time. The part around it
// (storing the reading, the bookkeeping) stays in the enclosing span's
// self time: out-of-order execution hides much of it behind the work
// around the leaf, so subtracting the estimate overshot the true self time
// of short match spans. Its estimate is reported (leaf_outside_ns()) and
// the rest of the tracing cost shows in trace.overhead_ratio. Nothing is
// clamped: a span or a layer total that comes out negative is kept as it
// is, and the benchmark fails the run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

enum class Layer : std::uint8_t {
  kOp,              // one operation: the composed driver's own code
  kMatch,           // match engine post_recv / incoming / probe
  kMatchPrepop,     // make_engine + pre-population of the queues
  kAccess,          // cachesim access path (SimMem / Hierarchy::simulate)
  kPhase,           // cachesim compute-phase model (pollute / flush_all)
  kResidentScan,    // cachesim resident_lines_filled_by
  kBuild,           // cachesim Hierarchy construction
  kHeater,          // SimHeater::refresh
  kCoherence,       // CoherentHierarchy access / flush
  kTrafficGen,      // FlowGenerator::next
  kTrafficSteer,    // FlowTable::steer / probe
  kZipfBuild,       // FlowGenerator construction (Zipf tables)
  kTrafficBuild,    // FlowTable construction and attachment
  kResilience,      // valve, ladder, admission-filter construction
  kCount,
};

const char* layer_name(Layer l);

struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = none
  std::uint32_t op = 0;
  Layer layer = Layer::kOp;
};

struct LayerTotals {
  std::int64_t self_ns = 0;
  std::uint64_t calls = 0;
};

using LayerArray =
    std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)>;

class Tracer {
 public:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Span clock: the time-stamp counter where there is one (a few ns to
  /// read, against tens for the system clock), converted to nanoseconds
  /// with a rate measured against the steady clock when the tracer is
  /// made.
  static std::int64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
    return static_cast<std::int64_t>(__rdtsc());
#else
    return now_ns();
#endif
  }

  explicit Tracer(std::size_t record_cap = std::size_t{1} << 19);

  void begin(Layer layer);
  void end();

  /// Charge a leaf span of `dt` ticks to `layer`, nested in the open span.
  void add_leaf(Layer layer, std::int64_t dt) {
    const auto l = static_cast<std::size_t>(layer);
    // One leaf's difference is timer jitter around its true cost and may be
    // negative; the layer's sum is not biased by clamping it.
    self_ticks_[l] += dt - leaf_inside_;
    ++calls_[l];
    ++leaves_;
    if (!open_.empty()) open_.back().child += dt;
  }

  /// Operation id stamped on the spans that follow.
  void set_op(std::uint32_t op) { op_ = op; }

  /// Per-layer self time (ns) and call counts so far.
  LayerArray totals() const;
  const std::vector<SpanRecord>& records() const { return records_; }
  std::uint64_t dropped_records() const { return dropped_; }
  /// Spans (recorded or beyond the cap) whose duration is less than their
  /// children's.
  std::uint64_t negative_spans() const { return negative_; }
  /// Leaf spans so far, and the estimated cost each leaves in the self
  /// time of the span it nests in.
  std::uint64_t leaves() const { return leaves_; }
  double leaf_outside_ns() const {
    return static_cast<double>(leaf_outside_) * ns_per_tick_;
  }
  bool idle() const { return open_.empty(); }

  /// Binary dump: one line of text header, then the raw SpanRecords.
  bool write(const std::string& path) const;

 private:
  void measure_leaf_cost();
  std::int64_t to_ns(std::int64_t tick) const {
    return ns0_ + static_cast<std::int64_t>(
                      static_cast<double>(tick - tick0_) * ns_per_tick_);
  }

  struct Open {
    std::int64_t start;     // ticks
    std::int64_t child;  // ticks spent in nested spans
    Layer layer;
    std::uint32_t id;
    std::uint32_t parent;  // enclosing span, 0 for none
  };
  std::vector<Open> open_;
  std::vector<SpanRecord> records_;
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> self_ticks_{};
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> calls_{};
  std::int64_t tick0_ = 0;
  std::int64_t ns0_ = 0;
  double ns_per_tick_ = 1.0;
  std::int64_t leaf_inside_ = 0;   // ticks a leaf span adds to its interval
  std::int64_t leaf_outside_ = 0;  // ticks it adds around it
  std::size_t cap_;
  std::uint64_t dropped_ = 0;
  std::uint64_t negative_ = 0;
  std::uint64_t leaves_ = 0;
  std::uint32_t next_id_ = 1;
  std::uint32_t op_ = 0;
};

/// RAII span: `Span s(tracer, Layer::kMatch);` — a null tracer costs one
/// branch, so composed drivers run untimed with the same code.
class Span {
 public:
  Span(Tracer* t, Layer l) : t_(t) {
    if (t_) t_->begin(l);
  }
  ~Span() {
    if (t_) t_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

/// RAII leaf span around one hot call; never recorded.
class LeafSpan {
 public:
  LeafSpan(Tracer* t, Layer l) : t_(t), l_(l), t0_(t ? Tracer::ticks() : 0) {}
  ~LeafSpan() {
    if (t_) t_->add_leaf(l_, Tracer::ticks() - t0_);
  }
  LeafSpan(const LeafSpan&) = delete;
  LeafSpan& operator=(const LeafSpan&) = delete;

 private:
  Tracer* t_;
  Layer l_;
  std::int64_t t0_;
};

/// Self-check of a recorded span log: every span lies inside its parent
/// and of the same operation, and no self time is negative. Returns "" on
/// success, else the first violation.
std::string check_nesting(const std::vector<SpanRecord>& records);

}  // namespace perfbench
