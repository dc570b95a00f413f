// semperm/obs/trace.hpp
//
// The in-simulation tracing layer (DESIGN.md § Observability): event
// timelines stamped on the *simulated* clock, so time-resolved questions —
// "when did the heated region get evicted during the halo exchange?" —
// are answerable instead of only end-of-run aggregates.
//
// Mirrors the SEMPERM_AUDIT pattern from src/check/: probe macros compile
// to real code only when SEMPERM_TRACE is 1 (the default for Debug and
// RelWithDebInfo builds) and vanish entirely — zero code, zero data
// members — when it is 0 (the default for Release, the measurement
// configuration). With tracing compiled in but not started, every probe
// is a single relaxed atomic load and a predicted branch.
//
// Clock model: each thread owns a monotone simulated-cycle counter that
// the cycle-charging entry points (Hierarchy::access_line,
// CoherentHierarchy::access_line, SimMem::work) advance as they charge
// cost. Events are stamped with this counter plus a wall-clock side
// channel (steady_clock nanoseconds) for the native structures, whose
// traffic is never simulated.
//
// This header is included by hot-path headers (cache.hpp, engine.hpp);
// it stays light. The session/ring machinery lives in obs/session.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

#ifndef SEMPERM_TRACE
#define SEMPERM_TRACE 0
#endif

namespace semperm::obs {

/// True when the tracing layer is compiled into this translation unit.
inline constexpr bool kTraceEnabled = SEMPERM_TRACE != 0;

/// Perfetto/Chrome-trace phase of an event.
enum class EventKind : std::uint8_t {
  kInstant,  // a point on the timeline ("i")
  kBegin,    // span opens ("B")
  kEnd,      // span closes ("E")
  kCounter,  // a counter-track sample ("C")
};

/// Which subsystem emitted the event (the Chrome-trace "cat" field).
enum class Category : std::uint8_t {
  kCache,      // cachesim per-level fill/evict/writeback/prefetch
  kCoherence,  // MESI transitions, interventions, lock transfers
  kMatch,      // match-attempt spans, queue-depth gauges
  kHeater,     // heater passes (simulated and native)
  kApp,        // workload phase markers (compute phase, iteration)
  kTraffic,    // flow-cache epochs, flash-crowd markers, live-flow gauges
  kResilience,  // admission rejects, shed on/off edges, ladder transitions
};

const char* category_name(Category cat);

/// One timeline event. `name` must be a string literal (static lifetime) —
/// the ring stores the pointer, never a copy. `track` is an interned
/// component name (a specific cache level, a specific queue), 0 = none.
struct TraceEvent {
  std::uint64_t sim = 0;      // simulated cycles (per-thread clock)
  std::uint64_t wall_ns = 0;  // wall-clock side channel
  std::uint64_t arg = 0;      // payload: line index, depth, byte count, ...
  double value = 0.0;         // payload: counter value, search length, ...
  const char* name = "";
  std::uint16_t track = 0;
  EventKind kind = EventKind::kInstant;
  Category cat = Category::kCache;
};

#if SEMPERM_TRACE

namespace detail {
/// Flipped by TraceSession::start()/stop(). Inline so every probe site
/// reads the same flag without a function call into another TU.
inline std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

/// Is a trace session currently recording? The one check every probe
/// performs before doing any work.
inline bool trace_on() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// This thread's simulated-cycle clock (monotone within a thread).
inline std::uint64_t& sim_clock_ref() {
  thread_local std::uint64_t cycles = 0;
  return cycles;
}
inline std::uint64_t sim_now() { return sim_clock_ref(); }
inline void sim_clock_reset() { sim_clock_ref() = 0; }

/// Marker for "stamp with the thread clock" in emit_event.
inline constexpr std::uint64_t kStampNow = ~std::uint64_t{0};

/// Record one event into this thread's ring (registering the ring on
/// first use). `sim_override` backdates/postdates the stamp — used for
/// span ends whose duration is known analytically (a heater pass).
/// Defined in session.cpp; only reached when a session is recording.
void emit_event(EventKind kind, Category cat, const char* name,
                std::uint16_t track, std::uint64_t arg, double value,
                std::uint64_t sim_override = kStampNow);

/// Intern a component name into a stable track id (1-based; 0 = none).
/// Safe to call from component constructors before any session starts.
std::uint16_t intern_track(std::string_view name);

/// Name this thread's timeline in exported traces (e.g. "rank 3").
void set_thread_name(std::string_view name);

#define SEMPERM_TRACE_ONLY(...) __VA_ARGS__

/// Advance this thread's simulated clock by `cycles` while recording.
#define SEMPERM_TRACE_CLOCK_ADVANCE(cycles)                    \
  do {                                                         \
    if (::semperm::obs::trace_on())                            \
      ::semperm::obs::sim_clock_ref() +=                       \
          static_cast<std::uint64_t>(cycles);                  \
  } while (0)

#define SEMPERM_TRACE_INSTANT(cat, name, track, arg, value)               \
  do {                                                                    \
    if (::semperm::obs::trace_on())                                       \
      ::semperm::obs::emit_event(::semperm::obs::EventKind::kInstant,     \
                                 cat, name, track, arg, value);           \
  } while (0)

#define SEMPERM_TRACE_COUNTER(cat, name, track, value)                    \
  do {                                                                    \
    if (::semperm::obs::trace_on())                                       \
      ::semperm::obs::emit_event(::semperm::obs::EventKind::kCounter,     \
                                 cat, name, track, 0, value);             \
  } while (0)

#define SEMPERM_TRACE_SPAN_BEGIN(cat, name, track, arg)                   \
  do {                                                                    \
    if (::semperm::obs::trace_on())                                       \
      ::semperm::obs::emit_event(::semperm::obs::EventKind::kBegin,       \
                                 cat, name, track, arg, 0.0);             \
  } while (0)

#define SEMPERM_TRACE_SPAN_END(cat, name, track, arg, value)              \
  do {                                                                    \
    if (::semperm::obs::trace_on())                                       \
      ::semperm::obs::emit_event(::semperm::obs::EventKind::kEnd,         \
                                 cat, name, track, arg, value);           \
  } while (0)

/// Span end with an explicit simulated timestamp (analytic durations).
#define SEMPERM_TRACE_SPAN_END_AT(cat, name, track, arg, value, sim_ts)   \
  do {                                                                    \
    if (::semperm::obs::trace_on())                                       \
      ::semperm::obs::emit_event(::semperm::obs::EventKind::kEnd,         \
                                 cat, name, track, arg, value, sim_ts);   \
  } while (0)

#define SEMPERM_TRACE_THREAD_NAME(name)                        \
  do {                                                         \
    if (::semperm::obs::trace_on())                            \
      ::semperm::obs::set_thread_name(name);                   \
  } while (0)

#else  // !SEMPERM_TRACE

#define SEMPERM_TRACE_ONLY(...)
#define SEMPERM_TRACE_CLOCK_ADVANCE(cycles) \
  do {                                      \
  } while (0)
#define SEMPERM_TRACE_INSTANT(cat, name, track, arg, value) \
  do {                                                      \
  } while (0)
#define SEMPERM_TRACE_COUNTER(cat, name, track, value) \
  do {                                                 \
  } while (0)
#define SEMPERM_TRACE_SPAN_BEGIN(cat, name, track, arg) \
  do {                                                  \
  } while (0)
#define SEMPERM_TRACE_SPAN_END(cat, name, track, arg, value) \
  do {                                                       \
  } while (0)
#define SEMPERM_TRACE_SPAN_END_AT(cat, name, track, arg, value, sim_ts) \
  do {                                                                  \
  } while (0)
#define SEMPERM_TRACE_THREAD_NAME(name) \
  do {                                  \
  } while (0)

#endif  // SEMPERM_TRACE

}  // namespace semperm::obs
