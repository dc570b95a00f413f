// perfbench/src/composed.hpp
//
// Composed drivers: the four library entry points (run_osu_bw,
// run_app_model, run_steering, run_mt_decomp) rebuilt in the benchmark's
// own files from the library's public calls, made in the same order the
// entry point makes them, with a span around each call. They must
// reproduce the entry point's fingerprint on every operation; if one does
// not, its per-layer split describes a different program and the
// operation counts as failed.
//
// The drivers follow the measurement build (SEMPERM_TRACE, SEMPERM_AUDIT
// and SEMPERM_FAULT off): the library's trace-only and audit-only
// statements compile to nothing there and are not reproduced. The fault
// plane is not reproduced either; operations never carry a fault plan.
//
// Calls the benchmark cannot wrap stay inside the span of the public call
// that makes them: the admission filter runs inside FlowTable::steer, the
// heater's LLC touches inside SimHeater::refresh, and the prefetchers
// inside every cache access.
#pragma once

#include <cstdint>

#include "operations.hpp"
#include "span_trace.hpp"

namespace perfbench {

/// Work counts gathered at the same call boundaries the spans cover,
/// summed over the operations of a traced run.
struct LayerCounts {
  std::uint64_t ops = 0;
  std::uint64_t match_entries = 0;       // entries inspected by match calls
  std::uint64_t access_lines = 0;        // cache lines through the access path
  std::uint64_t llc_hits = 0;            // demand hits/misses at the LLC
  std::uint64_t llc_misses = 0;
  std::uint64_t prefetch_fills = 0;      // over all levels
  std::uint64_t prefetch_hits = 0;
  std::uint64_t dram_fetches = 0;
  std::uint64_t phase_calls = 0;         // pollute / flush_all
  std::uint64_t heater_refreshes = 0;
  std::uint64_t heater_lines = 0;        // lines refresh() re-fetched
  double heater_budget_lines = 0.0;      // lines the passes were budgeted
  std::uint64_t coherent_lines = 0;      // CoherentHierarchy::access_line
  std::uint64_t invalidations = 0;
  std::uint64_t interventions = 0;
  std::uint64_t packets = 0;             // FlowGenerator::next
  std::uint64_t steer_calls = 0;         // FlowTable::steer / probe
  std::uint64_t steer_lookups = 0;
  std::uint64_t steer_hits = 0;
  std::uint64_t generated = 0;
  std::uint64_t shed = 0;

  LayerCounts& operator+=(const LayerCounts& o);
};

/// Run `op` through its composed driver. With a null tracer the driver
/// runs untimed; with a null counts pointer no counts are kept.
OpOutcome run_composed(const Operation& op, Tracer* tracer,
                       LayerCounts* counts);

}  // namespace perfbench
