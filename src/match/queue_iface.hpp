// semperm/match/queue_iface.hpp
//
// The interface every match-queue data structure implements, for both the
// posted-receive queue (entries = PostedEntry, searched by a concrete
// incoming Envelope) and the unexpected-message queue (entries =
// UnexpectedEntry, searched by a receive Pattern).
//
// Contract common to all implementations:
//  * append() places the entry at the logical tail;
//  * find_and_remove() returns the FIRST entry in append order that
//    matches the key, removing it (MPI's non-overtaking rule);
//  * all memory traffic on the search/append path is reported through the
//    MemoryModel policy so the simulated path sees the structure's real
//    access pattern.
#pragma once

#include <cstddef>
#include <optional>

#include "common/mem_policy.hpp"
#include "match/entry.hpp"
#include "match/stats.hpp"

namespace semperm::match {

/// Key type a queue of `Entry` is searched with.
template <class Entry>
struct key_of;
template <>
struct key_of<PostedEntry> {
  using type = Envelope;
};
template <>
struct key_of<UnexpectedEntry> {
  using type = Pattern;
};
template <class Entry>
using key_of_t = typename key_of<Entry>::type;

/// Modelled compute costs charged via MemoryModel::work().
inline constexpr Cycles kCompareCycles = 4;  // full entry comparison
inline constexpr Cycles kHoleSkipCycles = 1; // recognizing an invalidated slot
inline constexpr Cycles kLinkCycles = 2;     // pointer bookkeeping on remove

template <class Entry, MemoryModel Mem>
class QueueIface {
 public:
  using Key = key_of_t<Entry>;

  virtual ~QueueIface() = default;

  virtual void append(const Entry& entry) = 0;
  virtual std::optional<Entry> find_and_remove(const Key& key) = 0;

  /// Non-destructive search: the first entry in append order matching
  /// `key`, if any (MPI_Probe semantics). Charged like a search.
  virtual std::optional<Entry> peek(const Key& key) = 0;

  /// Live entries (holes excluded).
  virtual std::size_t size() const = 0;

  /// Bytes of node storage currently reachable (live nodes; for the
  /// capacity analysis of §4.1's "sizing caches" goal).
  virtual std::size_t footprint_bytes() const = 0;

  virtual const SearchStats& stats() const = 0;
  virtual void reset_stats() = 0;

  /// Human-readable structure name for reports.
  virtual const char* name() const = 0;

  /// Structural self-audit: walk the underlying storage and verify the
  /// implementation's own invariants (link consistency, occupancy counts,
  /// hole accounting). Throws semperm::check::AuditError on violation.
  /// Performs NO modelled memory traffic — it is an auditor, not a
  /// participant. Called by MatchEngine after every operation when the
  /// audit layer is compiled in (SEMPERM_AUDIT), and directly by tests.
  virtual void self_check() const {}
};

}  // namespace semperm::match
