// semperm/check/match_shadow.hpp
//
// Shadow reference model for the match-queue auditors.
//
// A MatchShadow<Entry> mirrors one queue (PRQ or UMQ) as a plain
// std::list kept in exact append order — the simplest possible encoding of
// the MPI matching contract (FIFO append order, first match wins, matched
// entries leave the queue). MatchEngine, when compiled with SEMPERM_AUDIT,
// replays every operation on the shadow *before* the real structure runs
// it and cross-checks the results:
//
//   * the real queue and the shadow agree on hit/miss;
//   * on a hit they return the same entry (request identity + envelope
//     fields) — i.e. the real structure honoured FIFO match order;
//   * a matched request is no longer present in either — no message can be
//     both matched and queued;
//   * live element counts agree after every operation.
//
// The shadow performs no modelled memory traffic: it is an oracle, not a
// participant, so audited and unaudited runs charge identical cycles.
#pragma once

#include <cstddef>
#include <list>
#include <optional>
#include <sstream>
#include <string>

#include "check/audit.hpp"
#include "match/entry.hpp"
#include "match/queue_iface.hpp"

namespace semperm::check {

inline std::string describe(const match::PostedEntry& e) {
  std::ostringstream os;
  os << "PostedEntry{tag=" << e.tag << " rank=" << e.rank << " ctx=" << e.ctx
     << " tag_mask=0x" << std::hex << e.tag_mask << " rank_mask=0x"
     << e.rank_mask << std::dec << " req=" << static_cast<const void*>(e.req)
     << '}';
  return os.str();
}

inline std::string describe(const match::UnexpectedEntry& e) {
  std::ostringstream os;
  os << "UnexpectedEntry{tag=" << e.tag << " rank=" << e.rank
     << " ctx=" << e.ctx << " req=" << static_cast<const void*>(e.req) << '}';
  return os.str();
}

inline bool entries_equal(const match::PostedEntry& a,
                          const match::PostedEntry& b) {
  return a.req == b.req && a.tag == b.tag && a.rank == b.rank &&
         a.ctx == b.ctx && a.tag_mask == b.tag_mask &&
         a.rank_mask == b.rank_mask;
}

inline bool entries_equal(const match::UnexpectedEntry& a,
                          const match::UnexpectedEntry& b) {
  return a.req == b.req && a.tag == b.tag && a.rank == b.rank && a.ctx == b.ctx;
}

template <class Entry>
class MatchShadow {
 public:
  using Key = match::key_of_t<Entry>;

  void on_append(const Entry& e, const char* queue_name) {
    for (const Entry& q : entries_)
      if (q.req == e.req)
        throw AuditError(std::string(queue_name) +
                         " audit: request appended while already queued: " +
                         describe(e));
    entries_.push_back(e);
  }

  /// Replay a find_and_remove and cross-check the real structure's answer.
  void expect_find_and_remove(const Key& key,
                              const std::optional<Entry>& actual,
                              const char* queue_name) {
    auto it = entries_.begin();
    for (; it != entries_.end(); ++it)
      if (match::entry_matches(*it, key)) break;
    if (it == entries_.end()) {
      if (actual.has_value())
        throw AuditError(std::string(queue_name) +
                         " audit: structure matched an entry the reference "
                         "model does not hold: " +
                         describe(*actual));
      return;
    }
    if (!actual.has_value())
      throw AuditError(std::string(queue_name) +
                       " audit: structure missed a queued match; reference "
                       "holds " +
                       describe(*it));
    if (!entries_equal(*it, *actual))
      throw AuditError(std::string(queue_name) +
                       " audit: FIFO match order violated; structure "
                       "returned " +
                       describe(*actual) + " but append order selects " +
                       describe(*it));
    entries_.erase(it);
    // A matched request must be gone: matched AND queued is a double
    // delivery.
    for (const Entry& q : entries_)
      if (q.req == actual->req)
        throw AuditError(std::string(queue_name) +
                         " audit: request both matched and still queued: " +
                         describe(*actual));
  }

  /// Replay a non-destructive peek and cross-check.
  void expect_peek(const Key& key, const std::optional<Entry>& actual,
                   const char* queue_name) const {
    for (const Entry& q : entries_) {
      if (!match::entry_matches(q, key)) continue;
      if (!actual.has_value())
        throw AuditError(std::string(queue_name) +
                         " audit: peek missed a queued match; reference "
                         "holds " +
                         describe(q));
      if (!entries_equal(q, *actual))
        throw AuditError(std::string(queue_name) +
                         " audit: peek order violated; structure returned " +
                         describe(*actual) + " but append order selects " +
                         describe(q));
      return;
    }
    if (actual.has_value())
      throw AuditError(std::string(queue_name) +
                       " audit: peek returned an entry the reference model "
                       "does not hold: " +
                       describe(*actual));
  }

  /// Live-count agreement with the real structure.
  void expect_size(std::size_t actual, const char* queue_name) const {
    if (actual != entries_.size())
      throw AuditError(std::string(queue_name) + " audit: live count " +
                       std::to_string(actual) +
                       " diverges from reference model count " +
                       std::to_string(entries_.size()));
  }

  std::size_t size() const { return entries_.size(); }

  /// Test seam: inject a divergence the next cross-check must detect.
  void corrupt_for_test(const Entry& e) { entries_.push_back(e); }

 private:
  std::list<Entry> entries_;
};

}  // namespace semperm::check
