// tests/match_reference.hpp
//
// A deliberately naive reference implementation of the match-queue
// contract: a flat vector searched linearly in append order. Every real
// queue structure must agree with it operation-for-operation — the oracle
// for the property and exhaustive tests. ReferenceEngine runs MatchEngine's
// protocol over two such queues.
#pragma once

#include <optional>
#include <vector>

#include "match/entry.hpp"
#include "match/queue_iface.hpp"
#include "match/request.hpp"

namespace semperm::match::testing {

template <class Entry>
class ReferenceQueue {
 public:
  using Key = key_of_t<Entry>;

  void append(const Entry& e) { entries_.push_back(e); }

  std::optional<Entry> find_and_remove(const Key& key) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entry_matches(entries_[i], key)) {
        Entry out = entries_[i];
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        return out;
      }
    }
    return std::nullopt;
  }

  std::optional<Entry> peek(const Key& key) const {
    for (const Entry& e : entries_)
      if (entry_matches(e, key)) return e;
    return std::nullopt;
  }

  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<Entry> entries_;
};

/// Reference implementation of MatchEngine's protocol: UMQ first on a
/// post, PRQ first on an arrival, probe peeks the UMQ.
class ReferenceEngine {
 public:
  MatchRequest* post_recv(const Pattern& pattern, MatchRequest* recv) {
    if (auto hit = umq_.find_and_remove(pattern)) return hit->req;
    prq_.append(PostedEntry::from(pattern, recv));
    return nullptr;
  }

  MatchRequest* incoming(const Envelope& env, MatchRequest* msg) {
    if (auto hit = prq_.find_and_remove(env)) return hit->req;
    umq_.append(UnexpectedEntry::from(env, msg));
    return nullptr;
  }

  std::optional<Envelope> probe(const Pattern& pattern) const {
    if (auto hit = umq_.peek(pattern)) return hit->envelope();
    return std::nullopt;
  }

  std::size_t prq_size() const { return prq_.size(); }
  std::size_t umq_size() const { return umq_.size(); }

 private:
  ReferenceQueue<PostedEntry> prq_;
  ReferenceQueue<UnexpectedEntry> umq_;
};

}  // namespace semperm::match::testing
