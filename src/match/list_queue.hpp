// semperm/match/list_queue.hpp
//
// The baseline: a single doubly-linked list with one match entry per node,
// in the style of classic MPICH queues (paper §2.2). Deliberately carries
// the weaknesses the paper measures against:
//
//  * each node spans TWO cache lines — the match fields share a line with
//    nothing useful, and the link pointers live on the second line next to
//    the rest of the (modelled) request descriptor, so a traversal touches
//    2 lines per entry ("the unmodified baseline requires more than a
//    cache line for a single entry", §4.2);
//  * the next-node address is data-dependent (read from the node), and
//    nodes come from a general-purpose-allocator-style scattered pool, so
//    hardware prefetchers cannot predict the access stream.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "check/audit.hpp"
#include "common/assert.hpp"
#include "common/hot_path.hpp"
#include "common/mem_policy.hpp"
#include "match/queue_iface.hpp"
#include "memlayout/block_pool.hpp"

namespace semperm::match {

template <class Entry, MemoryModel Mem>
class ListQueue final : public QueueIface<Entry, Mem> {
 public:
  using Key = key_of_t<Entry>;

  /// Node layout mirrors a full MPICH-style request object (~256 B): the
  /// match fields sit on line 0, the bulk of the descriptor fills lines
  /// 1–2, and the queue link pointers land on line 3 — so a traversal
  /// touches two non-adjacent cache lines per entry, and the line the
  /// adjacent-pair prefetcher pulls in alongside the entry is useless.
  struct Node {
    Entry entry;                                    // line 0
    char pad0[kCacheLine - sizeof(Entry)];
    char descriptor[2 * kCacheLine];                // lines 1-2
    Node* next;                                     // line 3
    Node* prev;
    char pad1[kCacheLine - 2 * sizeof(Node*)];
  };
  static_assert(sizeof(Node) == 4 * kCacheLine);

  /// `pool` must outlive the queue and have block size >= sizeof(Node).
  ListQueue(Mem& mem, memlayout::BlockPool& pool) : mem_(&mem), pool_(&pool) {
    SEMPERM_ASSERT(pool.block_bytes() >= sizeof(Node));
  }

  ~ListQueue() override {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next;
      pool_->release(n);
      n = next;
    }
  }

  SEMPERM_HOT void append(const Entry& entry) override {
    Node* node = static_cast<Node*>(pool_->acquire());
    node->entry = entry;
    node->next = nullptr;
    node->prev = tail_;
    mem_->write(&node->entry, sizeof(Entry));
    mem_->write(&node->next, 2 * sizeof(Node*));
    if (tail_ != nullptr) {
      tail_->next = node;
      mem_->write(&tail_->next, sizeof(Node*));
    } else {
      head_ = node;
    }
    tail_ = node;
    ++size_;
    ++stats_.appends;
  }

  SEMPERM_HOT std::optional<Entry> find_and_remove(const Key& key) override {
    Node* hit = search(key);
    if (hit == nullptr) return std::nullopt;
    Entry out = hit->entry;
    unlink(hit);
    ++stats_.removals;
    return out;
  }

  SEMPERM_HOT std::optional<Entry> peek(const Key& key) override {
    Node* hit = search(key);
    if (hit == nullptr) return std::nullopt;
    return hit->entry;
  }

  std::size_t size() const override { return size_; }

  std::size_t footprint_bytes() const override { return size_ * sizeof(Node); }

  const SearchStats& stats() const override { return stats_; }
  void reset_stats() override { stats_ = SearchStats{}; }

  const char* name() const override { return "baseline-list"; }

  void self_check() const override {
    std::size_t count = 0;
    const Node* prev = nullptr;
    for (const Node* n = head_; n != nullptr; prev = n, n = n->next) {
      if (n->prev != prev)
        throw check::AuditError(
            "baseline-list audit: broken back-link at node " +
            std::to_string(count));
      if (n->entry.is_hole())
        throw check::AuditError(
            "baseline-list audit: hole entry linked into the list at node " +
            std::to_string(count));
      ++count;
      if (count > size_)
        throw check::AuditError(
            "baseline-list audit: chain longer than live count " +
            std::to_string(size_) + " (cycle or stale node)");
    }
    if (prev != tail_)
      throw check::AuditError("baseline-list audit: tail pointer does not "
                              "terminate the chain");
    if (count != size_)
      throw check::AuditError("baseline-list audit: chain length " +
                              std::to_string(count) +
                              " != live count " + std::to_string(size_));
  }

  /// Required pool block size for this queue's nodes.
  static constexpr std::size_t node_bytes() { return sizeof(Node); }

 private:
  /// The first node in append order whose entry matches `key`, recorded
  /// in the search stats; nullptr if none.
  Node* search(const Key& key) {
    std::uint64_t inspected = 0;
    for (Node* n = head_; n != nullptr; n = n->next) {
      mem_->read(&n->entry, sizeof(Entry));
      mem_->work(kCompareCycles);
      ++inspected;
      if (entry_matches(n->entry, key)) {
        stats_.record_search(inspected, inspected, /*hit=*/true);
        return n;
      }
      mem_->read(&n->next, sizeof(Node*));
    }
    stats_.record_search(inspected, inspected, /*hit=*/false);
    return nullptr;
  }

  void unlink(Node* n) {
    mem_->read(&n->next, 2 * sizeof(Node*));  // next+prev share a line
    if (n->prev != nullptr) {
      n->prev->next = n->next;
      mem_->write(&n->prev->next, sizeof(Node*));
    } else {
      head_ = n->next;
    }
    if (n->next != nullptr) {
      n->next->prev = n->prev;
      mem_->write(&n->next->prev, sizeof(Node*));
    } else {
      tail_ = n->prev;
    }
    mem_->work(kLinkCycles);
    pool_->release(n);
    SEMPERM_ASSERT(size_ > 0);
    --size_;
  }

  Mem* mem_;
  memlayout::BlockPool* pool_;
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t size_ = 0;
  SearchStats stats_;
};

}  // namespace semperm::match
