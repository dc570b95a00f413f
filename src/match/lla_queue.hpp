// semperm/match/lla_queue.hpp
//
// The linked list of arrays (paper §3.1, Fig. 2): each list element holds
// an array of match entries in contiguous memory, raising the ratio of
// entries to cache lines and giving hardware prefetchers a predictable
// stream. The entries-per-array count K is a runtime parameter so the
// benchmark harness can sweep it (the paper sweeps 2..32 plus a "large
// arrays" variant).
//
// Per-node metadata follows the paper exactly: head and tail indices
// delimiting the used section, and one external next pointer stored after
// the entry array. Deletions in the middle of the used section invalidate
// the slot ("ensuring tags and sources are invalid and all bitmask fields
// are set"); deletions at the edges move the head/tail indices, which also
// swallow any adjacent holes. A node is recycled once head == tail.
//
// Node layout for K entries of size E:  [head:4][tail:4][E*K entries][next:8]
// rounded up to whole cache lines. K = 2 posted-receive entries is exactly
// one 64-byte line — the Fig. 2 packing.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <optional>
#include <string>

#include "check/audit.hpp"
#include "common/assert.hpp"
#include "common/hot_path.hpp"
#include "common/mem_policy.hpp"
#include "match/queue_iface.hpp"
#include "memlayout/block_pool.hpp"

namespace semperm::match {

/// Size in bytes of one LLA node holding `k` entries of size `entry_bytes`
/// (rounded up to whole cache lines).
constexpr std::size_t lla_node_bytes(std::size_t k, std::size_t entry_bytes) {
  return static_cast<std::size_t>(
      round_up(2 * sizeof(std::uint32_t) + k * entry_bytes + sizeof(void*),
               kCacheLine));
}

/// Natural alignment for an LLA node: multi-line nodes align to the 128 B
/// prefetch pair so the adjacent-pair unit covers in-node lines.
constexpr std::size_t lla_node_align(std::size_t node_bytes) {
  return node_bytes >= 2 * kCacheLine ? 2 * kCacheLine : kCacheLine;
}

template <class Entry, MemoryModel Mem>
class LlaQueue final : public QueueIface<Entry, Mem> {
 public:
  using Key = key_of_t<Entry>;

  struct NodeHdr {
    std::uint32_t head;
    std::uint32_t tail;
  };

  /// `pool` block size must be >= lla_node_bytes(k, sizeof(Entry)).
  LlaQueue(Mem& mem, memlayout::BlockPool& pool, std::size_t k)
      : mem_(&mem), pool_(&pool), k_(k), name_("lla-" + std::to_string(k)) {
    SEMPERM_ASSERT(k_ > 0);
    SEMPERM_ASSERT(pool.block_bytes() >= lla_node_bytes(k_, sizeof(Entry)));
  }

  ~LlaQueue() override {
    char* n = head_node_;
    while (n != nullptr) {
      char* next = *next_slot(n);
      pool_->release(n);
      n = next;
    }
  }

  SEMPERM_HOT void append(const Entry& entry) override {
    if (tail_node_ == nullptr || hdr(tail_node_)->tail == k_) grow();
    char* node = tail_node_;
    NodeHdr* h = hdr(node);
    mem_->read(h, sizeof(NodeHdr));
    Entry* slot = entries(node) + h->tail;
    *slot = entry;
    ++h->tail;
    mem_->write(slot, sizeof(Entry));
    mem_->write(h, sizeof(NodeHdr));
    ++size_;
    ++stats_.appends;
  }

  SEMPERM_HOT std::optional<Entry> find_and_remove(const Key& key) override {
    const Hit hit = search(key);
    if (hit.node == nullptr) return std::nullopt;
    Entry out = entries(hit.node)[hit.slot];
    remove_at(hit.prev, hit.node, hit.slot);
    ++stats_.removals;
    return out;
  }

  SEMPERM_HOT std::optional<Entry> peek(const Key& key) override {
    const Hit hit = search(key);
    if (hit.node == nullptr) return std::nullopt;
    return entries(hit.node)[hit.slot];
  }

  std::size_t size() const override { return size_; }

  std::size_t footprint_bytes() const override {
    return node_count_ * pool_->block_bytes();
  }

  const SearchStats& stats() const override { return stats_; }
  void reset_stats() override { stats_ = SearchStats{}; }

  const char* name() const override { return name_.c_str(); }

  std::size_t entries_per_node() const { return k_; }
  std::size_t node_count() const { return node_count_; }
  /// Live holes currently embedded in used sections (diagnostics).
  std::size_t hole_count() const { return holes_; }

  void self_check() const override {
    std::size_t nodes = 0;
    std::size_t live = 0;
    std::size_t holes = 0;
    const char* last = nullptr;
    for (char* n = head_node_; n != nullptr; last = n, n = *next_slot(n)) {
      ++nodes;
      if (nodes > node_count_)
        throw check::AuditError("lla audit: node chain longer than block "
                                "count " + std::to_string(node_count_) +
                                " (cycle or leaked node)");
      const NodeHdr* h = hdr(n);
      if (h->head > h->tail || h->tail > k_)
        throw check::AuditError(
            "lla audit: used section [" + std::to_string(h->head) + ", " +
            std::to_string(h->tail) + ") malformed for K=" +
            std::to_string(k_));
      if (h->head == h->tail)
        throw check::AuditError("lla audit: empty node left linked (head == "
                                "tail == " + std::to_string(h->head) + ')');
      const Entry* es = entries(n);
      if (es[h->head].is_hole() || es[h->tail - 1].is_hole())
        throw check::AuditError("lla audit: hole at the edge of the used "
                                "section (edge deletions must swallow "
                                "adjacent holes)");
      for (std::uint32_t i = h->head; i < h->tail; ++i)
        es[i].is_hole() ? ++holes : ++live;
    }
    if (nodes != node_count_)
      throw check::AuditError("lla audit: block occupancy " +
                              std::to_string(nodes) + " != block count " +
                              std::to_string(node_count_));
    if (last != tail_node_)
      throw check::AuditError("lla audit: tail_node_ does not terminate the "
                              "chain");
    if (live != size_)
      throw check::AuditError("lla audit: live element count " +
                              std::to_string(live) + " != size() " +
                              std::to_string(size_));
    if (holes != holes_)
      throw check::AuditError("lla audit: embedded hole count " +
                              std::to_string(holes) + " != hole counter " +
                              std::to_string(holes_));
  }

 private:
  /// Where a search stopped: slot `slot` of `node` (nullptr on a miss),
  /// whose predecessor in the node chain is `prev`.
  struct Hit {
    char* prev;
    char* node;
    std::uint32_t slot;
  };

  /// The first live entry in append order matching `key`, recorded in the
  /// search stats.
  Hit search(const Key& key) {
    std::uint64_t inspected = 0;
    std::uint64_t scanned = 0;
    char* prev = nullptr;
    for (char* n = head_node_; n != nullptr;) {
      NodeHdr* h = hdr(n);
      mem_->read(h, sizeof(NodeHdr));
      Entry* es = entries(n);
      for (std::uint32_t i = h->head; i < h->tail; ++i) {
        mem_->read(es + i, sizeof(Entry));
        ++scanned;
        if (es[i].is_hole()) {
          mem_->work(kHoleSkipCycles);
          continue;
        }
        mem_->work(kCompareCycles);
        ++inspected;
        if (entry_matches(es[i], key)) {
          stats_.record_search(inspected, scanned, /*hit=*/true);
          return {prev, n, i};
        }
      }
      char** next = next_slot(n);
      mem_->read(next, sizeof(char*));
      prev = n;
      n = *next;
    }
    stats_.record_search(inspected, scanned, /*hit=*/false);
    return {prev, nullptr, 0};
  }

  NodeHdr* hdr(char* n) const { return reinterpret_cast<NodeHdr*>(n); }
  Entry* entries(char* n) const {
    return reinterpret_cast<Entry*>(n + sizeof(NodeHdr));
  }
  char** next_slot(char* n) const {
    return reinterpret_cast<char**>(n + sizeof(NodeHdr) + k_ * sizeof(Entry));
  }

  void grow() {
    char* node = static_cast<char*>(pool_->acquire());
    new (node) NodeHdr{0, 0};
    Entry* es = reinterpret_cast<Entry*>(node + sizeof(NodeHdr));
    for (std::size_t i = 0; i < k_; ++i) new (es + i) Entry{};
    using NodePtr = char*;
    ::new (static_cast<void*>(node + sizeof(NodeHdr) + k_ * sizeof(Entry)))
        NodePtr(nullptr);
    mem_->write(node, sizeof(NodeHdr));
    mem_->write(node + sizeof(NodeHdr) + k_ * sizeof(Entry), sizeof(char*));
    if (tail_node_ != nullptr) {
      *next_slot(tail_node_) = node;
      mem_->write(next_slot(tail_node_), sizeof(char*));
    } else {
      head_node_ = node;
    }
    tail_node_ = node;
    ++node_count_;
  }

  /// Remove the entry at index `i` of node `n` (whose predecessor is
  /// `prev`), applying the paper's edge/hole policy.
  void remove_at(char* prev, char* n, std::uint32_t i) {
    NodeHdr* h = hdr(n);
    Entry* es = entries(n);
    if (i == h->head) {
      ++h->head;
      // Swallow any holes now exposed at the head of the used section.
      while (h->head < h->tail && es[h->head].is_hole()) {
        mem_->read(es + h->head, sizeof(Entry));
        mem_->work(kHoleSkipCycles);
        SEMPERM_ASSERT(holes_ > 0);
        --holes_;
        ++h->head;
      }
    } else if (i + 1 == h->tail) {
      --h->tail;
      while (h->tail > h->head && es[h->tail - 1].is_hole()) {
        mem_->read(es + h->tail - 1, sizeof(Entry));
        mem_->work(kHoleSkipCycles);
        SEMPERM_ASSERT(holes_ > 0);
        --holes_;
        --h->tail;
      }
    } else {
      es[i].make_hole();
      mem_->write(es + i, sizeof(Entry));
      ++holes_;
    }
    mem_->write(h, sizeof(NodeHdr));
    mem_->work(kLinkCycles);
    SEMPERM_ASSERT(size_ > 0);
    --size_;
    if (h->head == h->tail) unlink(prev, n);
  }

  void unlink(char* prev, char* n) {
    char* next = *next_slot(n);
    if (prev != nullptr) {
      *next_slot(prev) = next;
      mem_->write(next_slot(prev), sizeof(char*));
    } else {
      head_node_ = next;
    }
    if (n == tail_node_) tail_node_ = prev;
    pool_->release(n);
    SEMPERM_ASSERT(node_count_ > 0);
    --node_count_;
  }

  Mem* mem_;
  memlayout::BlockPool* pool_;
  std::size_t k_;
  std::string name_;
  char* head_node_ = nullptr;
  char* tail_node_ = nullptr;
  std::size_t size_ = 0;
  std::size_t node_count_ = 0;
  std::size_t holes_ = 0;
  SearchStats stats_;
};

}  // namespace semperm::match
