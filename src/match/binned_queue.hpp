// semperm/match/binned_queue.hpp
//
// Binned match queues, covering the related-work designs the paper's
// §2.2/§5 discuss as comparison points. They differ only in the bin index
// that finds the short list a search walks:
//
//  * SourceBins — Open MPI style: an array of per-source lists, giving O(1)
//    access to the short list for a given source at O(N) memory per
//    communicator (the paper's scalability criticism).
//  * HashBins — Flajslik et al. style: a fixed number of hash bins keyed by
//    the full match criteria; constant selection overhead on every
//    operation.
//  * TrieBins — Zounmevo & Afsahi (FGCS 2014) style, the design §5 calls
//    "scalable in terms of both speed and memory consumption": the source
//    rank is decomposed into four digits (base ceil(N^(1/4))) indexing a
//    four-level radix trie whose leaves hold per-source lists. Selection
//    costs four dependent table reads instead of one — the locality
//    trade-off the paper's study puts a price on — and memory grows with
//    the number of *communicating* sources (tables are allocated lazily),
//    not with the communicator size.
//
// Correct MPI FIFO semantics with wildcards require a total order across
// bins: every node carries a global sequence number and is threaded on a
// global arrival list. A posted receive that wildcards a binned field goes
// to a separate wildcard list; searches consult the candidate bin and the
// wildcard list and take the earlier sequence number. Wildcard *searches*
// of the unexpected queue (whose entries are always concrete) walk the
// global list.
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

/// Mix the full match criteria into a bin index (Flajslik-style keying).
inline std::size_t match_hash(std::int32_t tag, std::int32_t rank,
                              std::uint16_t ctx) {
  std::uint64_t x = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)) << 32) ^
                    (static_cast<std::uint64_t>(static_cast<std::uint16_t>(rank)) << 16) ^
                    ctx;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<std::size_t>(x);
}

/// Why a bin index is asked for a list: an append may create the list; a
/// search is charged for reading the bin.
enum class BinLookup { kAppend, kSearch, kUnlink };

/// A flat array of `nbins` lists carved from the arena, so the simulated
/// path sees its O(N)-memory cost. A search reads the selected list head.
template <class List>
class FlatBins {
 public:
  FlatBins(memlayout::Arena& arena, std::size_t nbins) : nbins_(nbins) {
    SEMPERM_ASSERT(nbins_ > 0);
    bins_ = arena.template create_array<List>(nbins_);
  }

  std::size_t bytes() const { return nbins_ * sizeof(List); }

  template <class F>
  void for_each_list(F&& f) const {
    for (std::size_t b = 0; b < nbins_; ++b) f(bins_[b]);
  }

 protected:
  template <MemoryModel Mem>
  List* at(Mem& mem, BinLookup why, std::size_t b) {
    List* list = &bins_[b];
    if (why == BinLookup::kSearch) mem.read(list, sizeof(List));
    return list;
  }

  std::size_t nbins_;
  List* bins_ = nullptr;
};

/// Open MPI style: bin = source rank, `nbins` = communicator size.
template <class List>
class SourceBins : public FlatBins<List> {
 public:
  using FlatBins<List>::FlatBins;

  static bool is_wildcard(const PostedEntry& e) { return e.rank_mask == 0; }
  static bool searches_bin(const Pattern& p) { return !p.wants_any_source(); }

  template <MemoryModel Mem>
  List* find(Mem& mem, BinLookup why, std::int32_t, std::int16_t rank,
             std::uint16_t) {
    SEMPERM_ASSERT_MSG(rank >= 0 && static_cast<std::size_t>(rank) < this->nbins_,
                       "source " << rank << " outside bin array");
    return this->at(mem, why, static_cast<std::size_t>(rank));
  }

  std::string name() const { return "ompi-bins"; }
};

/// Flajslik et al. style: bin = hash of the full criteria, so a wildcard
/// in either field cannot be binned.
template <class List>
class HashBins : public FlatBins<List> {
 public:
  using FlatBins<List>::FlatBins;

  static bool is_wildcard(const PostedEntry& e) {
    return e.rank_mask == 0 || e.tag_mask == 0;
  }
  static bool searches_bin(const Pattern& p) {
    return !p.wants_any_source() && !p.wants_any_tag();
  }

  template <MemoryModel Mem>
  List* find(Mem& mem, BinLookup why, std::int32_t tag, std::int16_t rank,
             std::uint16_t ctx) {
    return this->at(mem, why, match_hash(tag, rank, ctx) % this->nbins_);
  }

  std::string name() const { return "hash-bins"; }
};

/// Zounmevo & Afsahi style: a four-level radix trie over the source rank,
/// `max_ranks` = communicator size. Interior tables and leaf lists are
/// carved from the arena lazily, on the first append under their path;
/// every lookup is charged one read per level, and a search or unlink of
/// an absent path returns nullptr without allocating.
template <class List>
class TrieBins {
 public:
  static constexpr unsigned kLevels = 4;

  TrieBins(memlayout::Arena& arena, std::size_t max_ranks)
      : arena_(&arena), max_ranks_(max_ranks), base_(digit_base(max_ranks)) {
    root_ = new_table();
  }

  static bool is_wildcard(const PostedEntry& e) { return e.rank_mask == 0; }
  static bool searches_bin(const Pattern& p) { return !p.wants_any_source(); }

  /// Walk (or, for an append, build) the trie path for `rank`.
  template <MemoryModel Mem>
  List* find(Mem& mem, BinLookup why, std::int32_t, std::int16_t rank,
             std::uint16_t) {
    const auto r = static_cast<std::size_t>(static_cast<std::uint16_t>(rank));
    void** table = root_;
    std::size_t divisor = base_ * base_ * base_;
    for (unsigned level = 0;; ++level, divisor /= base_) {
      const bool leaf = level + 1 == kLevels;
      void** slot = table + (r / divisor) % base_;
      mem.read(slot, sizeof(void*));  // the dependent table lookup
      if (*slot == nullptr) {
        if (why != BinLookup::kAppend) return nullptr;
        *slot = leaf ? static_cast<void*>(arena_->template create<List>())
                     : static_cast<void*>(new_table());
        mem.write(slot, sizeof(void*));
      }
      if (leaf) return static_cast<List*>(*slot);
      table = static_cast<void**>(*slot);
    }
  }

  /// Interior tables only; leaf lists are not counted.
  std::size_t bytes() const { return tables_allocated_ * base_ * sizeof(void*); }
  std::size_t digit_base() const { return base_; }
  std::size_t tables_allocated() const { return tables_allocated_; }

  template <class F>
  void for_each_list(F&& f) const {
    walk(root_, 0, f);
  }

  std::string name() const { return "4d-" + std::to_string(max_ranks_); }

 private:
  static std::size_t digit_base(std::size_t max_ranks) {
    SEMPERM_ASSERT(max_ranks > 0);
    std::size_t base = 2;
    while (base * base * base * base < max_ranks) ++base;
    return base;
  }

  void** new_table() {
    ++tables_allocated_;
    return arena_->template create_array<void*>(base_);
  }

  template <class F>
  void walk(void* const* table, unsigned level, F& f) const {
    for (std::size_t d = 0; d < base_; ++d) {
      if (table[d] == nullptr) continue;
      if (level + 1 < kLevels)
        walk(static_cast<void* const*>(table[d]), level + 1, f);
      else
        f(*static_cast<const List*>(table[d]));
    }
  }

  memlayout::Arena* arena_;
  std::size_t max_ranks_;
  std::size_t base_;
  std::size_t tables_allocated_ = 0;
  void** root_ = nullptr;
};

template <class Entry, MemoryModel Mem, template <class> class Index>
class BinnedQueue final : public QueueIface<Entry, Mem> {
 public:
  using Key = key_of_t<Entry>;

  struct alignas(kCacheLine) Node {
    Entry entry;
    std::uint64_t seq;
    Node* bin_next;
    Node* bin_prev;
    Node* g_next;
    Node* g_prev;
  };
  static_assert(sizeof(Node) == kCacheLine);

  struct List {
    Node* head = nullptr;
    Node* tail = nullptr;
  };

  /// `nbins` sizes the index: communicator size for SourceBins and
  /// TrieBins, bin count for HashBins. The index lives in the pool's arena.
  BinnedQueue(Mem& mem, memlayout::BlockPool& pool, std::size_t nbins)
      : mem_(&mem),
        pool_(&pool),
        index_(pool.arena(), nbins),
        name_(index_.name()) {
    SEMPERM_ASSERT(pool.block_bytes() >= sizeof(Node));
  }

  ~BinnedQueue() override {
    for (Node* n = global_.head; n != nullptr;) {
      Node* next = n->g_next;
      pool_->release(n);
      n = next;
    }
  }

  SEMPERM_HOT void append(const Entry& entry) override {
    Node* node = static_cast<Node*>(pool_->acquire());
    node->entry = entry;
    node->seq = next_seq_++;
    node->bin_next = node->bin_prev = nullptr;
    node->g_next = node->g_prev = nullptr;
    mem_->write(node, sizeof(Node));
    List* bin = list_of(entry, BinLookup::kAppend);
    link_back(*bin, node, /*bin_links=*/true);
    link_back(global_, node, /*bin_links=*/false);
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

  std::size_t footprint_bytes() const override {
    return size_ * sizeof(Node) + index_.bytes();
  }

  const SearchStats& stats() const override { return stats_; }
  void reset_stats() override { stats_ = SearchStats{}; }

  const char* name() const override { return name_.c_str(); }

  void self_check() const override {
    // Global arrival list: linkage, live count, strictly increasing seq.
    std::size_t g_count = 0;
    const Node* prev = nullptr;
    for (const Node* n = global_.head; n != nullptr;
         prev = n, n = n->g_next) {
      if (n->g_prev != prev)
        throw check::AuditError(name_ + " audit: broken global back-link");
      if (prev != nullptr && n->seq <= prev->seq)
        throw check::AuditError(name_ + " audit: arrival order not strictly "
                                        "increasing (seq " +
                                std::to_string(n->seq) + " after " +
                                std::to_string(prev->seq) + ')');
      ++g_count;
      if (g_count > size_)
        throw check::AuditError(name_ + " audit: global chain longer than "
                                        "live count (cycle or stale node)");
    }
    if (prev != global_.tail)
      throw check::AuditError(name_ + " audit: global tail pointer does not "
                                      "terminate the chain");
    if (g_count != size_)
      throw check::AuditError(name_ + " audit: global chain length " +
                              std::to_string(g_count) + " != live count " +
                              std::to_string(size_));
    // Bin lists partition the same nodes: lengths must sum to the total.
    std::size_t b_count = 0;
    auto count = [&](const List& l) {
      for (const Node* n = l.head; n != nullptr; n = n->bin_next) {
        ++b_count;
        if (b_count > size_)
          throw check::AuditError(name_ + " audit: bin chains hold more "
                                          "nodes than the live count");
      }
    };
    index_.for_each_list(count);
    count(wildcard_);
    if (b_count != size_)
      throw check::AuditError(name_ + " audit: bin occupancy " +
                              std::to_string(b_count) +
                              " != live count " + std::to_string(size_));
  }

  const Index<List>& index() const { return index_; }

 private:
  // --- bin selection -------------------------------------------------
  static bool entry_is_wildcard(const PostedEntry& e) {
    return Index<List>::is_wildcard(e);
  }
  static bool entry_is_wildcard(const UnexpectedEntry&) { return false; }

  static bool search_is_concrete(const Envelope&) { return true; }
  static bool search_is_concrete(const Pattern& p) {
    return Index<List>::searches_bin(p);
  }

  List* list_of(const Entry& e, BinLookup why) {
    if (entry_is_wildcard(e)) return &wildcard_;
    return index_.find(*mem_, why, e.tag, e.rank, e.ctx);
  }

  /// The earliest entry in append order matching `key`, recorded in the
  /// search stats; nullptr if none.
  Node* search(const Key& key) {
    std::uint64_t inspected = 0;
    Node* best = nullptr;
    if (search_is_concrete(key)) {
      // O(1) bin selection, then a short in-bin walk...
      List* bin = index_.find(*mem_, BinLookup::kSearch, key.tag, key.rank,
                              key.ctx);
      if (bin != nullptr)
        best = first_match(bin->head, /*bin_links=*/true, key, inspected);
      // ...plus, for the PRQ, the wildcard list (earlier posting wins).
      if (wildcard_.head != nullptr) {
        Node* w = first_match(wildcard_.head, /*bin_links=*/true, key, inspected);
        if (w != nullptr && (best == nullptr || w->seq < best->seq)) best = w;
      }
    } else {
      // Wildcard search: only the global arrival order is authoritative.
      best = first_match(global_.head, /*bin_links=*/false, key, inspected);
    }
    stats_.record_search(inspected, inspected, best != nullptr);
    return best;
  }

  // --- list plumbing --------------------------------------------------
  Node* first_match(Node* head, bool bin_links, const Key& key,
                    std::uint64_t& inspected) {
    for (Node* n = head; n != nullptr;
         n = bin_links ? n->bin_next : n->g_next) {
      mem_->read(n, sizeof(Entry) + sizeof(std::uint64_t));
      mem_->work(kCompareCycles);
      ++inspected;
      if (entry_matches(n->entry, key)) return n;
      mem_->read(bin_links ? &n->bin_next : &n->g_next, sizeof(Node*));
    }
    return nullptr;
  }

  // Named link_back, not push_back: the node is already pool-owned — this
  // is pointer threading, not growth, and the hotpath-alloc check is
  // receiver-blind about allocation-shaped names.
  void link_back(List& l, Node* n, bool bin_links) {
    Node*& tail_next = l.tail != nullptr
                           ? (bin_links ? l.tail->bin_next : l.tail->g_next)
                           : l.head;
    tail_next = n;
    if (l.tail != nullptr) {
      (bin_links ? n->bin_prev : n->g_prev) = l.tail;
      mem_->write(&tail_next, sizeof(Node*));
    }
    l.tail = n;
  }

  void remove_from(List& l, Node* n, bool bin_links) {
    Node* prev = bin_links ? n->bin_prev : n->g_prev;
    Node* next = bin_links ? n->bin_next : n->g_next;
    if (prev != nullptr)
      (bin_links ? prev->bin_next : prev->g_next) = next;
    else
      l.head = next;
    if (next != nullptr)
      (bin_links ? next->bin_prev : next->g_prev) = prev;
    else
      l.tail = prev;
    mem_->work(kLinkCycles);
  }

  void unlink(Node* n) {
    List* bin = list_of(n->entry, BinLookup::kUnlink);
    SEMPERM_ASSERT(bin != nullptr);
    remove_from(*bin, n, /*bin_links=*/true);
    remove_from(global_, n, /*bin_links=*/false);
    mem_->write(n, sizeof(Node));
    pool_->release(n);
    SEMPERM_ASSERT(size_ > 0);
    --size_;
  }

  Mem* mem_;
  memlayout::BlockPool* pool_;
  Index<List> index_;
  std::string name_;
  List wildcard_;
  List global_;
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
  SearchStats stats_;
};

}  // namespace semperm::match
