// semperm/coherence/line_map.hpp
//
// LineMap<V> — a flat open-addressing hash map from cache-line index to a
// small POD value. CoherentHierarchy keeps its coherence directory (one
// DirEntry per privately held line) in one, probed on every simulated
// access.
//
// Keyed by line group: a slot holds one aligned group of kGroupLines
// consecutive lines — its group key (line >> kGroupShift), a live mask
// (bit i: line key * kGroupLines + i is present) and the group's values
// inline. find(line) is one group probe plus one bit test. The coherent
// match walk asks about consecutive lines in turn (the next-line checks
// of the prefetchers' squash tests, the walk itself), so those probes
// land in one slot that is already hot, while the SplitMix hash still
// scatters separate address regions across the table.
//
// Why not unordered_map: every insert/erase there is a node malloc/free
// and every lookup a prime-modulo hash plus a pointer chase. LineMap keeps
// the groups inline in one contiguous slot array (linear probing,
// power-of-two capacity, multiplicative hashing), so the steady state
// allocates nothing; erasing a group's last line frees its slot by
// backward-shift deletion (no tombstones, so probe chains never rot).
//
// The reserved group key ~Addr{0} marks a free slot. No line's group key
// can equal it: a group key has its top kGroupShift bits clear.
//
// The API is the unordered_map subset the directory uses — find/end,
// operator[], erase(iterator), clear, range-for — so call sites read
// identically and the audit-mesi-bypass static check keeps matching its
// mutation sites. Iterators dereference to a pair<Addr, V&> proxy (the
// line is not stored, it is rebuilt from the group key), so `it->second`
// and `for (auto& [line, value] : map)` both work. Iteration order is
// deterministic (pure function of the insert/erase history) but is NOT
// insertion order; no caller's results depend on it. References and
// iterators are invalidated by rehash (growth) and by erase, like any
// open-addressing table — callers must not hold them across mutations.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace semperm::coherence {

template <typename V>
class LineMap {
 public:
  /// log2 of the lines per slot (one live-mask bit each).
  static constexpr unsigned kGroupShift = 4;
  static constexpr std::size_t kGroupLines = std::size_t{1} << kGroupShift;

 private:
  /// Reserved group key marking a free slot.
  static constexpr Addr kEmpty = ~Addr{0};

  struct Group {
    Addr key = kEmpty;       // line >> kGroupShift, or kEmpty if free
    std::uint16_t live = 0;  // bit i: line key * kGroupLines + i present
    std::array<V, kGroupLines> values{};
  };
  static_assert(kGroupLines <= 16, "live mask is 16 bits wide");

  template <bool Const>
  class Iter {
    using GroupPtr = std::conditional_t<Const, const Group*, Group*>;
    using ValueRef = std::conditional_t<Const, const V&, V&>;

   public:
    using value_type = std::pair<Addr, ValueRef>;
    using reference = value_type;

    /// operator-> target: the proxy pair lives inside the arrow object.
    struct Arrow {
      value_type pair;
      const value_type* operator->() const { return &pair; }
    };

    Iter() = default;
    Iter(GroupPtr g, GroupPtr end, unsigned bit)
        : g_(g), end_(end), bit_(bit) {}
    /// Conversion iterator -> const_iterator.
    operator Iter<true>() const { return Iter<true>(g_, end_, bit_); }

    reference operator*() const {
      return value_type((g_->key << kGroupShift) | bit_, g_->values[bit_]);
    }
    Arrow operator->() const { return Arrow{**this}; }
    Iter& operator++() {
      seek(bit_ + 1);
      return *this;
    }
    bool operator==(const Iter& o) const {
      return g_ == o.g_ && bit_ == o.bit_;
    }
    bool operator!=(const Iter& o) const { return !(*this == o); }

   private:
    friend class LineMap;

    /// Move to the first live line at or after bit `from` of the current
    /// group, else of a later group; end() when none is left.
    void seek(unsigned from) {
      for (; g_ != end_; ++g_, from = 0) {
        const std::uint32_t rest = g_->live & (~std::uint32_t{0} << from);
        if (rest != 0) {
          bit_ = static_cast<unsigned>(std::countr_zero(rest));
          return;
        }
      }
      bit_ = 0;
    }

    GroupPtr g_ = nullptr;
    GroupPtr end_ = nullptr;
    unsigned bit_ = 0;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  /// `capacity_hint` (in lines) sizes the slot array for that many lines
  /// packed kGroupLines to a slot, rounded up to a power of two; the
  /// table grows by doubling past 3/4 slot occupancy, so size it for the
  /// expected steady state to avoid rehashes mid-run.
  explicit LineMap(std::size_t capacity_hint = 1024) {
    std::size_t cap = 16;
    while (cap < capacity_hint / kGroupLines) cap <<= 1;
    groups_.resize(cap);
  }

  iterator begin() {
    iterator it(groups_.data(), groups_.data() + groups_.size(), 0);
    it.seek(0);
    return it;
  }
  iterator end() {
    return iterator(groups_.data() + groups_.size(),
                    groups_.data() + groups_.size(), 0);
  }
  const_iterator begin() const {
    const_iterator it(groups_.data(), groups_.data() + groups_.size(), 0);
    it.seek(0);
    return it;
  }
  const_iterator end() const {
    return const_iterator(groups_.data() + groups_.size(),
                          groups_.data() + groups_.size(), 0);
  }

  iterator find(Addr line) {
    Group& g = groups_[probe(line >> kGroupShift)];
    const unsigned b = bit_of(line);
    return live_at(g, b) ? iterator(&g, groups_.data() + groups_.size(), b)
                         : end();
  }
  const_iterator find(Addr line) const {
    const Group& g = groups_[probe(line >> kGroupShift)];
    const unsigned b = bit_of(line);
    return live_at(g, b)
               ? const_iterator(&g, groups_.data() + groups_.size(), b)
               : end();
  }

  /// Insert-or-find, default-constructing the value on insert.
  V& operator[](Addr line) {
    const Addr key = line >> kGroupShift;
    std::size_t i = probe(key);
    if (groups_[i].key == kEmpty) {
      if ((used_ + 1) * 4 > groups_.size() * 3) {
        grow();
        i = probe(key);
      }
      groups_[i].key = key;
      groups_[i].live = 0;
      ++used_;
    }
    Group& g = groups_[i];
    const unsigned b = bit_of(line);
    if (!live_at(g, b)) {
      g.live = static_cast<std::uint16_t>(g.live | (1u << b));
      g.values[b] = V{};
    }
    return g.values[b];
  }

  void erase(const_iterator it) {
    const auto i = static_cast<std::size_t>(it.g_ - groups_.data());
    Group& g = groups_[i];
    SEMPERM_ASSERT(live_at(g, it.bit_));
    g.live = static_cast<std::uint16_t>(g.live & ~(1u << it.bit_));
    if (g.live == 0) erase_group_at(i);
  }

  /// Drop every entry; capacity (and therefore the zero-allocation steady
  /// state) is retained.
  void clear() {
    if (used_ == 0) return;
    for (Group& g : groups_) {
      g.key = kEmpty;
      g.live = 0;
    }
    used_ = 0;
  }

 private:
  /// SplitMix64 finalizer: full-avalanche multiplicative mix, so distinct
  /// groups (separate address regions) scatter across the table instead
  /// of clustering into one probe chain.
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }

  static unsigned bit_of(Addr line) {
    return static_cast<unsigned>(line & (kGroupLines - 1));
  }
  static bool live_at(const Group& g, unsigned b) {
    return ((g.live >> b) & 1u) != 0;
  }

  std::size_t mask() const { return groups_.size() - 1; }
  std::size_t home(Addr key) const {
    return static_cast<std::size_t>(mix(key)) & mask();
  }

  /// Index of group `key`'s slot if present, else of the free slot that
  /// would receive it. The load factor cap guarantees a free slot exists,
  /// so the scan terminates. (A free slot's live mask is 0, so find()'s
  /// bit test needs no separate free check.)
  std::size_t probe(Addr key) const {
    std::size_t i = home(key);
    while (groups_[i].key != kEmpty && groups_[i].key != key)
      i = (i + 1) & mask();
    return i;
  }

  /// Backward-shift deletion: refill the hole by sliding up every chain
  /// group whose home precedes it, so lookups never need tombstones.
  void erase_group_at(std::size_t i) {
    SEMPERM_ASSERT(groups_[i].key != kEmpty);
    --used_;
    std::size_t j = i;
    for (;;) {
      groups_[i].key = kEmpty;
      groups_[i].live = 0;
      for (;;) {
        j = (j + 1) & mask();
        if (groups_[j].key == kEmpty) return;
        const std::size_t h = home(groups_[j].key);
        // Slot j may move into hole i only if its home does not lie
        // cyclically inside (i, j] — otherwise the move would break the
        // probe chain between home and j.
        const bool movable = i <= j ? (h <= i || h > j) : (h <= i && h > j);
        if (movable) break;
      }
      groups_[i] = std::move(groups_[j]);
      i = j;
    }
  }

  void grow() {
    std::vector<Group> old = std::move(groups_);
    groups_.clear();
    groups_.resize(old.size() * 2);
    for (Group& g : old)
      if (g.key != kEmpty) groups_[probe(g.key)] = std::move(g);
  }

  std::vector<Group> groups_;
  std::size_t used_ = 0;  // occupied slots (groups with a live line)
};

}  // namespace semperm::coherence
