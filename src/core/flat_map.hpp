// flat_map.hpp — open-addressing hash containers with one-struct slots.
//
// The BGP speaker's RIBs were std::map (one node allocation per route,
// pointer-chasing on every find) purely to get ordered iteration.  But the
// hot paths — the decision process probing Adj-RIB-In, Loc-RIB installs,
// pending-delta upserts — only need point lookups; ordering matters at two
// cold edges (MRAI flush emission and rib_prefixes()), which take an
// explicit sorted snapshot instead.  These containers provide the hot half:
// linear-probing open addressing over one array of slots, each slot holding
// its key, state byte and value together, so a lookup that hits a cold
// table touches one cache line (state, key and value arrive together)
// instead of one line per parallel array.  Power-of-two capacity, tombstone
// deletion with an in-place rehash when tombstones accumulate.
//
// Sizing (DESIGN.md "Memory layout and the perf ratchet"):
//   * growth — when live + tombstoned slots pass 7/8, the table rehashes
//     to 4x its live count (power of two, at least 16);
//   * reserve(n) — sizes for at most 50% load, so a RIB pre-sized for a
//     known table (1014 prefixes -> 2048 slots) fills without a rehash and
//     stays dense;
//   * clear() — keeps the allocation when it is no larger than growth
//     would have made it for what the table held, and frees it otherwise:
//     a storm-sized MRAI pending table shrinks once, then a small one is
//     reused for every later flush.
//
// Iteration (for_each) runs in *slot* order, which depends on capacity
// history — callers that need a reproducible order must sort, which is the
// point of sorted_keys(): the byte-identical-records contract must never
// rest on hash-table order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace lispcp::core {

namespace detail {
/// splitmix64 finaliser: the element hashes here (addresses, prefixes,
/// ASNs) are mostly identity functions over structured values, whose low
/// bits are often constant (site blocks are /20-aligned) — exactly the bits
/// a power-of-two mask keeps.
inline std::size_t mix_hash(std::size_t h) noexcept {
  std::uint64_t x = h;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x);
}
}  // namespace detail

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
  enum : std::uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

 public:
  FlatMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Allocated slots (0 before the first insert or after a freeing clear).
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  [[nodiscard]] V* find(const K& key) noexcept {
    const std::size_t i = locate(key);
    return i == npos ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] const V* find(const K& key) const noexcept {
    const std::size_t i = locate(key);
    return i == npos ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] bool contains(const K& key) const noexcept {
    return locate(key) != npos;
  }

  /// The value for `key`, default-constructed on first access.
  V& operator[](const K& key) { return *insert_slot(key).first; }

  /// Returns (value*, inserted).
  std::pair<V*, bool> try_emplace(const K& key) { return insert_slot(key); }

  void insert_or_assign(const K& key, V value) {
    *insert_slot(key).first = std::move(value);
  }

  /// Removes `key`; returns 1 if it was present.  The slot's value is
  /// reset so erased entries do not pin their buffers.
  std::size_t erase(const K& key) {
    const std::size_t i = locate(key);
    if (i == npos) return 0;
    slots_[i].state = kTombstone;
    slots_[i].value = V{};
    --size_;
    return 1;
  }

  /// Removes every entry, releasing every value.  The allocation is kept
  /// when growth would have reached at least this capacity for the entries
  /// the table held, and freed when it is larger than that.
  void clear() {
    if (slots_.size() > growth_capacity(size_)) {
      std::vector<Slot>().swap(slots_);
      mask_ = 0;
    } else {
      for (Slot& slot : slots_) {
        if (slot.state == kFull) slot.value = V{};
        slot.state = kEmpty;
      }
    }
    size_ = 0;
    used_ = 0;
  }

  /// Pre-sizes the table for `n` live entries at no more than 50% load, so
  /// a build-up of known size (a BGP origination storm filling a RIB)
  /// performs no rehash at all.  Capacity history affects only slot order,
  /// which no sanctioned output depends on (sorted_keys() sorts).  Never
  /// shrinks: a no-op if the table is already at least that big.
  void reserve(std::size_t n) {
    const std::size_t capacity = reserve_capacity(n);
    if (capacity > slots_.size()) rehash(capacity);
  }

  /// Visits every (key, value) in slot order (NOT deterministic across
  /// capacity histories — sort before anything order-sensitive).
  template <typename F>
  void for_each(F&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.state == kFull) fn(slot.key, slot.value);
    }
  }
  template <typename F>
  void for_each(F&& fn) {
    for (Slot& slot : slots_) {
      if (slot.state == kFull) fn(slot.key, slot.value);
    }
  }

  /// The sorted-snapshot view: every key, ascending.  This is the only
  /// sanctioned way to iterate into output or event order.
  [[nodiscard]] std::vector<K> sorted_keys() const {
    std::vector<K> out;
    sorted_keys_into(out);
    return out;
  }

  /// sorted_keys() into a caller-owned buffer (replacing its contents), so
  /// a hot caller reuses one vector's capacity instead of allocating.
  void sorted_keys_into(std::vector<K>& out) const {
    out.clear();
    out.reserve(size_);
    // Stop at the last live key: a sparse table (a storm-sized one holding
    // a single pending prefix) is not scanned to its end.
    for (std::size_t i = 0; out.size() < size_; ++i) {
      if (slots_[i].state == kFull) out.push_back(slots_[i].key);
    }
    std::sort(out.begin(), out.end());
  }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  struct Slot {
    K key{};
    std::uint8_t state = kEmpty;
    [[no_unique_address]] V value{};
  };

  [[nodiscard]] std::size_t locate(const K& key) const noexcept {
    if (slots_.empty()) return npos;
    const Slot* const slots = slots_.data();
    std::size_t i = detail::mix_hash(Hash{}(key)) & mask_;
    for (;;) {
      const Slot& slot = slots[i];
      if (slot.state == kEmpty) return npos;
      if (slot.state == kFull && slot.key == key) return i;
      i = (i + 1) & mask_;
    }
  }

  std::pair<V*, bool> insert_slot(const K& key) {
    if (slots_.empty() || (used_ + 1) * 8 > slots_.size() * 7) rehash();
    const std::size_t mask = mask_;
    std::size_t i = detail::mix_hash(Hash{}(key)) & mask;
    std::size_t first_tombstone = npos;
    for (;;) {
      Slot& slot = slots_[i];
      if (slot.state == kFull) {
        if (slot.key == key) return {&slot.value, false};
      } else if (slot.state == kTombstone) {
        if (first_tombstone == npos) first_tombstone = i;
      } else {  // empty: key is absent, insert here or at an earlier grave
        if (first_tombstone != npos) {
          i = first_tombstone;
        } else {
          ++used_;
        }
        Slot& target = slots_[i];
        target.state = kFull;
        target.key = key;
        ++size_;
        return {&target.value, true};
      }
      i = (i + 1) & mask;
    }
  }

  /// The smallest power of two (>= 16) of at least `factor * n` slots.
  [[nodiscard]] static std::size_t capacity_for(std::size_t n,
                                                std::size_t factor) noexcept {
    std::size_t capacity = 16;
    while (capacity < n * factor) capacity *= 2;
    return capacity;
  }
  [[nodiscard]] static std::size_t growth_capacity(std::size_t n) noexcept {
    return capacity_for(n, 4);
  }
  [[nodiscard]] static std::size_t reserve_capacity(std::size_t n) noexcept {
    return capacity_for(n, 2);
  }

  // Grow when genuinely full; a tombstone-heavy table whose live entries
  // fit the reserve load rehashes in place.
  void rehash() {
    const std::size_t capacity = slots_.size();
    rehash(capacity != 0 && size_ * 2 <= capacity ? capacity
                                                  : growth_capacity(size_));
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(capacity);  // value-initialised: V may be move-only
    mask_ = capacity - 1;
    const std::size_t mask = mask_;
    for (Slot& from : old) {
      if (from.state != kFull) continue;
      std::size_t j = detail::mix_hash(Hash{}(from.key)) & mask;
      while (slots_[j].state == kFull) j = (j + 1) & mask;
      Slot& to = slots_[j];
      to.state = kFull;
      to.key = std::move(from.key);
      to.value = std::move(from.value);
    }
    used_ = size_;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;  ///< capacity - 1 (kept: the slot size is no power of two)
  std::size_t size_ = 0;  ///< live entries
  std::size_t used_ = 0;  ///< live + tombstoned slots
};

/// Set counterpart, sharing FlatMap's probe logic (its empty value takes
/// no room in the slot).
template <typename K, typename Hash = std::hash<K>>
class FlatSet {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
  [[nodiscard]] bool empty() const noexcept { return map_.empty(); }
  [[nodiscard]] bool contains(const K& key) const noexcept {
    return map_.contains(key);
  }
  /// Returns true iff newly inserted.
  bool insert(const K& key) { return map_.try_emplace(key).second; }
  std::size_t erase(const K& key) { return map_.erase(key); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }
  /// Visits every key in slot order (NOT deterministic — see FlatMap).
  template <typename F>
  void for_each(F&& fn) const {
    map_.for_each([&fn](const K& key, const auto&) { fn(key); });
  }
  [[nodiscard]] std::vector<K> sorted_keys() const {
    return map_.sorted_keys();
  }

 private:
  struct Nothing {};
  FlatMap<K, Nothing, Hash> map_;
};

}  // namespace lispcp::core
