// prefix_trie.hpp — the longest-prefix-match table.
//
// The routing substrate: every router's forwarding table, the ALT overlay's
// EID-prefix aggregation tree, the ITR map-cache index, the mapping
// registries and the PCE databases are all PrefixTrie<T> instances.  It is
// sized for the packet simulator's per-hop lookup, where the core's and the
// domain-internal routers' tables are mostly /32 host routes (RLOCs,
// resolvers, PCEs) plus a few aggregates:
//
//   * /32 entries live in a FlatMap side table keyed by the address, probed
//     first: a /32 hit is always the longest match, so a host route costs
//     one hash probe instead of a 32-level walk.  Their values sit in
//     per-entry heap nodes, because a rehash moves the table's slots.
//   * Shorter prefixes live in an uncompressed binary trie whose nodes are
//     carved from a few slabs owned by the table (no allocation per node)
//     and linked by pointer.  Slabs never move, so a node — and the value
//     stored in it — keeps its address for the table's lifetime.  A walk is
//     at most 31 pointer steps, each a single dependent load, with the
//     value stored first in the node so the step's match test reads the
//     line it just loaded.
//
// Two other layouts were measured and rejected (bench/m1_micro
// "prefix-trie lookup/*", "map-cache hit/*"): one hash table per prefix
// length costs a probe per distinct length, several times the trie walk on
// tables with a dozen or more lengths; and nodes in one growable array
// linked by 32-bit index, with values in a parallel array, walked the deep
// /24 paths of the map-cache shape 5-25% slower than pointer links.
//
// Value lifetime: a pointer returned by lookup(), lookup_with_prefix() or
// find_exact() stays valid until that prefix is erased or the table is
// cleared or assigned to — inserting other prefixes (which may add slabs or
// rehash the side table) never moves a value.  Overwriting a prefix with
// insert() assigns into the same place.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/flat_map.hpp"
#include "net/ipv4.hpp"

namespace lispcp::net {

/// Maps Ipv4Prefix -> T with longest-prefix-match lookup by address.
template <typename T>
class PrefixTrie {
 public:
  PrefixTrie() = default;

  /// A moved-from table is a valid empty table.
  PrefixTrie(PrefixTrie&& other) noexcept { *this = std::move(other); }
  PrefixTrie& operator=(PrefixTrie&& other) noexcept {
    slabs_ = std::exchange(other.slabs_, {});
    slab_size_ = std::exchange(other.slab_size_, 0);
    slab_used_ = std::exchange(other.slab_used_, 0);
    root_ = std::exchange(other.root_, nullptr);
    hosts_ = std::exchange(other.hosts_, {});
    size_ = std::exchange(other.size_, 0);
    return *this;
  }
  PrefixTrie(const PrefixTrie&) = delete;
  PrefixTrie& operator=(const PrefixTrie&) = delete;

  /// Inserts or replaces the value at `prefix`.  Returns true if a new entry
  /// was created, false if an existing one was overwritten.
  bool insert(const Ipv4Prefix& prefix, T value) {
    if (prefix.length() == 32) {
      const std::uint32_t key = prefix.address().value();
      if (std::unique_ptr<T>* holder = hosts_.find(key)) {
        **holder = std::move(value);
        return false;
      }
      hosts_.insert_or_assign(key, std::make_unique<T>(std::move(value)));
      ++size_;
      return true;
    }
    std::optional<T>& slot = descend_create(prefix).value;
    const bool created = !slot.has_value();
    slot = std::move(value);
    if (created) ++size_;
    return created;
  }

  /// Removes the exact entry at `prefix`.  Returns true iff it existed.
  /// (Trie nodes are not reclaimed; tables in this simulator are built once
  /// and mutated rarely, and a re-inserted prefix reuses its node.)
  bool erase(const Ipv4Prefix& prefix) {
    if (prefix.length() == 32) {
      if (hosts_.erase(prefix.address().value()) == 0) return false;
    } else {
      Node* node = descend_find(prefix);
      if (node == nullptr || !node->value.has_value()) return false;
      node->value.reset();
    }
    --size_;
    return true;
  }

  /// Exact-match lookup.
  [[nodiscard]] const T* find_exact(const Ipv4Prefix& prefix) const noexcept {
    if (prefix.length() == 32) return host(prefix.address());
    const Node* node = descend_find(prefix);
    return (node != nullptr && node->value.has_value()) ? &*node->value : nullptr;
  }

  [[nodiscard]] T* find_exact(const Ipv4Prefix& prefix) noexcept {
    return const_cast<T*>(std::as_const(*this).find_exact(prefix));
  }

  /// Longest-prefix match: the value of the most specific prefix containing
  /// `addr`, or nullptr if no prefix covers it.
  [[nodiscard]] const T* lookup(Ipv4Address addr) const noexcept {
    if (const T* exact = host(addr)) return exact;
    const T* best = nullptr;
    walk_covering(addr, [&best](const T* value, int) { best = value; });
    return best;
  }

  [[nodiscard]] T* lookup(Ipv4Address addr) noexcept {
    return const_cast<T*>(std::as_const(*this).lookup(addr));
  }

  /// As lookup(), but also reports the matching prefix.
  [[nodiscard]] std::optional<std::pair<Ipv4Prefix, const T*>> lookup_with_prefix(
      Ipv4Address addr) const noexcept {
    if (const T* exact = host(addr)) return std::pair{Ipv4Prefix::host(addr), exact};
    const T* best = nullptr;
    int best_length = 0;
    walk_covering(addr, [&](const T* value, int length) {
      best = value;
      best_length = length;
    });
    if (best == nullptr) return std::nullopt;
    return std::pair{Ipv4Prefix(addr, best_length), best};
  }

  /// Visits every (prefix, value) pair in ascending (address, length) order.
  void for_each(
      const std::function<void(const Ipv4Prefix&, const T&)>& visit) const {
    // The trie's pre-order walk is already ascending; the /32 side table is
    // merged in from a sorted snapshot (a /32 sorts after every shorter
    // prefix with the same address).
    const std::vector<std::uint32_t> hosts = hosts_.sorted_keys();
    std::size_t next_host = 0;
    const auto emit_hosts_below = [&](std::uint64_t bound) {
      for (; next_host < hosts.size() && hosts[next_host] < bound; ++next_host) {
        const Ipv4Address address(hosts[next_host]);
        visit(Ipv4Prefix::host(address), *host(address));
      }
    };
    walk(root_, 0, 0, [&](const Ipv4Prefix& prefix, const T& value) {
      emit_hosts_below(prefix.address().value());
      visit(prefix, value);
    });
    emit_hosts_below(std::uint64_t{1} << 32);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  void clear() { *this = PrefixTrie(); }

 private:
  struct Node {
    std::optional<T> value;  ///< first: a match test reads the loaded line
    Node* child[2] = {nullptr, nullptr};
  };

  // Slabs double from kFirstSlab up to kMaxSlab nodes, so a table holding a
  // handful of routes stays small and a large one needs few allocations.
  static constexpr std::size_t kFirstSlab = 16;
  static constexpr std::size_t kMaxSlab = 1024;

  [[nodiscard]] static int bit_at(std::uint32_t bits, int depth) noexcept {
    return static_cast<int>((bits >> (31 - depth)) & 1);
  }

  [[nodiscard]] const T* host(Ipv4Address addr) const noexcept {
    if (hosts_.empty()) return nullptr;
    const std::unique_ptr<T>* holder = hosts_.find(addr.value());
    return holder == nullptr ? nullptr : holder->get();
  }

  /// Calls on_match(value, length) for every trie entry covering `addr`,
  /// shortest first.
  template <typename OnMatch>
  void walk_covering(Ipv4Address addr, OnMatch&& on_match) const noexcept {
    const Node* node = root_;
    const std::uint32_t bits = addr.value();
    // Depth 31 is the deepest trie level: /32s live in the side table.
    for (int depth = 0; node != nullptr; ++depth) {
      if (node->value.has_value()) on_match(&*node->value, depth);
      if (depth == 31) return;
      node = node->child[bit_at(bits, depth)];
    }
  }

  Node* new_node() {
    if (slab_used_ == slab_size_) {
      slab_size_ = slab_size_ == 0 ? kFirstSlab : std::min(2 * slab_size_, kMaxSlab);
      slabs_.push_back(std::make_unique<Node[]>(slab_size_));
      slab_used_ = 0;
    }
    return &slabs_.back()[slab_used_++];
  }

  /// The node for `prefix` (length < 32), created along with its path.
  Node& descend_create(const Ipv4Prefix& prefix) {
    if (root_ == nullptr) root_ = new_node();
    Node* node = root_;
    const std::uint32_t bits = prefix.address().value();
    for (int depth = 0; depth < prefix.length(); ++depth) {
      Node*& child = node->child[bit_at(bits, depth)];
      if (child == nullptr) child = new_node();
      node = child;
    }
    return *node;
  }

  /// The node for `prefix` (length < 32), or nullptr if its path is absent.
  [[nodiscard]] Node* descend_find(const Ipv4Prefix& prefix) const noexcept {
    Node* node = root_;
    const std::uint32_t bits = prefix.address().value();
    for (int depth = 0; depth < prefix.length() && node != nullptr; ++depth) {
      node = node->child[bit_at(bits, depth)];
    }
    return node;
  }

  template <typename Visit>
  void walk(const Node* node, std::uint32_t path, int depth,
            const Visit& visit) const {
    if (node == nullptr) return;
    if (node->value.has_value()) {
      visit(Ipv4Prefix(Ipv4Address(path), depth), *node->value);
    }
    walk(node->child[0], path, depth + 1, visit);
    walk(node->child[1], path | (std::uint32_t{1} << (31 - depth)), depth + 1,
         visit);
  }

  std::vector<std::unique_ptr<Node[]>> slabs_;  ///< never move once made
  std::size_t slab_size_ = 0;  ///< nodes in the newest slab
  std::size_t slab_used_ = 0;  ///< nodes handed out from it
  Node* root_ = nullptr;       ///< made with the first prefix shorter than /32
  core::FlatMap<std::uint32_t, std::unique_ptr<T>> hosts_;  ///< the /32s
  std::size_t size_ = 0;
};

}  // namespace lispcp::net
