#include "lisp/map_cache.hpp"

#include <algorithm>

namespace lispcp::lisp {

const MapEntry* MapCache::lookup_batch(net::Ipv4Address eid, std::uint64_t count,
                                       sim::SimTime now) {
  stats_.lookups += count;
  const std::uint32_t* slot_index = index_.lookup(eid);
  if (slot_index == nullptr) {
    stats_.misses_absent += count;
    return nullptr;
  }
  Slot& slot = slots_[*slot_index];
  if (slot.expiry <= now) {
    stats_.misses_expired += count;
    erase_slot(*slot_index);
    return nullptr;
  }
  touch(*slot_index);
  stats_.hits += count;
  return &slot.entry;
}

void MapCache::insert(const MapEntry& entry, sim::SimTime now) {
  const auto expiry = now + sim::SimDuration::seconds(entry.ttl_seconds);
  if (const std::uint32_t* existing = by_prefix_.find(entry.eid_prefix)) {
    Slot& slot = slots_[*existing];
    // A refresh (a re-gleaned or re-pushed mapping) usually keeps the same
    // locators; the reverse index then already holds this prefix for each.
    const bool same_rlocs = std::equal(
        slot.entry.rlocs.begin(), slot.entry.rlocs.end(), entry.rlocs.begin(),
        entry.rlocs.end(),
        [](const Rloc& a, const Rloc& b) { return a.address == b.address; });
    if (!same_rlocs) unindex_rlocs(slot.entry);
    slot.entry = entry;
    slot.expiry = expiry;
    if (!same_rlocs) index_rlocs(entry);
    touch(*existing);
    ++stats_.updates;
    return;
  }
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.entry = entry;
  slot.expiry = expiry;
  link_front(index);
  by_prefix_.insert_or_assign(entry.eid_prefix, index);
  index_.insert(entry.eid_prefix, index);
  index_rlocs(entry);
  ++stats_.inserts;
  evict_if_needed();
}

bool MapCache::set_rloc_reachability(const net::Ipv4Prefix& prefix,
                                     net::Ipv4Address rloc, bool reachable) {
  const std::uint32_t* index = by_prefix_.find(prefix);
  if (index == nullptr) return false;
  for (auto& r : slots_[*index].entry.rlocs) {
    if (r.address == rloc) {
      r.reachable = reachable;
      return true;
    }
  }
  return false;
}

std::size_t MapCache::set_rloc_reachability_all(net::Ipv4Address rloc,
                                                bool reachable) {
  const auto* prefixes = rloc_index_.find(rloc);
  if (prefixes == nullptr) return 0;
  std::size_t touched = 0;
  // Slot-order visit is fine here: each entry's flip is independent and
  // idempotent, so the order entries are touched in is unobservable.
  prefixes->for_each([&](const net::Ipv4Prefix& prefix) {
    const std::uint32_t* index = by_prefix_.find(prefix);
    if (index == nullptr) return;  // defensive; index mirrors the table
    for (auto& r : slots_[*index].entry.rlocs) {
      if (r.address == rloc && r.reachable != reachable) {
        r.reachable = reachable;
        ++touched;
      }
    }
  });
  return touched;
}

std::vector<net::Ipv4Address> MapCache::distinct_rlocs() const {
  return rloc_index_.sorted_keys();
}

std::size_t MapCache::entries_referencing(net::Ipv4Address rloc) const {
  const auto* prefixes = rloc_index_.find(rloc);
  return prefixes == nullptr ? 0 : prefixes->size();
}

bool MapCache::erase(const net::Ipv4Prefix& prefix) {
  const std::uint32_t* index = by_prefix_.find(prefix);
  if (index == nullptr) return false;
  erase_slot(*index);
  return true;
}

void MapCache::clear() {
  slots_.clear();
  free_.clear();
  live_ = 0;
  lru_head_ = kNone;
  lru_tail_ = kNone;
  index_.clear();
  by_prefix_.clear();
  rloc_index_.clear();
}

std::uint32_t MapCache::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t index = free_.back();
    free_.pop_back();
    ++live_;
    return index;
  }
  const auto index = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  ++live_;
  return index;
}

void MapCache::erase_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  unindex_rlocs(slot.entry);
  unlink(index);
  index_.erase(slot.entry.eid_prefix);
  by_prefix_.erase(slot.entry.eid_prefix);
  // The retired slot keeps its MapEntry (and the rlocs vector's capacity);
  // the next acquire_slot() overwrites it by assignment.
  free_.push_back(index);
  --live_;
}

void MapCache::touch(std::uint32_t index) {
  if (lru_head_ == index) return;
  unlink(index);
  link_front(index);
}

void MapCache::link_front(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.lru_prev = kNone;
  slot.lru_next = lru_head_;
  if (lru_head_ != kNone) slots_[lru_head_].lru_prev = index;
  lru_head_ = index;
  if (lru_tail_ == kNone) lru_tail_ = index;
}

void MapCache::unlink(std::uint32_t index) {
  Slot& slot = slots_[index];
  if (slot.lru_prev != kNone) {
    slots_[slot.lru_prev].lru_next = slot.lru_next;
  } else if (lru_head_ == index) {
    lru_head_ = slot.lru_next;
  }
  if (slot.lru_next != kNone) {
    slots_[slot.lru_next].lru_prev = slot.lru_prev;
  } else if (lru_tail_ == index) {
    lru_tail_ = slot.lru_prev;
  }
  slot.lru_prev = kNone;
  slot.lru_next = kNone;
}

void MapCache::evict_if_needed() {
  while (capacity_ != 0 && live_ > capacity_) {
    erase_slot(lru_tail_);
    ++stats_.evictions;
  }
}

void MapCache::index_rlocs(const MapEntry& entry) {
  for (const auto& rloc : entry.rlocs) {
    rloc_index_[rloc.address].insert(entry.eid_prefix);
  }
}

void MapCache::unindex_rlocs(const MapEntry& entry) {
  for (const auto& rloc : entry.rlocs) {
    core::FlatSet<net::Ipv4Prefix>* prefixes = rloc_index_.find(rloc.address);
    if (prefixes == nullptr) continue;
    prefixes->erase(entry.eid_prefix);
    if (prefixes->empty()) rloc_index_.erase(rloc.address);
  }
}

}  // namespace lispcp::lisp
