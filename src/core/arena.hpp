// arena.hpp — pooled allocation for the simulators' per-event records.
//
// The discrete-event hot loops allocate and free one small object per event
// (an EventQueue record, an UpdateMessage per MRAI flush), so the general
// allocator dominated their profiles.  Two primitives replace it:
//
//   * Pool<T>: slab-backed free-list pool with per-slot generation
//     counters.  Indices are recycled; a (index, generation) pair names one
//     *lifetime* of a slot, so stale handles to a recycled slot are
//     detectable (EventHandle safety — see sim/event_queue.hpp).  Slabs
//     never move, so T's address is stable for the slot's lifetime, even
//     while later allocate() calls grow the pool.  release() may be split
//     into retire() (end the lifetime) and recycle() (free the slot), so a
//     record can be used in place between the two.
//
//   * Recycler<T>: a bounded stack of retired objects whose *buffers* are
//     worth keeping (vectors that would otherwise re-grow from zero).
//     acquire() hands back a retired object with its capacity intact;
//     callers clear content themselves, so the recycler stays policy-free.
//
// Neither is thread-safe; each simulation thread owns its own (the shard
// engine keeps one Recycler per worker via thread_local).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace lispcp::core {

template <typename T>
class Pool {
 public:
  static constexpr std::size_t kSlabSize = 256;

  /// Takes a free slot (reusing a released one first) and returns its index.
  /// The slot's T keeps whatever state its previous lifetime left — callers
  /// reinitialise the fields they use (that reuse is the point: a vector
  /// member keeps its capacity).
  std::uint32_t allocate() {
    if (free_.empty()) grow();
    const std::uint32_t index = free_.back();
    free_.pop_back();
    ++live_;
    return index;
  }

  /// Returns a slot to the free list and invalidates its generation, so
  /// handles created for the old lifetime no longer match.  Equivalent to
  /// retire() followed by recycle().
  void release(std::uint32_t index) {
    retire(index);
    recycle(index);
  }

  /// Ends the slot's current lifetime (handles to it no longer match) while
  /// the slot stays allocated, so its T can still be used in place — the
  /// event queue runs a firing action from its own slot this way.
  void retire(std::uint32_t index) noexcept { ++slot(index).generation; }

  /// Returns a retired slot to the free list (never reallocates: the list
  /// has room for every slot).
  void recycle(std::uint32_t index) noexcept {
    free_.push_back(index);
    --live_;
  }

  [[nodiscard]] T& operator[](std::uint32_t index) noexcept {
    return slot(index).value;
  }
  [[nodiscard]] const T& operator[](std::uint32_t index) const noexcept {
    return slot(index).value;
  }

  /// The current lifetime stamp of a slot; incremented on every release.
  [[nodiscard]] std::uint32_t generation(std::uint32_t index) const noexcept {
    return slot(index).generation;
  }

  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slabs_.size() * kSlabSize;
  }

 private:
  struct Slot {
    T value{};
    std::uint32_t generation = 0;
  };

  [[nodiscard]] Slot& slot(std::uint32_t index) noexcept {
    return slabs_[index / kSlabSize][index % kSlabSize];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t index) const noexcept {
    return slabs_[index / kSlabSize][index % kSlabSize];
  }

  void grow() {
    const auto base = static_cast<std::uint32_t>(capacity());
    slabs_.push_back(std::make_unique<Slot[]>(kSlabSize));
    // Room for every slot at once, so recycle() never reallocates.
    free_.reserve(capacity());
    // Low indices come off the free list first (nicer cache locality for
    // shallow queues).
    for (std::uint32_t i = kSlabSize; i > 0; --i) {
      free_.push_back(base + i - 1);
    }
  }

  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
};

template <typename T>
class Recycler {
 public:
  explicit Recycler(std::size_t max_retired = 64) : max_retired_(max_retired) {}

  /// A retired object (buffers intact) or a fresh default-constructed one.
  [[nodiscard]] T acquire() {
    if (retired_.empty()) return T{};
    T out = std::move(retired_.back());
    retired_.pop_back();
    return out;
  }

  /// Retires an object for reuse; beyond the bound it is simply destroyed.
  void release(T&& value) {
    if (retired_.size() < max_retired_) retired_.push_back(std::move(value));
  }

  [[nodiscard]] std::size_t retired() const noexcept { return retired_.size(); }

 private:
  std::size_t max_retired_;
  std::vector<T> retired_;
};

}  // namespace lispcp::core
