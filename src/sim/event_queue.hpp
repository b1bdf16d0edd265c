// event_queue.hpp — the discrete-event scheduler core.
//
// A binary-heap priority queue of (time, sequence) ordered events.  The
// sequence number breaks ties FIFO, which makes simulations fully
// deterministic: two events scheduled for the same instant always fire in
// scheduling order.  Cancellation is O(1) via a tombstone flag; cancelled
// entries are discarded lazily when they reach the front.
//
// Storage: event records live in a slab pool (core/arena.hpp) owned by the
// queue, not in one shared_ptr allocation per event — scheduling in steady
// state allocates nothing (the action's capture is inline in the pooled
// record, see core/inline_function.hpp).  The heap itself holds only small
// (time, seq, slot) entries.  An action is moved once, into its record, and
// fire_next() invokes it there: the record's lifetime is retired first (so
// the firing event's own handle already reads !pending() and cancel()
// returns false), and the slot is recycled only after the action returns
// or throws.  Slabs never move, so the action may schedule any number of
// further events while it runs.  Handles stay safe across every
// destruction order the nodes exercise: an EventHandle names a record by
// (pool, index, generation), so a stale handle to a recycled slot can never
// cancel the wrong event, and a handle that outlives the queue simply finds
// the pool gone.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "core/arena.hpp"
#include "core/inline_function.hpp"
#include "sim/time.hpp"

namespace lispcp::sim {

/// The event-closure type: captures up to the inline capacity live in the
/// pooled record itself (larger ones fall back to one heap allocation).
using EventAction = core::InlineFunction<void(), 88>;

namespace detail {

/// The pooled record store behind one EventQueue, shared (via weak_ptr)
/// with the handles it issued.
struct EventRecordPool {
  struct Record {
    EventAction action;
    bool cancelled = false;
    bool daemon = false;
  };

  core::Pool<Record> records;
  /// Exact live-foreground count (cancellation adjusts it immediately).
  std::uint64_t foreground_live = 0;

  [[nodiscard]] bool matches(std::uint32_t index,
                             std::uint32_t generation) const noexcept {
    return records.generation(index) == generation;
  }

  bool cancel(std::uint32_t index, std::uint32_t generation) noexcept {
    if (!matches(index, generation)) return false;
    Record& record = records[index];
    if (record.cancelled) return false;
    record.cancelled = true;
    record.action.reset();  // release captured state eagerly
    if (!record.daemon) --foreground_live;
    return true;
  }

  [[nodiscard]] bool pending(std::uint32_t index,
                             std::uint32_t generation) const noexcept {
    return matches(index, generation) && !records[index].cancelled;
  }
};

}  // namespace detail

/// Handle for cancelling a scheduled event.  Default-constructed handles are
/// inert; cancelling twice is harmless.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet.  Returns true iff this call
  /// transitioned the event from pending to cancelled.
  bool cancel() noexcept {
    auto pool = pool_.lock();
    return pool && pool->cancel(index_, generation_);
  }

  /// True while the event is still scheduled to fire.
  [[nodiscard]] bool pending() const noexcept {
    auto pool = pool_.lock();
    return pool && pool->pending(index_, generation_);
  }

 private:
  friend class EventQueue;
  EventHandle(std::weak_ptr<detail::EventRecordPool> pool, std::uint32_t index,
              std::uint32_t generation)
      : pool_(std::move(pool)), index_(index), generation_(generation) {}

  std::weak_ptr<detail::EventRecordPool> pool_;
  std::uint32_t index_ = 0;
  std::uint32_t generation_ = 0;
};

/// Time-ordered event queue.  Not thread-safe: the whole simulation is
/// single-threaded by design (see DESIGN.md, determinism).
class EventQueue {
 public:
  /// Enqueues `action` to fire at absolute time `at`.  A *daemon* event
  /// (periodic background maintenance: IRC refresh, RLOC probe cycles, NERD
  /// push timers) fires in time order like any other, but does not keep the
  /// simulation alive: Simulator::run() drains the queue only while
  /// foreground work remains.
  EventHandle schedule(SimTime at, EventAction&& action, bool daemon = false);

  /// Fires the earliest live event if its time is <= `until`: sets `now` to
  /// its time, then invokes its action in place.  Returns false, firing
  /// nothing, when no live event is due by `until`.  If the action throws,
  /// its slot is still recycled and the exception propagates; the queue
  /// stays consistent and the next call fires the next event.
  bool fire_next(SimTime until, SimTime& now);

  /// Time of the next live event without firing it; meaningful only when
  /// !empty().
  [[nodiscard]] SimTime next_time();

  [[nodiscard]] bool empty();

  /// True while at least one live non-daemon event is queued.  Exact (not
  /// lazy): cancellation adjusts the count immediately.
  [[nodiscard]] bool has_foreground() const noexcept {
    return pool_->foreground_live > 0;
  }

  /// Queued entries.  Upper bound on live events: cancelled entries that
  /// have not yet bubbled to the front are still counted (lazy deletion).
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Total events ever scheduled, for stats.
  [[nodiscard]] std::uint64_t scheduled_total() const noexcept { return seq_; }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t index;  ///< record slot in the pool
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };

  /// Drops cancelled entries from the front so top() is live.
  void prune();

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::shared_ptr<detail::EventRecordPool> pool_ =
      std::make_shared<detail::EventRecordPool>();
  std::uint64_t seq_ = 0;
};

}  // namespace lispcp::sim
