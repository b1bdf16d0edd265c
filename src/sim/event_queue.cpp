#include "sim/event_queue.hpp"

#include <stdexcept>

namespace lispcp::sim {

EventHandle EventQueue::schedule(SimTime at, EventAction&& action,
                                 bool daemon) {
  const std::uint32_t index = pool_->records.allocate();
  auto& record = pool_->records[index];
  record.action = std::move(action);
  record.cancelled = false;
  record.daemon = daemon;
  if (!daemon) ++pool_->foreground_live;
  heap_.push(Entry{at, seq_++, index});
  return EventHandle(pool_, index, pool_->records.generation(index));
}

void EventQueue::prune() {
  // Cancelled entries already gave back their foreground count in
  // EventHandle::cancel(); here they are only physically discarded and
  // their slots returned to the pool.
  while (!heap_.empty() && pool_->records[heap_.top().index].cancelled) {
    pool_->records.release(heap_.top().index);
    heap_.pop();
  }
}

bool EventQueue::fire_next(SimTime until, SimTime& now) {
  prune();
  if (heap_.empty() || heap_.top().time > until) return false;
  const Entry entry = heap_.top();
  heap_.pop();
  auto& records = pool_->records;
  auto& record = records[entry.index];
  if (!record.daemon) --pool_->foreground_live;
  // Retiring bumps the generation: from here on the event's handles report
  // !pending() and cancel() returns false, exactly as for a fired event.
  records.retire(entry.index);
  now = entry.time;
  // Recycle the slot once the action returns or throws, destroying its
  // captures first.  The record's address is stable meanwhile: events the
  // action schedules take other slots, and growth adds slabs, never moves.
  struct Recycle {
    core::Pool<detail::EventRecordPool::Record>& records;
    std::uint32_t index;
    ~Recycle() {
      records[index].action.reset();  // release captured state now
      records.recycle(index);
    }
  } recycle{records, entry.index};
  record.action();
  return true;
}

SimTime EventQueue::next_time() {
  prune();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::next_time on empty queue");
  }
  return heap_.top().time;
}

bool EventQueue::empty() {
  prune();
  return heap_.empty();
}

}  // namespace lispcp::sim
