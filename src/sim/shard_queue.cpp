#include "sim/shard_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace lispcp::sim {

void ShardQueue::schedule(SimTime at, EventKey key, EventAction&& action) {
  if (at < now_) {
    throw std::invalid_argument("ShardQueue::schedule: time in the past");
  }
  const std::uint32_t slot = actions_.allocate();
  actions_[slot] = std::move(action);
  heap_.push_back(Entry{at, key, seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

SimTime ShardQueue::next_time() const noexcept { return heap_.front().time; }

std::uint64_t ShardQueue::run_window(SimTime end, std::uint64_t max_events) {
  std::uint64_t fired = 0;
  while (!heap_.empty() && heap_.front().time < end) {
    if (max_events != 0 && fired >= max_events) break;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry entry = heap_.back();
    heap_.pop_back();
    now_ = entry.time;
    // Recycle the slot once the action returns or throws, destroying its
    // captures first.  The action's address is stable meanwhile: events it
    // schedules take other slots, and growth adds slabs, never moves them.
    struct Recycle {
      core::Pool<EventAction>& actions;
      std::uint32_t slot;
      ~Recycle() {
        actions[slot].reset();
        actions.release(slot);
      }
    } recycle{actions_, entry.slot};
    actions_[entry.slot]();
    ++fired;
  }
  return fired;
}

}  // namespace lispcp::sim
