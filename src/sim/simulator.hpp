// simulator.hpp — the discrete-event simulation loop.
//
// Owns virtual time, the event queue, and the root RNG.  Everything else in
// the library (links, protocol nodes, workload generators) schedules
// callbacks here.  Single-threaded and deterministic: the same seed and the
// same construction order always produce the same run.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace lispcp::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `action` after `delay` (>= 0) from now.
  EventHandle schedule(SimDuration delay, EventAction&& action) {
    if (delay < SimDuration{}) {
      throw std::invalid_argument("Simulator::schedule: negative delay");
    }
    return queue_.schedule(now_ + delay, std::move(action));
  }

  /// Schedules `action` at absolute time `at` (>= now()).
  EventHandle schedule_at(SimTime at, EventAction&& action) {
    if (at < now_) {
      throw std::invalid_argument("Simulator::schedule_at: time in the past");
    }
    return queue_.schedule(at, std::move(action));
  }

  /// Schedules background maintenance after `delay`.  Daemon events fire in
  /// time order like regular events but never keep run() alive: once only
  /// daemons remain, run() returns.  Periodic self-rescheduling work (IRC
  /// refresh, RLOC probe cycles, NERD push timers) must use this, or an
  /// unbounded run() would spin on the maintenance loop forever.
  EventHandle schedule_daemon(SimDuration delay, EventAction&& action) {
    if (delay < SimDuration{}) {
      throw std::invalid_argument("Simulator::schedule_daemon: negative delay");
    }
    return queue_.schedule(now_ + delay, std::move(action), /*daemon=*/true);
  }

  /// Runs until all *foreground* work drains; pending daemon events are left
  /// queued (the simulation can be resumed).  `max_events` guards against
  /// accidental infinite event chains (0 = unlimited).
  void run(std::uint64_t max_events = 0) {
    while (queue_.has_foreground() && queue_.fire_next(SimTime::max(), now_)) {
      ++processed_;
      if (max_events != 0 && processed_ >= max_events) {
        throw std::runtime_error("Simulator::run: event budget exhausted");
      }
    }
  }

  /// Runs events with time <= `until`, then sets now() = until.  Events
  /// scheduled later stay queued, so the simulation can be resumed.
  void run_until(SimTime until) {
    while (queue_.fire_next(until, now_)) ++processed_;
    if (now_ < until) now_ = until;
  }

  /// Convenience: run_until(now() + d).
  void run_for(SimDuration d) { run_until(now_ + d); }

  [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }
  [[nodiscard]] bool idle() { return queue_.empty(); }
  [[nodiscard]] EventQueue& queue() noexcept { return queue_; }

  /// Root RNG.  Components should fork() child streams at construction.
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

 private:
  SimTime now_;
  EventQueue queue_;
  Rng rng_;
  std::uint64_t processed_ = 0;
};

}  // namespace lispcp::sim
