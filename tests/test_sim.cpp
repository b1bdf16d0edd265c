// Simulator core: time arithmetic, RNG distributions, event queue ordering,
// cancellation, run_until semantics.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace lispcp::sim {
namespace {

TEST(SimTime, ConversionsAndArithmetic) {
  EXPECT_EQ(SimDuration::millis(1).ns(), 1'000'000);
  EXPECT_EQ(SimDuration::seconds(2).ms(), 2000.0);
  EXPECT_EQ(SimDuration::micros(5).us(), 5.0);
  EXPECT_EQ(SimDuration::millis_f(1.5).ns(), 1'500'000);

  const SimTime t = SimTime::zero() + SimDuration::millis(10);
  EXPECT_EQ(t.ms(), 10.0);
  EXPECT_EQ((t - SimTime::zero()).ms(), 10.0);
  EXPECT_EQ((t + SimDuration::millis(5)) - t, SimDuration::millis(5));
  EXPECT_LT(SimTime::zero(), t);
}

TEST(SimTime, NegativeDurationsAndRatios) {
  const auto d = SimDuration::millis(2) - SimDuration::millis(5);
  EXPECT_EQ(d.ms(), -3.0);
  EXPECT_EQ(-d, SimDuration::millis(3));
  EXPECT_DOUBLE_EQ(SimDuration::millis(10) / SimDuration::millis(4), 2.5);
  EXPECT_EQ(SimDuration::millis(3) * 4, SimDuration::millis(12));
  EXPECT_EQ(SimDuration::millis(12) / 4, SimDuration::millis(3));
}

TEST(SimTime, Formatting) {
  EXPECT_EQ(SimDuration::nanos(500).to_string(), "500ns");
  EXPECT_EQ(SimDuration::micros(12).to_string(), "12.00us");
  EXPECT_EQ(SimDuration::millis(3).to_string(), "3.000ms");
  EXPECT_EQ(SimDuration::seconds(2).to_string(), "2.0000s");
}

TEST(Rng, DeterministicWithSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng a(7);
  Rng fork1 = a.fork();
  // Draw extra values from the parent; the fork must be unaffected compared
  // to reconstructing it the same way.
  Rng b(7);
  Rng fork2 = b.fork();
  (void)a.uniform();
  (void)a.uniform();
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(fork1.uniform(), fork2.uniform());
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.02);
  EXPECT_NEAR(sum / n, 0.02, 0.0005);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ParetoIsHeavyTailedAboveScale) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(1.2, 3.0), 3.0);
  }
}

TEST(Zipf, PmfMatchesDefinition) {
  ZipfDistribution zipf(4, 1.0);
  // Weights 1, 1/2, 1/3, 1/4; total 25/12.
  const double total = 1.0 + 0.5 + 1.0 / 3 + 0.25;
  EXPECT_NEAR(zipf.pmf(0), 1.0 / total, 1e-12);
  EXPECT_NEAR(zipf.pmf(3), 0.25 / total, 1e-12);
  EXPECT_EQ(zipf.pmf(4), 0.0);
}

TEST(Zipf, SamplingMatchesPmf) {
  ZipfDistribution zipf(10, 0.9);
  Rng rng(17);
  std::vector<int> counts(10, 0);
  const int n = 200'000;
  for (int i = 0; i < n; ++i) ++counts[zipf(rng)];
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, zipf.pmf(k), 0.01) << k;
  }
}

TEST(Zipf, AlphaZeroIsUniform) {
  ZipfDistribution zipf(5, 0.0);
  for (std::size_t k = 0; k < 5; ++k) EXPECT_NEAR(zipf.pmf(k), 0.2, 1e-12);
}

TEST(Zipf, InvalidArgsThrow) {
  EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfDistribution(5, -0.1), std::invalid_argument);
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::from_ns(300), [&] { order.push_back(3); });
  q.schedule(SimTime::from_ns(100), [&] { order.push_back(1); });
  q.schedule(SimTime::from_ns(200), [&] { order.push_back(2); });
  SimTime now;
  while (q.fire_next(SimTime::max(), now)) {}
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(now, SimTime::from_ns(300));
}

TEST(EventQueue, TiesFireFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime::from_ns(50), [&order, i] { order.push_back(i); });
  }
  SimTime now;
  while (q.fire_next(SimTime::max(), now)) {}
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired_count = 0;
  auto handle = q.schedule(SimTime::from_ns(10), [&] { ++fired_count; });
  EXPECT_TRUE(handle.pending());
  EXPECT_TRUE(handle.cancel());
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());  // double cancel is a no-op
  SimTime now;
  EXPECT_FALSE(q.fire_next(SimTime::max(), now));
  EXPECT_EQ(fired_count, 0);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto first = q.schedule(SimTime::from_ns(10), [] {});
  q.schedule(SimTime::from_ns(20), [] {});
  first.cancel();
  EXPECT_EQ(q.next_time(), SimTime::from_ns(20));
}

TEST(EventQueue, NextTimeOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.next_time(), std::logic_error);
}

TEST(EventQueue, FireNextStopsAtTheTimeBound) {
  EventQueue q;
  int fired_count = 0;
  q.schedule(SimTime::from_ns(10), [&] { ++fired_count; });
  q.schedule(SimTime::from_ns(20), [&] { ++fired_count; });
  SimTime now;
  EXPECT_TRUE(q.fire_next(SimTime::from_ns(15), now));
  EXPECT_EQ(now, SimTime::from_ns(10));
  EXPECT_FALSE(q.fire_next(SimTime::from_ns(15), now)) << "next is at 20";
  EXPECT_EQ(now, SimTime::from_ns(10)) << "a refused fire leaves now alone";
  EXPECT_TRUE(q.fire_next(SimTime::from_ns(20), now)) << "the bound is inclusive";
  EXPECT_EQ(fired_count, 2);
}

TEST(EventQueue, ActionCancellingItsOwnHandleGetsFalse) {
  EventQueue q;
  EventHandle self;
  bool cancelled = true;
  bool pending = true;
  self = q.schedule(SimTime::from_ns(5), [&] {
    pending = self.pending();
    cancelled = self.cancel();
  });
  SimTime now;
  EXPECT_TRUE(q.fire_next(SimTime::max(), now));
  EXPECT_FALSE(pending) << "a firing event is no longer pending";
  EXPECT_FALSE(cancelled) << "a firing event cannot be cancelled";
  EXPECT_FALSE(q.has_foreground());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ActionSchedulingPastASlabKeepsItsCaptures) {
  // The action runs in its pool slot; scheduling more than a slab of events
  // from inside it grows the pool, which must not move the running record.
  EventQueue q;
  const std::vector<int> payload{1, 2, 3, 4, 5};
  std::vector<int> seen_before;
  std::vector<int> seen_after;
  q.schedule(SimTime::from_ns(1), [&q, &seen_before, &seen_after, payload] {
    seen_before = payload;
    for (int i = 0; i < 1000; ++i) {
      q.schedule(SimTime::from_ns(2 + i), [] {});
    }
    seen_after = payload;
  });
  SimTime now;
  int fired = 0;
  while (q.fire_next(SimTime::max(), now)) ++fired;
  EXPECT_EQ(fired, 1001);
  EXPECT_EQ(seen_before, payload);
  EXPECT_EQ(seen_after, payload);
  EXPECT_EQ(now, SimTime::from_ns(1001));
}

TEST(EventQueue, ThrowingActionRecyclesItsSlotAndTheNextEventFires) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  auto throwing = q.schedule(SimTime::from_ns(1), [token] {
    throw std::runtime_error("boom");
  });
  token.reset();
  bool second_fired = false;
  q.schedule(SimTime::from_ns(2), [&] { second_fired = true; });
  SimTime now;
  EXPECT_THROW(q.fire_next(SimTime::max(), now), std::runtime_error);
  EXPECT_TRUE(watch.expired()) << "the thrown action's captures are released";
  EXPECT_FALSE(throwing.pending());
  EXPECT_FALSE(throwing.cancel());
  EXPECT_TRUE(q.has_foreground()) << "the second event is still queued";
  EXPECT_TRUE(q.fire_next(SimTime::max(), now));
  EXPECT_TRUE(second_fired);
  EXPECT_FALSE(q.has_foreground());
  // The recycled slot serves a new event whose handle works normally.
  int later = 0;
  auto reused = q.schedule(SimTime::from_ns(3), [&] { ++later; });
  EXPECT_TRUE(reused.pending());
  EXPECT_FALSE(throwing.pending()) << "the stale handle stays stale";
  EXPECT_TRUE(q.fire_next(SimTime::max(), now));
  EXPECT_EQ(later, 1);
}

TEST(Simulator, NowAdvancesWithEvents) {
  Simulator sim;
  SimTime seen;
  sim.schedule(SimDuration::millis(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime::zero() + SimDuration::millis(5));
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Simulator, ChainedEventsKeepRelativeDelays) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule(SimDuration::millis(1), [&] {
    times.push_back(sim.now().ms());
    sim.schedule(SimDuration::millis(2), [&] { times.push_back(sim.now().ms()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
}

TEST(Simulator, RunUntilLeavesFutureEventsQueued) {
  Simulator sim;
  int fired_count = 0;
  sim.schedule(SimDuration::millis(1), [&] { ++fired_count; });
  sim.schedule(SimDuration::millis(10), [&] { ++fired_count; });
  sim.run_until(SimTime::zero() + SimDuration::millis(5));
  EXPECT_EQ(fired_count, 1);
  EXPECT_EQ(sim.now(), SimTime::zero() + SimDuration::millis(5));
  sim.run();
  EXPECT_EQ(fired_count, 2);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(SimDuration::millis(-1), [] {}),
               std::invalid_argument);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule(SimDuration::millis(2), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::zero(), [] {}), std::invalid_argument);
}

TEST(Simulator, EventBudgetGuardsRunaway) {
  Simulator sim;
  std::function<void()> loop = [&] { sim.schedule(SimDuration::nanos(1), loop); };
  sim.schedule(SimDuration::nanos(1), loop);
  EXPECT_THROW(sim.run(/*max_events=*/1000), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Daemon events: periodic background maintenance (IRC refresh, RLOC probe
// cycles, NERD push timers, PCEP keepalives) fires in time order but must
// never keep an unbounded run() alive.  Regression tests for the class of
// hang where a self-rescheduling maintenance loop spins run() forever.

TEST(Daemon, SelfReschedulingDaemonDoesNotKeepRunAlive) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> maintenance = [&] {
    ++ticks;
    sim.schedule_daemon(SimDuration::seconds(1), maintenance);
  };
  sim.schedule_daemon(SimDuration::seconds(1), maintenance);
  sim.schedule(SimDuration::millis(3500), [] {});  // the only foreground work
  sim.run();  // must terminate despite the endless maintenance loop
  EXPECT_EQ(ticks, 3) << "daemons up to the last foreground instant fire";
  EXPECT_EQ(sim.now().ms(), 3500.0);
}

TEST(Daemon, PureDaemonQueueRunsZeroEvents) {
  Simulator sim;
  bool fired = false;
  sim.schedule_daemon(SimDuration::millis(1), [&] { fired = true; });
  sim.run();
  EXPECT_FALSE(fired) << "nothing foreground: run() returns immediately";
  EXPECT_FALSE(sim.queue().has_foreground());
  EXPECT_FALSE(sim.queue().empty()) << "the daemon stays queued for resume";
}

TEST(Daemon, DaemonsInterleaveInTimeOrderWithForeground) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimDuration::millis(10), [&] { order.push_back(1); });
  sim.schedule_daemon(SimDuration::millis(5), [&] { order.push_back(0); });
  sim.schedule(SimDuration::millis(20), [&] { order.push_back(3); });
  sim.schedule_daemon(SimDuration::millis(15), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Daemon, RunUntilFiresDaemonsRegardless) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> maintenance = [&] {
    ++ticks;
    sim.schedule_daemon(SimDuration::seconds(1), maintenance);
  };
  sim.schedule_daemon(SimDuration::seconds(1), maintenance);
  sim.run_until(SimTime::from_ns(5'500'000'000));
  EXPECT_EQ(ticks, 5) << "time-bounded runs drive maintenance as before";
}

TEST(Daemon, CancellingLastForegroundStopsRun) {
  Simulator sim;
  sim.schedule_daemon(SimDuration::millis(1), [] {});
  auto handle = sim.schedule(SimDuration::seconds(10), [] {});
  EXPECT_TRUE(sim.queue().has_foreground());
  EXPECT_TRUE(handle.cancel());
  EXPECT_FALSE(sim.queue().has_foreground())
      << "cancel must give back the foreground count immediately";
  sim.run();  // terminates without firing anything
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Daemon, CancelledDaemonDoesNotFire) {
  Simulator sim;
  bool fired = false;
  auto handle = sim.schedule_daemon(SimDuration::millis(1), [&] { fired = true; });
  EXPECT_TRUE(handle.cancel());
  sim.schedule(SimDuration::millis(2), [] {});
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Daemon, ForegroundSpawnedByDaemonExtendsRun) {
  Simulator sim;
  bool spawned_ran = false;
  sim.schedule_daemon(SimDuration::millis(1), [&] {
    // A daemon may create real work (e.g. a probe packet); that work then
    // keeps run() alive until it completes.
    sim.schedule(SimDuration::millis(5), [&] { spawned_ran = true; });
  });
  sim.schedule(SimDuration::millis(2), [] {});  // lets the daemon fire first
  sim.run();
  EXPECT_TRUE(spawned_ran);
  EXPECT_EQ(sim.now().ms(), 6.0);
}

TEST(Daemon, DoubleCancelDecrementsOnce) {
  Simulator sim;
  auto fg = sim.schedule(SimDuration::millis(1), [] {});
  auto fg2 = sim.schedule(SimDuration::millis(1), [] {});
  EXPECT_TRUE(fg.cancel());
  EXPECT_FALSE(fg.cancel());  // second cancel is a no-op
  EXPECT_TRUE(sim.queue().has_foreground()) << "fg2 still pending";
  EXPECT_TRUE(fg2.cancel());
  EXPECT_FALSE(sim.queue().has_foreground());
}

TEST(Daemon, NegativeDaemonDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_daemon(SimDuration::nanos(-1), [] {}),
               std::invalid_argument);
}

TEST(Daemon, FiredEventCancelIsNoOp) {
  Simulator sim;
  auto handle = sim.schedule(SimDuration::millis(1), [] {});
  sim.run();
  EXPECT_FALSE(handle.cancel()) << "firing consumed the event";
  EXPECT_FALSE(sim.queue().has_foreground());
}

}  // namespace
}  // namespace lispcp::sim
