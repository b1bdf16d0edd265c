// Tests for the unified churn surface (routing::ChurnEvent/ChurnPlan) and
// the incremental re-convergence contract: a plan measured against one
// long-lived fabric must be byte-identical to the same plan measured
// against a freshly rebuilt world per event (full replay), for every shard
// count — plus RouteDelta batch-grouping invariance, idle-clock
// time-translation invariance, and policy incidents inside plans.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "bgp_world.hpp"
#include "routing/bgp.hpp"
#include "routing/dfz_study.hpp"
#include "sim/rng.hpp"

namespace lispcp::routing {
namespace {

DfzStudyConfig small_config(std::size_t deagg = 1) {
  DfzStudyConfig config;
  config.internet.tier1_count = 3;
  config.internet.transit_count = 5;
  config.internet.stub_count = 20;
  config.internet.seed = 11;
  config.scenario = AddressingScenario::kLegacyBgp;
  config.deaggregation_factor = deagg;
  return config;
}

bool measures_eq(const ChurnEventMeasure& a, const ChurnEventMeasure& b) {
  return a.kind == b.kind && a.update_messages == b.update_messages &&
         a.route_records == b.route_records && a.settle_ms == b.settle_ms &&
         a.ases_touched == b.ases_touched &&
         a.engine_events == b.engine_events;
}

bool results_eq(const ChurnPlanResult& a, const ChurnPlanResult& b) {
  if (a.events.size() != b.events.size() || a.flaps != b.flaps ||
      a.update_messages != b.update_messages ||
      a.route_records != b.route_records ||
      a.engine_events != b.engine_events ||
      a.mean_updates_per_flap != b.mean_updates_per_flap ||
      a.mean_records_per_flap != b.mean_records_per_flap ||
      a.mean_settle_ms != b.mean_settle_ms ||
      a.max_settle_ms != b.max_settle_ms || a.span_ms != b.span_ms) {
    return false;
  }
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    if (!measures_eq(a.events[i], b.events[i])) return false;
  }
  return true;
}

TEST(ChurnPlan, IncrementalMatchesFullReplayExactly) {
  // The tentpole's parity gate in unit form: randomized flap sequences,
  // measured incrementally and by rebuild-per-event, must agree on every
  // counter of every event — for K = 1, 2, and 8 shards.
  const DfzStudyConfig base = small_config(2);
  const ChurnPlan plan =
      make_flap_plan(6, base.internet.stub_count, 42,
                     sim::SimDuration::seconds(90), sim::SimDuration::seconds(20));
  ASSERT_EQ(plan.events.size(), 6u);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    DfzStudyConfig config = base;
    config.bgp.shards = shards;
    config.bgp.shard_workers = shards == 8 ? 4 : 1;

    const ChurnPlanResult incremental = run_churn_plan(config, plan);
    ChurnPlan replay = plan;
    replay.full_replay = true;
    const ChurnPlanResult full = run_churn_plan(config, replay);

    EXPECT_TRUE(results_eq(incremental, full))
        << "incremental diverged from full replay at " << shards << " shards";
    EXPECT_GT(incremental.update_messages, 0u);
    EXPECT_EQ(incremental.flaps, 6u);
  }
}

TEST(ChurnPlan, DeterministicAcrossShardCountsAndReruns) {
  const ChurnPlan plan = make_flap_plan(4, 20, 7, sim::SimDuration::seconds(60),
                                        sim::SimDuration::seconds(10));
  const ChurnPlanResult reference = run_churn_plan(small_config(), plan);
  EXPECT_TRUE(results_eq(run_churn_plan(small_config(), plan), reference))
      << "rerun diverged";
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    DfzStudyConfig config = small_config();
    config.bgp.shards = shards;
    EXPECT_TRUE(results_eq(run_churn_plan(config, plan), reference))
        << "churn plan diverged at " << shards << " shards";
  }
}

TEST(ChurnPlan, FlapsAreStateRestoring) {
  // Flapping the same site twice must measure identically both times: the
  // first flap restored every RIB and ledger exactly, and cascades are
  // time-translation invariant.
  ChurnPlan plan;
  plan.events.push_back(ChurnEvent::flap(3, sim::SimDuration::seconds(5),
                                         sim::SimDuration::seconds(30)));
  plan.events.push_back(ChurnEvent::flap(3, sim::SimDuration::seconds(5),
                                         sim::SimDuration::seconds(30)));
  const ChurnPlanResult result = run_churn_plan(small_config(), plan);
  ASSERT_EQ(result.events.size(), 2u);
  EXPECT_TRUE(measures_eq(result.events[0], result.events[1]));
  EXPECT_GT(result.events[0].engine_events, 0u);
}

TEST(ChurnPlan, SpacingDoesNotChangeMeasures) {
  // Time-translation invariance through the public surface: the same flap
  // with wildly different idle gaps produces the same measured deltas.
  ChurnPlan tight;
  tight.events.push_back(ChurnEvent::flap(0));
  ChurnPlan spread;
  spread.events.push_back(
      ChurnEvent::flap(0, sim::SimDuration{}, sim::SimDuration::seconds(86400)));
  const auto a = run_churn_plan(small_config(), tight);
  const auto b = run_churn_plan(small_config(), spread);
  ASSERT_EQ(a.events.size(), 1u);
  ASSERT_EQ(b.events.size(), 1u);
  EXPECT_TRUE(measures_eq(a.events[0], b.events[0]));
  EXPECT_GT(b.span_ms, a.span_ms);
}

TEST(ChurnPlan, PrefixDownThenUpEqualsOneFlap) {
  // The decomposed pair measures the same totals as the atomic flap with
  // zero hold (the flap is literally a down event plus an up event).
  ChurnPlan pair;
  pair.events.push_back(ChurnEvent::prefix_down(2, ChurnEvent::kWholeSite));
  pair.events.push_back(ChurnEvent::prefix_up(2, ChurnEvent::kWholeSite));
  ChurnPlan flap;
  flap.events.push_back(ChurnEvent::flap(2));
  const auto decomposed = run_churn_plan(small_config(), pair);
  const auto atomic = run_churn_plan(small_config(), flap);
  EXPECT_EQ(decomposed.update_messages, atomic.update_messages);
  EXPECT_EQ(decomposed.route_records, atomic.route_records);
  EXPECT_EQ(decomposed.engine_events, atomic.engine_events);
  EXPECT_EQ(decomposed.flaps, 0u);
  EXPECT_EQ(atomic.flaps, 1u);
}

TEST(ChurnPlan, SingleFlapTouchesFarFewerEngineEventsThanTheStorm) {
  // The incremental claim in work units, host-independent: re-converging
  // one flapped site (down and up) fires fewer engine events than the
  // origination storm and sends under a fifth of its route records — a
  // degenerate full re-convergence would cost about twice the storm in
  // both.  (The storm batches every prefix into each session's flush, so
  // events shrink far less than records do.)
  const DfzStudyConfig config = small_config();
  const ChurnEventMeasure flap =
      run_churn_plan(config, {.events = {ChurnEvent::flap(0)}}).events.front();
  const AsGraph graph = build_synthetic_internet(config.internet);
  const std::uint64_t storm_events = converge(graph, 1)->last_run_events();
  const std::uint64_t storm_records = run_dfz_study(config).route_records;
  EXPECT_GT(flap.engine_events, 0u);
  EXPECT_LT(flap.engine_events, storm_events);
  EXPECT_LT(flap.route_records * 5, storm_records)
      << "one flap must send under a fifth of the storm's route records";
}

TEST(ChurnPlan, LispScenarioMeasuresZeroButCountsFlaps) {
  DfzStudyConfig config = small_config();
  config.scenario = AddressingScenario::kLispRlocOnly;
  const ChurnPlan plan = make_flap_plan(5, 20, 3, sim::SimDuration::seconds(60),
                                        sim::SimDuration::seconds(10));
  const auto result = run_churn_plan(config, plan);
  EXPECT_EQ(result.flaps, 5u);
  EXPECT_EQ(result.update_messages, 0u);
  EXPECT_EQ(result.route_records, 0u);
  EXPECT_EQ(result.engine_events, 0u);
  EXPECT_GT(result.span_ms, 0.0);
}

TEST(ChurnPlan, OutOfRangeStubThrows) {
  ChurnPlan plan;
  plan.events.push_back(ChurnEvent::flap(500));
  EXPECT_THROW((void)run_churn_plan(small_config(), plan),
               std::invalid_argument);
  ChurnPlan bad_index;
  bad_index.events.push_back(ChurnEvent::prefix_down(0, 9));
  EXPECT_THROW((void)run_churn_plan(small_config(), bad_index),
               std::invalid_argument);
}

TEST(MakeFlapPlan, DeterministicPerSeed) {
  const auto a = make_flap_plan(50, 20, 9, sim::SimDuration::seconds(120),
                                sim::SimDuration::seconds(30));
  const auto b = make_flap_plan(50, 20, 9, sim::SimDuration::seconds(120),
                                sim::SimDuration::seconds(30));
  ASSERT_EQ(a.events.size(), 50u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].stub, b.events[i].stub);
    EXPECT_EQ(a.events[i].spacing.ns(), b.events[i].spacing.ns());
    EXPECT_EQ(a.events[i].hold.ns(), b.events[i].hold.ns());
  }
  // A different seed draws a different sequence.
  const auto c = make_flap_plan(50, 20, 10, sim::SimDuration::seconds(120),
                                sim::SimDuration::seconds(30));
  bool differs = false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    if (a.events[i].stub != c.events[i].stub ||
        a.events[i].spacing.ns() != c.events[i].spacing.ns()) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
  EXPECT_THROW((void)make_flap_plan(1, 0, 1, sim::SimDuration::seconds(1),
                                    sim::SimDuration{}),
               std::invalid_argument);
}

/// The message of the std::invalid_argument run_churn_plan throws.
std::string plan_error(const DfzStudyConfig& config, const ChurnPlan& plan) {
  try {
    (void)run_churn_plan(config, plan);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(PolicyIncident, ValidationThrowsUnderTheExecutorsName) {
  DfzStudyConfig config = small_config();
  const ChurnPlan plan{.events = {ChurnEvent::policy_incident()}};
  // roles off -> invalid_argument, before anything is built.
  EXPECT_EQ(plan_error(config, plan),
            "run_churn_plan: requires policy.roles (Gao-Rexford table)");
  config.policy.roles = true;
  config.scenario = AddressingScenario::kLispRlocOnly;
  EXPECT_EQ(plan_error(config, plan),
            "run_churn_plan: events are BGP incidents; use kLegacyBgp");
  config.scenario = AddressingScenario::kLegacyBgp;
  EXPECT_EQ(plan_error(config, plan), "run_churn_plan: event.kind is kNone");
  config.policy.event.kind = PolicyEvent::Kind::kHijackMoreSpecific;
  config.policy.event.victim_stub = 500;
  EXPECT_EQ(plan_error(config, plan),
            "run_churn_plan: victim_stub out of range");
}

TEST(PolicyIncident, BlastRadiusRidesOnItsEventMeasure) {
  // Only the incident's measure carries a blast radius; flaps around it
  // carry none, and the incident's churn counters match its per-
  // announcement ratio.
  DfzStudyConfig config = small_config();
  config.policy.roles = true;
  config.policy.event.kind = PolicyEvent::Kind::kHijackMoreSpecific;
  config.policy.event.victim_stub = 0;
  config.policy.event.deagg_factor = 2;
  const ChurnPlan plan{.events = {ChurnEvent::flap(3),
                                  ChurnEvent::policy_incident(),
                                  ChurnEvent::flap(3)}};
  const ChurnPlanResult churn = run_churn_plan(config, plan);
  ASSERT_EQ(churn.events.size(), 3u);
  EXPECT_FALSE(churn.events[0].incident.has_value());
  EXPECT_FALSE(churn.events[2].incident.has_value());
  const ChurnEventMeasure& hijack = churn.events[1];
  EXPECT_EQ(hijack.kind, ChurnEvent::Kind::kPolicyIncident);
  ASSERT_TRUE(hijack.incident.has_value());
  EXPECT_GT(hijack.update_messages, 0u);
  EXPECT_GT(hijack.engine_events, 0u);
  EXPECT_GT(hijack.ases_touched, 0u);
  EXPECT_EQ(hijack.incident->event_announcements, 2u);
  EXPECT_EQ(hijack.incident->churn_per_announcement,
            static_cast<double>(hijack.route_records) / 2.0);
  EXPECT_GT(hijack.incident->ases_preferring_actor, 0u);
  EXPECT_GT(hijack.incident->rib_delta, 0u);
  EXPECT_EQ(churn.flaps, 2u);

  // The incident alone measures the same as inside the plan: the flap
  // before it restored the world exactly.
  const ChurnEventMeasure alone =
      run_churn_plan(config, {.events = {ChurnEvent::policy_incident()}})
          .events.front();
  EXPECT_TRUE(measures_eq(alone, hijack));
  EXPECT_EQ(alone.incident->ases_preferring_actor,
            hijack.incident->ases_preferring_actor);
  EXPECT_EQ(alone.incident->rib_delta, hijack.incident->rib_delta);
}

TEST(RouteDeltaApi, BatchGroupingIsObservationallyIdentical) {
  // Splitting one batch into per-delta apply() calls (no run in between)
  // must leave identical converged state and stats.
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kTier1);
  graph.add_as(AsNumber{2}, AsTier::kStub);
  graph.add_as(AsNumber{3}, AsTier::kStub);
  graph.add_customer_provider(AsNumber{2}, AsNumber{1});
  graph.add_customer_provider(AsNumber{3}, AsNumber{1});
  const std::vector<RouteDelta> batch = {
      RouteDelta::announce(AsNumber{2}, stub_site_prefixes(0, 1).front()),
      RouteDelta::announce(AsNumber{3}, stub_site_prefixes(1, 1).front()),
      RouteDelta::withdraw(AsNumber{2}, stub_site_prefixes(0, 1).front()),
  };
  BgpFabric grouped(graph);
  grouped.apply(batch);
  grouped.run_to_convergence();
  BgpFabric split(graph);
  for (const RouteDelta& delta : batch) split.apply({delta});
  split.run_to_convergence();

  EXPECT_EQ(grouped.now().ns(), split.now().ns());
  EXPECT_EQ(grouped.total_updates_sent(), split.total_updates_sent());
  EXPECT_EQ(grouped.total_routes_announced(), split.total_routes_announced());
  EXPECT_EQ(grouped.total_routes_withdrawn(), split.total_routes_withdrawn());
  for (AsNumber asn : graph.ases()) {
    EXPECT_EQ(grouped.speaker(asn).rib_size(), split.speaker(asn).rib_size());
    EXPECT_EQ(grouped.speaker(asn).stats().best_changes,
              split.speaker(asn).stats().best_changes);
  }
}

TEST(RouteDeltaApi, AdvanceRequiresIdleEngineAndPositiveDuration) {
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kTransit);
  graph.add_as(AsNumber{2}, AsTier::kStub);
  graph.add_customer_provider(AsNumber{2}, AsNumber{1});
  BgpFabric fabric(graph);
  EXPECT_THROW(fabric.advance(sim::SimDuration::nanos(-1)),
               std::invalid_argument);
  fabric.apply({RouteDelta::announce(AsNumber{2}, stub_site_prefixes(0, 1).front())});
  EXPECT_THROW(fabric.advance(sim::SimDuration::seconds(1)), std::logic_error);
  fabric.run_to_convergence();
  const auto before = fabric.now();
  fabric.advance(sim::SimDuration::seconds(7));
  EXPECT_EQ((fabric.now() - before).ns(),
            sim::SimDuration::seconds(7).ns());
}

TEST(RouteDeltaApi, LastRunEventsReportsIncrementalCost) {
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kTransit);
  graph.add_as(AsNumber{2}, AsTier::kStub);
  graph.add_customer_provider(AsNumber{2}, AsNumber{1});
  BgpFabric fabric(graph);
  fabric.apply({RouteDelta::announce(AsNumber{2}, stub_site_prefixes(0, 1).front())});
  fabric.run_to_convergence();
  const std::uint64_t storm = fabric.last_run_events();
  EXPECT_GT(storm, 0u);
  // A convergent no-op run fires nothing.
  fabric.run_to_convergence();
  EXPECT_EQ(fabric.last_run_events(), 0u);
}

}  // namespace
}  // namespace lispcp::routing
