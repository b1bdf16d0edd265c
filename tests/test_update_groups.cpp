// Tests for the export update-group + interned-attribute pipeline.  The
// export leg has one implementation, so its oracle is direct: on every
// converged fabric below — policy off, Gao-Rexford roles, roles plus
// prepend/tag/deny export maps, K in {1, 2, 8}, after every event of a flap
// plan, and after a kRefresh route leak — each session's Adj-RIB-In must
// be exactly the receiver's import chain applied to the sender's export of
// its current best routes.  A work-counter test pins that the export leg
// runs once per update-group, not once per session; K-invariance
// fingerprints diff every shard count against the K=1 run; and AttrTable
// must dedupe and evict.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bgp_world.hpp"
#include "routing/as_graph.hpp"
#include "routing/attr_table.hpp"
#include "routing/bgp.hpp"
#include "routing/dfz_study.hpp"

namespace lispcp::routing {
namespace {

// ---------------------------------------------------------------------------
// The export oracle.

/// A route as an Adj-RIB-In holds it, for comparison and messages.
struct ExpectedRoute {
  std::vector<AsNumber> as_path;
  std::vector<policy::Community> communities;
  std::uint32_t local_pref = 0;
};

std::string to_string(const std::optional<ExpectedRoute>& route) {
  if (!route.has_value()) return "none";
  std::ostringstream os;
  os << "p";
  for (AsNumber hop : route->as_path) os << " " << hop.value();
  os << " c";
  for (policy::Community c : route->communities) os << " " << c;
  os << " lp " << route->local_pref;
  return os.str();
}

/// Runs `map` over `route` as AS `by` would: false on deny, else applies
/// the permit clause's prepend (copies of `by`) and communities, and
/// returns its local-pref action in `local_pref`.
bool apply_map(const policy::RouteMap* map, AsNumber by,
               const net::Ipv4Prefix& prefix, ExpectedRoute& route,
               std::uint32_t& local_pref) {
  local_pref = 0;
  if (map == nullptr) return true;
  const auto actions = map->evaluate(
      policy::RouteContext{prefix, route.as_path, route.communities});
  if (!actions.has_value()) return false;
  route.as_path.insert(route.as_path.begin(), actions->prepend, by);
  for (const policy::Community c : actions->add_communities) {
    policy::add_community(route.communities, c);
  }
  local_pref = actions->local_pref;
  return true;
}

/// What `to` must hold from `from` for `prefix`, given `from`'s current
/// best route: `from`'s export (split horizon, the role/valley-free gate,
/// then the export map's deny, prepend and communities) followed by `to`'s
/// import (loop rejection, then the import map).  nullopt = no entry.
std::optional<ExpectedRoute> expected_adj_in(
    const BgpFabric& fabric, AsNumber from, AsNumber to,
    const net::Ipv4Prefix& prefix, const BgpSpeaker::BestRoute& best) {
  if (!best.local_origin && best.learned_from == to) return std::nullopt;
  const policy::SessionPolicy* out = fabric.session_policy(from, to);
  // Gao-Rexford: customers hear every route; peers and providers hear only
  // local and customer-learned ones, unless the session drops the gate.
  const bool gated = out == nullptr || out->valley_free;
  if (gated && fabric.kind_of(from, to) != NeighborKind::kCustomer &&
      !best.local_origin && best.neighbor_kind != NeighborKind::kCustomer) {
    return std::nullopt;
  }
  ExpectedRoute route{{from}, best.communities(), 0};
  route.as_path.insert(route.as_path.end(), best.as_path().begin(),
                       best.as_path().end());
  std::uint32_t export_pref = 0;  // not carried on the wire
  if (!apply_map(out == nullptr ? nullptr : out->export_map, from, prefix,
                 route, export_pref)) {
    return std::nullopt;
  }
  if (std::find(route.as_path.begin(), route.as_path.end(), to) !=
      route.as_path.end()) {
    return std::nullopt;  // the receiver's loop check
  }
  const policy::SessionPolicy* in = fabric.session_policy(to, from);
  if (!apply_map(in == nullptr ? nullptr : in->import, from, prefix, route,
                 route.local_pref)) {
    return std::nullopt;
  }
  return route;
}

/// The direct export check over a converged fabric: for every session
/// from -> to and every prefix, to's Adj-RIB-In entry from `from` equals
/// expected_adj_in, and `to` holds exactly as many entries from `from` as
/// `from` exports to it and it accepts — so a lost, stale, or duplicated
/// UPDATE fails, as does a wrong path, community set, or local-pref.
::testing::AssertionResult exports_consistent(const BgpFabric& fabric) {
  if (!fabric.converged()) {
    return ::testing::AssertionFailure() << "fabric not converged";
  }
  for (AsNumber from : fabric.graph().ases()) {
    const BgpSpeaker& sender = fabric.speaker(from);
    const std::vector<net::Ipv4Prefix> prefixes = sender.rib_prefixes();
    for (const AsGraph::Neighbor& neighbor : fabric.graph().neighbors(from)) {
      const auto& adj = fabric.speaker(neighbor.asn).adj_rib_in(from);
      std::size_t exported = 0;
      for (const net::Ipv4Prefix& prefix : prefixes) {
        const auto want = expected_adj_in(fabric, from, neighbor.asn, prefix,
                                          *sender.best(prefix));
        std::optional<ExpectedRoute> got;
        if (const AttrRef* held = adj.find(prefix); held != nullptr) {
          got = ExpectedRoute{held->as_path(), held->communities(),
                              held->local_pref()};
        }
        if (to_string(got) != to_string(want)) {
          return ::testing::AssertionFailure()
                 << from.to_string() << " -> " << neighbor.asn.to_string()
                 << " " << prefix.to_string() << ": holds " << to_string(got)
                 << ", want " << to_string(want);
        }
        exported += want.has_value() ? 1 : 0;
      }
      if (adj.size() != exported) {
        return ::testing::AssertionFailure()
               << from.to_string() << " -> " << neighbor.asn.to_string()
               << ": receiver holds " << adj.size() << " routes, sender "
               << "exports " << exported;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Converged fabrics: policy off, roles, roles + export maps, K in {1,2,8}.

AsGraph test_internet(std::uint64_t seed) {
  SyntheticInternetConfig internet;
  internet.tier1_count = 3;
  internet.transit_count = 6;
  internet.stub_count = 30;
  internet.seed = seed;
  return build_synthetic_internet(internet);
}

/// Runs the export check at K = 1, 2, 8 and diffs each fingerprint against
/// the K=1 run.
void expect_exports_and_shard_invariance(
    const AsGraph& graph,
    const std::shared_ptr<const policy::PolicyTable>& policy) {
  const std::string reference = fingerprint(*converge(graph, 1, policy));
  for (const std::size_t shards : {1u, 2u, 8u}) {
    const auto fabric = converge(graph, shards, policy);
    EXPECT_TRUE(exports_consistent(*fabric)) << "K=" << shards;
    EXPECT_EQ(fingerprint(*fabric), reference)
        << "converged state diverged from K=1 at K=" << shards;
  }
}

TEST(ExportCheck, PolicyOff) {
  expect_exports_and_shard_invariance(test_internet(5), nullptr);
}

TEST(ExportCheck, GaoRexfordRoles) {
  const AsGraph graph = test_internet(9);
  expect_exports_and_shard_invariance(graph,
                                      policy::PolicyTable::gao_rexford(graph));
}

TEST(ExportCheck, RolesWithPrependTagAndDenyExportMaps) {
  const AsGraph graph = test_internet(13);
  // Roles plus real export maps: a TE prepend toward half of each stub's
  // providers and a community tag on the rest, so sessions of the same
  // NeighborKind land in *different* update-groups and the map-evaluation
  // leg (prepend + community edits) is exercised; and every transit keeps
  // the /12 provider aggregates off its provider sessions (the deny leg).
  const auto policy = policy::PolicyTable::gao_rexford(graph);
  policy::RouteMap& prepend_map = policy->add_map("te:prepend");
  prepend_map.add(policy::RouteMap::Action::kPermit).prepend(2);
  policy::RouteMap& tag_map = policy->add_map("te:tag");
  tag_map.add(policy::RouteMap::Action::kPermit).add_community(0x00FF0001u);
  policy::RouteMap& deny_map = policy->add_map("deny:aggregates");
  deny_map.add(policy::RouteMap::Action::kDeny).match_prefix_length(0, 12);
  deny_map.add(policy::RouteMap::Action::kPermit);
  for (const AsNumber stub : graph.ases_of_tier(AsTier::kStub)) {
    bool flip = false;
    for (const AsGraph::Neighbor& neighbor : graph.neighbors(stub)) {
      if (neighbor.kind != NeighborKind::kProvider) continue;
      policy->session(stub, neighbor.asn).export_map =
          flip ? &prepend_map : &tag_map;
      flip = !flip;
    }
  }
  for (const AsNumber transit : graph.ases_of_tier(AsTier::kTransit)) {
    for (const AsGraph::Neighbor& neighbor : graph.neighbors(transit)) {
      if (neighbor.kind == NeighborKind::kProvider) {
        policy->session(transit, neighbor.asn).export_map = &deny_map;
      }
    }
  }
  expect_exports_and_shard_invariance(graph, policy);
  const auto fabric = converge(graph, 1, policy);
  const AsNumber stub = graph.ases_of_tier(AsTier::kStub).front();
  EXPECT_EQ(fabric->speaker(stub).export_group_count(), 2u)
      << "the export maps must split a stub's two provider sessions";
  std::uint64_t denied = 0;
  for (AsNumber asn : graph.ases()) {
    denied += fabric->speaker(asn).stats().exports_filtered;
  }
  EXPECT_GT(denied, 0u) << "the deny map must actually filter exports";
}

TEST(ExportCheck, CatchesAnUpdateTheSenderNeverExported) {
  // The oracle itself must go red: deliver a forged UPDATE behind the
  // fabric's back, so a provider holds (and propagates) a route its stub
  // neighbor does not have.
  const AsGraph graph = test_internet(5);
  const auto fabric = converge(graph, 1);
  ASSERT_TRUE(exports_consistent(*fabric));
  const AsNumber stub = graph.ases_of_tier(AsTier::kStub).front();
  const AsNumber provider = graph.neighbors(stub).front().asn;
  UpdateMessage forged;
  forged.announces.push_back(fabric->make_advert(
      net::Ipv4Prefix::from_string("203.0.113.0/24"), {stub}));
  fabric->speaker(provider).handle_update(stub, forged);
  fabric->run_to_convergence();
  EXPECT_FALSE(exports_consistent(*fabric));
}

// ---------------------------------------------------------------------------
// The export leg runs once per update-group, not once per session.

/// One hub UPDATE on the m1 `export fanout` shape — a transit hub with
/// `stubs` customer stubs, policy off.  Returns the AttrTable lookups the
/// hub's handle_update cost and the hub's export-group count, after
/// checking that every other stub received the route.
std::pair<std::uint64_t, std::size_t> hub_update_lookups(std::uint32_t stubs) {
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kTransit);
  for (std::uint32_t i = 0; i < stubs; ++i) {
    graph.add_as(AsNumber{10 + i}, AsTier::kStub);
    graph.add_customer_provider(AsNumber{10 + i}, AsNumber{1});
  }
  BgpFabric fabric(graph);
  const net::Ipv4Prefix prefix = net::Ipv4Prefix::from_string("100.0.0.0/20");
  UpdateMessage announce;
  announce.announces.push_back(fabric.make_advert(prefix, {AsNumber{10}}));
  const AttrTable& attrs = fabric.attrs();
  const std::uint64_t before = attrs.hits() + attrs.misses();
  fabric.speaker(AsNumber{1}).handle_update(AsNumber{10}, announce);
  const std::uint64_t lookups = attrs.hits() + attrs.misses() - before;
  fabric.run_to_convergence();
  for (std::uint32_t i = 1; i < stubs; ++i) {
    EXPECT_NE(fabric.speaker(AsNumber{10 + i}).best(prefix), nullptr)
        << "stub " << 10 + i << " never heard the hub's UPDATE";
  }
  return {lookups, fabric.speaker(AsNumber{1}).export_group_count()};
}

TEST(UpdateGroups, ExportLegRunsOncePerGroupNotPerSession) {
  // Host-independent: a per-session export leg would cost one lookup per
  // receiving stub (7 and 63 here); the grouped leg costs one per group.
  const auto [small_lookups, small_groups] = hub_update_lookups(8);
  const auto [large_lookups, large_groups] = hub_update_lookups(64);
  EXPECT_EQ(small_groups, 1u);
  EXPECT_EQ(large_groups, 1u);
  EXPECT_EQ(small_lookups, small_groups);
  EXPECT_EQ(large_lookups, large_groups);
  EXPECT_EQ(small_lookups, large_lookups)
      << "export work must not grow with the session count";
}

// ---------------------------------------------------------------------------
// Churn: the export check after every event of a flap plan.

TEST(ExportCheck, HoldsAfterEveryEventOfAFlapPlan) {
  // The churn-plan world on a fabric the test holds, replaying each flap
  // as run_churn_plan stages it (withdraw, converge, hold, announce,
  // converge) and checking exports after both halves.
  constexpr std::size_t kDeagg = 2;
  const AsGraph graph = test_internet(11);
  const auto stubs = graph.ases_of_tier(AsTier::kStub);
  const ChurnPlan plan =
      make_flap_plan(5, stubs.size(), 42, sim::SimDuration::seconds(90),
                     sim::SimDuration::seconds(20));
  std::string reference;
  for (const std::size_t shards : {1u, 2u, 8u}) {
    BgpConfig config;
    config.shards = shards;
    config.shard_workers = 1;
    BgpFabric fabric(graph, config);
    fabric.apply(originations(graph, kDeagg));
    fabric.run_to_convergence();
    ASSERT_TRUE(exports_consistent(fabric)) << "K=" << shards;
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
      const ChurnEvent& event = plan.events[i];
      std::vector<RouteDelta> down;
      std::vector<RouteDelta> up;
      for (const net::Ipv4Prefix& prefix :
           stub_site_prefixes(event.stub, kDeagg)) {
        down.push_back(RouteDelta::withdraw(stubs[event.stub], prefix));
        up.push_back(RouteDelta::announce(stubs[event.stub], prefix));
      }
      fabric.advance(event.spacing);
      fabric.apply(down);
      fabric.run_to_convergence();
      EXPECT_TRUE(exports_consistent(fabric))
          << "K=" << shards << " after withdrawing flap " << i;
      fabric.advance(event.hold);
      fabric.apply(up);
      fabric.run_to_convergence();
      EXPECT_TRUE(exports_consistent(fabric))
          << "K=" << shards << " after flap " << i;
    }
    if (shards == 1) reference = fingerprint(fabric);
    EXPECT_EQ(fingerprint(fabric), reference)
        << "flap plan diverged from K=1 at K=" << shards;
  }
}

// ---------------------------------------------------------------------------
// AttrTable: hash-consing, refcounts, eviction.

TEST(AttrTable, InternDedupesAndEvictsOnLastRelease) {
  AttrTable table;
  const std::vector<AsNumber> path{AsNumber{1}, AsNumber{2}};
  const std::vector<policy::Community> none;

  AttrRef a = table.intern(path, none, 0);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.misses(), 1u);
  EXPECT_EQ(a.use_count(), 1u);

  AttrRef b = table.intern(path, none, 0);
  EXPECT_TRUE(a == b) << "equal content must resolve to the same node";
  EXPECT_EQ(table.hits(), 1u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(a.use_count(), 2u);

  // local_pref is part of the identity: a role import that pins a pref
  // must not collide with the raw path.
  AttrRef c = table.intern(path, none, 200);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(table.size(), 2u);

  b.reset();
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(table.size(), 2u) << "a still holds its node live";
  c.reset();
  EXPECT_EQ(table.size(), 1u) << "last release must evict";
  a.reset();
  EXPECT_EQ(table.size(), 0u);
}

TEST(AttrTable, FabricChurnDoesNotAccreteDeadAttributeSets) {
  // A full announce/withdraw cycle must return the fabric's table to its
  // resting state (just the shared origin attributes): no RIB, ledger, or
  // recycled message shell may pin a dead path.
  const AsGraph graph = test_internet(7);
  BgpConfig config;
  BgpFabric fabric(graph, config);
  const std::size_t resting = fabric.attrs().size();
  ASSERT_GE(resting, 1u);  // the origin attribute set

  const net::Ipv4Prefix prefix = stub_site_prefixes(0, 1)[0];
  const AsNumber owner = graph.ases_of_tier(AsTier::kStub).front();
  fabric.apply({RouteDelta::announce(owner, prefix)});
  fabric.run_to_convergence();
  const std::size_t converged = fabric.attrs().size();
  EXPECT_GT(converged, resting) << "propagation must intern distinct paths";

  fabric.apply({RouteDelta::withdraw(owner, prefix)});
  fabric.run_to_convergence();
  EXPECT_EQ(fabric.attrs().size(), resting)
      << "withdrawal must release every interned path";

  // And a second identical cycle reproduces the same table population.
  fabric.apply({RouteDelta::announce(owner, prefix)});
  fabric.run_to_convergence();
  EXPECT_EQ(fabric.attrs().size(), converged);
}

TEST(AttrTable, PolicyOffImportSharesTheAdvertAttributes) {
  // On the policy-off hot path an accepted advert is stored by reference:
  // Adj-RIB-In and Loc-RIB add refs, not nodes.
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kTransit);
  graph.add_as(AsNumber{2}, AsTier::kStub);
  graph.add_customer_provider(AsNumber{2}, AsNumber{1});
  BgpFabric fabric(graph);
  const net::Ipv4Prefix prefix = net::Ipv4Prefix::from_string("100.0.0.0/20");

  const std::size_t resting = fabric.attrs().size();
  UpdateMessage msg;
  msg.announces.push_back(fabric.make_advert(prefix, {AsNumber{2}}));
  const AttrRef held = msg.announces[0].attrs;
  EXPECT_EQ(held.use_count(), 2u);  // msg + held

  fabric.speaker(AsNumber{1}).handle_update(AsNumber{2}, msg);
  EXPECT_EQ(fabric.attrs().size(), resting + 1)
      << "import must not intern a copy";
  EXPECT_EQ(held.use_count(), 4u) << "msg + held + Adj-RIB-In + Loc-RIB";

  UpdateMessage withdraw;
  withdraw.withdraws.push_back(prefix);
  fabric.speaker(AsNumber{1}).handle_update(AsNumber{2}, withdraw);
  EXPECT_EQ(held.use_count(), 2u);
}

// ---------------------------------------------------------------------------
// Group rebuild on the sanctioned policy-edit path (kRefresh).

TEST(UpdateGroups, RefreshRebuildsExportGroups) {
  // Multihomed stub: both provider sessions share one group until an
  // export map lands on one of them; the kRefresh delta is the sanctioned
  // edit point that must rebuild the partition, and the exports must be
  // right on both sides of it.
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kTransit);
  graph.add_as(AsNumber{2}, AsTier::kTransit);
  graph.add_as(AsNumber{3}, AsTier::kStub);
  graph.add_customer_provider(AsNumber{3}, AsNumber{1});
  graph.add_customer_provider(AsNumber{3}, AsNumber{2});
  graph.add_peering(AsNumber{1}, AsNumber{2});

  const net::Ipv4Prefix prefix = net::Ipv4Prefix::from_string("100.0.0.0/20");
  const auto policy = policy::PolicyTable::gao_rexford(graph);
  BgpConfig config;
  config.policy = policy;
  BgpFabric fabric(graph, config);
  EXPECT_EQ(fabric.speaker(AsNumber{3}).export_group_count(), 1u)
      << "identical provider sessions must share one update-group";
  fabric.apply({RouteDelta::announce(AsNumber{3}, prefix)});
  fabric.run_to_convergence();
  EXPECT_TRUE(exports_consistent(fabric));

  policy::RouteMap& prepend = policy->add_map("te:prepend");
  prepend.add(policy::RouteMap::Action::kPermit).prepend(1);
  policy->session(AsNumber{3}, AsNumber{1}).export_map = &prepend;
  fabric.apply({RouteDelta::refresh(AsNumber{3}, AsNumber{1})});
  fabric.run_to_convergence();
  EXPECT_EQ(fabric.speaker(AsNumber{3}).export_group_count(), 2u)
      << "kRefresh must rebuild the update-group partition";
  EXPECT_TRUE(exports_consistent(fabric));
  EXPECT_NE(fingerprint(fabric).find("p 3 3"), std::string::npos)
      << "the prepended path must actually install at AS1";
}

TEST(ExportCheck, HoldsAfterARouteLeakRefresh) {
  // The classic type-1 leak: a multihomed stub drops the valley-free gate
  // toward its last provider and refreshes that session — the group key
  // changes after convergence, so the update-groups are rebuilt mid-life.
  const AsGraph graph = test_internet(21);
  const AsNumber actor = graph.ases_of_tier(AsTier::kStub).back();
  std::vector<AsNumber> providers;
  for (const AsGraph::Neighbor& neighbor : graph.neighbors(actor)) {
    if (neighbor.kind == NeighborKind::kProvider) {
      providers.push_back(neighbor.asn);
    }
  }
  ASSERT_EQ(providers.size(), 2u);
  const AsNumber target = providers.back();
  std::string reference;
  for (const std::size_t shards : {1u, 2u, 8u}) {
    const auto policy = policy::PolicyTable::gao_rexford(graph);
    const auto fabric = converge(graph, shards, policy);
    EXPECT_EQ(fabric->speaker(actor).export_group_count(), 1u);
    const std::size_t held = fabric->speaker(target).adj_rib_in(actor).size();

    policy->session(actor, target).valley_free = false;
    fabric->apply({RouteDelta::refresh(actor, target)});
    fabric->run_to_convergence();
    EXPECT_EQ(fabric->speaker(actor).export_group_count(), 2u)
        << "the leaking session must leave its update-group";
    EXPECT_TRUE(exports_consistent(*fabric)) << "K=" << shards;
    EXPECT_GT(fabric->speaker(target).adj_rib_in(actor).size(), held)
        << "the leak must reach the provider";
    if (shards == 1) reference = fingerprint(*fabric);
    EXPECT_EQ(fingerprint(*fabric), reference)
        << "the leak diverged from K=1 at K=" << shards;
  }
}

}  // namespace
}  // namespace lispcp::routing
