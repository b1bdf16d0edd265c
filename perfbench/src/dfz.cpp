// dfz.cpp — the two DFZ workloads: dfz-soak (per-event extreme) and
// dfz-cold (per-prefix extreme), driven through the routing layer's public
// surface only: build_synthetic_internet, policy::PolicyTable, BgpFabric
// construction, apply, run_to_convergence, advance, and stats().
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "routing/as_graph.hpp"
#include "routing/bgp.hpp"
#include "routing/policy.hpp"
#include "sim/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace routing = lispcp::routing;
namespace policy = lispcp::routing::policy;
using lispcp::sim::SimDuration;
using routing::AsNumber;
using routing::AsTier;
using routing::RouteDelta;

namespace {

/// The shared three-tier graph: 4 tier-1s, 10 transits, 1000 stubs with 2
/// providers each (6 transits and 40 stubs at smoke size), legacy BGP.
routing::DfzStudyConfig dfz_shape(std::uint64_t seed, bool smoke) {
  routing::DfzStudyConfig config;
  config.internet.tier1_count = 4;
  config.internet.transit_count = smoke ? 6 : 10;
  config.internet.stub_count = smoke ? 40 : 1000;
  config.internet.providers_per_stub = 2;
  config.internet.seed = seed;
  config.scenario = routing::AddressingScenario::kLegacyBgp;
  return config;
}

}  // namespace

routing::DfzStudyConfig soak_config(std::uint64_t seed, bool smoke) {
  routing::DfzStudyConfig config = dfz_shape(seed, smoke);
  config.deaggregation_factor = 1;
  config.bgp.shards = 1;
  config.soak.flaps = smoke ? 24 : 240;
  config.soak.mean_spacing = SimDuration::seconds(120);
  config.soak.hold = SimDuration::seconds(30);
  return config;
}

routing::ChurnPlan soak_plan(std::uint64_t seed, bool smoke) {
  const routing::DfzStudyConfig config = soak_config(seed, smoke);
  return routing::make_flap_plan(
      config.soak.flaps, config.internet.stub_count,
      lispcp::sim::Rng::derive_seed(seed, 0x536f616bu /* 'Soak' */),
      config.soak.mean_spacing, config.soak.hold);
}

routing::DfzStudyConfig cold_config(std::uint64_t seed, bool smoke) {
  routing::DfzStudyConfig config = dfz_shape(seed, smoke);
  config.deaggregation_factor = 4;
  config.policy.roles = true;
  config.policy.filtered_transit_fraction = 0.5;
  config.bgp.shards = 4;
  config.bgp.shard_workers = std::min<std::size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
  return config;
}

namespace {

/// One routing world built from public calls, in the order the library's
/// DFZ study builds it (so its protocol totals must match run_dfz_study).
struct World {
  // The graph outlives the fabric that references it.
  std::unique_ptr<routing::AsGraph> graph;
  std::shared_ptr<policy::PolicyTable> table;
  std::unique_ptr<routing::BgpFabric> fabric;
  std::vector<AsNumber> stubs;
  AsNumber tier1;
  std::vector<RouteDelta> originations;
  double graph_ms = 0.0;
  double policy_ms = 0.0;
  double fabric_ms = 0.0;
};

/// IRR-style strict customer-origin import maps on the stub sessions of
/// the first ceil(fraction * transits) transits.
void add_customer_origin_maps(const routing::DfzStudyConfig& config,
                              World& world) {
  const auto transits = world.graph->ases_of_tier(AsTier::kTransit);
  std::unordered_map<std::uint32_t, std::size_t> stub_index;
  for (std::size_t i = 0; i < world.stubs.size(); ++i) {
    stub_index.emplace(world.stubs[i].value(), i);
  }
  const auto filtered = static_cast<std::size_t>(
      std::ceil(std::clamp(config.policy.filtered_transit_fraction, 0.0, 1.0) *
                static_cast<double>(transits.size())));
  for (std::size_t t = 0; t < filtered; ++t) {
    for (const auto& n : world.graph->neighbors(transits[t])) {
      if (n.kind != routing::NeighborKind::kCustomer) continue;
      const auto it = stub_index.find(n.asn.value());
      if (it == stub_index.end()) continue;
      const auto block = routing::stub_site_prefixes(it->second, 1).front();
      policy::RouteMap& map =
          world.table->add_map("customer-origin:" + n.asn.to_string());
      map.add(policy::RouteMap::Action::kPermit)
          .match_prefix_list(
              policy::PrefixList("own-block").permit(block, block.length(), 32))
          .set_local_pref(policy::kCustomerLocalPref)
          .add_community(policy::kLearnedFromCustomer);
      world.table->session(transits[t], n.asn).import = &map;
    }
  }
}

[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

std::unique_ptr<World> build_world(const routing::DfzStudyConfig& config,
                                   Tracer& tracer) {
  auto world = std::make_unique<World>();
  const auto t0 = Clock::now();
  {
    Tracer::Scope span(tracer, "routing.build_synthetic_internet");
    world->graph = std::make_unique<routing::AsGraph>(
        routing::build_synthetic_internet(config.internet));
  }
  const auto t1 = Clock::now();
  world->stubs = world->graph->ases_of_tier(AsTier::kStub);
  world->tier1 = world->graph->ases_of_tier(AsTier::kTier1).front();
  std::vector<AsNumber> providers = world->graph->ases_of_tier(AsTier::kTier1);
  const auto transits = world->graph->ases_of_tier(AsTier::kTransit);
  providers.insert(providers.end(), transits.begin(), transits.end());

  routing::BgpConfig bgp = config.bgp;
  const std::size_t deagg = config.deaggregation_factor;
  bgp.expected_prefixes = providers.size() + world->stubs.size() * deagg + deagg;
  const auto t2 = Clock::now();
  if (config.policy.roles) {
    Tracer::Scope span(tracer, "routing.policy.PolicyTable");
    world->table = policy::PolicyTable::gao_rexford(*world->graph);
    add_customer_origin_maps(config, *world);
    bgp.policy = world->table;
  }
  const auto t3 = Clock::now();
  {
    Tracer::Scope span(tracer, "routing.BgpFabric");
    world->fabric = std::make_unique<routing::BgpFabric>(*world->graph, bgp);
  }
  const auto t4 = Clock::now();
  world->graph_ms = ms_between(t0, t1);
  world->policy_ms = ms_between(t2, t3);
  world->fabric_ms = ms_between(t3, t4);

  for (AsNumber provider : providers) {
    world->originations.push_back(
        RouteDelta::announce(provider, routing::provider_aggregate(provider)));
  }
  for (std::size_t i = 0; i < world->stubs.size(); ++i) {
    for (const auto& prefix : routing::stub_site_prefixes(i, deagg)) {
      world->originations.push_back(RouteDelta::announce(world->stubs[i], prefix));
    }
  }
  return world;
}

/// Network-wide sums of every speaker's stats(), the engine and the
/// attribute table.
struct Totals {
  std::uint64_t updates_sent = 0;
  std::uint64_t updates_received = 0;
  std::uint64_t announced = 0;
  std::uint64_t withdrawn = 0;
  std::uint64_t best_changes = 0;
  std::uint64_t loops_rejected = 0;
  std::uint64_t imports_filtered = 0;
  std::uint64_t exports_filtered = 0;
  std::uint64_t engine_events = 0;
  std::uint64_t attr_hits = 0;
  std::uint64_t attr_misses = 0;

  [[nodiscard]] std::uint64_t records() const { return announced + withdrawn; }

  friend Totals operator-(const Totals& a, const Totals& b) {
    return Totals{a.updates_sent - b.updates_sent,
                  a.updates_received - b.updates_received,
                  a.announced - b.announced,
                  a.withdrawn - b.withdrawn,
                  a.best_changes - b.best_changes,
                  a.loops_rejected - b.loops_rejected,
                  a.imports_filtered - b.imports_filtered,
                  a.exports_filtered - b.exports_filtered,
                  a.engine_events - b.engine_events,
                  a.attr_hits - b.attr_hits,
                  a.attr_misses - b.attr_misses};
  }
  /// The deterministic part (attribute-table hits depend on eviction
  /// timing across shard workers, so they are reported, not compared).
  [[nodiscard]] bool same_work(const Totals& o) const {
    return updates_sent == o.updates_sent &&
           updates_received == o.updates_received && announced == o.announced &&
           withdrawn == o.withdrawn && best_changes == o.best_changes &&
           loops_rejected == o.loops_rejected &&
           imports_filtered == o.imports_filtered &&
           exports_filtered == o.exports_filtered &&
           engine_events == o.engine_events;
  }
};

Totals totals(const World& world) {
  Totals t;
  for (AsNumber asn : world.graph->ases()) {
    const auto& s = world.fabric->speaker(asn).stats();
    t.updates_sent += s.updates_sent;
    t.updates_received += s.updates_received;
    t.announced += s.routes_announced;
    t.withdrawn += s.routes_withdrawn;
    t.best_changes += s.best_changes;
    t.loops_rejected += s.loops_rejected;
    t.imports_filtered += s.imports_filtered;
    t.exports_filtered += s.exports_filtered;
  }
  t.engine_events = world.fabric->engine().events_processed();
  t.attr_hits = world.fabric->attrs().hits();
  t.attr_misses = world.fabric->attrs().misses();
  return t;
}

std::uint64_t rib_entries(const World& world) {
  std::uint64_t total = 0;
  for (AsNumber asn : world.graph->ases()) {
    total += world.fabric->speaker(asn).rib_size();
  }
  return total;
}

/// Per-layer figures shared by both DFZ workloads: work counters over one
/// unit of measured work, ratios, state size, export sharing, sharding.
void report_routing_layers(const World& world, const Totals& work,
                           RunResult& result) {
  auto& m = result.per_layer;
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  m["routing.updates_sent"] = {u(work.updates_sent), "count"};
  m["routing.updates_received"] = {u(work.updates_received), "count"};
  m["routing.route_records"] = {u(work.records()), "count"};
  m["routing.best_changes"] = {u(work.best_changes), "count"};
  m["routing.loops_rejected"] = {u(work.loops_rejected), "count"};
  m["routing.imports_filtered"] = {u(work.imports_filtered), "count"};
  m["routing.exports_filtered"] = {u(work.exports_filtered), "count"};
  m["routing.records_per_update"] = {ratio(u(work.records()), u(work.updates_sent)),
                                     "ratio"};
  m["routing.best_change_ratio"] = {ratio(u(work.best_changes), u(work.records())),
                                    "ratio"};
  m["routing.loop_reject_ratio"] = {
      ratio(u(work.loops_rejected), u(work.records())), "ratio"};
  m["routing.attrs.hit_ratio"] = {
      ratio(u(work.attr_hits), u(work.attr_hits + work.attr_misses)), "ratio"};
  m["routing.attrs.live"] = {u(world.fabric->attrs().size()), "count"};
  m["routing.rib_entries"] = {u(rib_entries(world)), "count"};

  std::uint64_t groups = 0;
  std::uint64_t sessions = 0;
  for (AsNumber asn : world.graph->ases()) {
    groups += world.fabric->speaker(asn).export_group_count();
    sessions += world.graph->neighbors(asn).size();
  }
  m["routing.export_groups"] = {u(groups), "count"};
  m["routing.sessions_per_group"] = {ratio(u(sessions), u(groups)), "ratio"};

  m["routing.engine.events"] = {u(work.engine_events), "count"};
  const auto& engine = world.fabric->engine();
  m["routing.engine.shards"] = {u(engine.shard_count()), "count"};
  m["routing.engine.workers"] = {u(engine.worker_count()), "count"};
}

/// Converge host time per engine event and per route record.
void report_engine_cost(double converge_ns, std::uint64_t events,
                        std::uint64_t records, RunResult& result) {
  result.per_layer["routing.engine.ns_per_event"] = {
      ratio(converge_ns, static_cast<double>(events)), "ns"};
  result.per_layer["routing.engine.ns_per_record"] = {
      ratio(converge_ns, static_cast<double>(records)), "ns"};
}

/// max/mean of per-shard route records, grouped by the home shard of the
/// sending speaker (the fabric exposes records sent, not received).
double shard_imbalance(const World& world) {
  const auto& engine = world.fabric->engine();
  if (engine.shard_count() < 2) return 0.0;
  std::vector<double> per_shard(engine.shard_count(), 0.0);
  for (AsNumber asn : world.graph->ases()) {
    const auto& s = world.fabric->speaker(asn).stats();
    per_shard[engine.shard_of(asn)] +=
        static_cast<double>(s.routes_announced + s.routes_withdrawn);
  }
  double sum = 0.0;
  for (double v : per_shard) sum += v;
  const double mean = sum / static_cast<double>(per_shard.size());
  return ratio(*std::max_element(per_shard.begin(), per_shard.end()), mean);
}

void report_phases(const std::vector<double>& graph_ms,
                   const std::vector<double>& policy_ms,
                   const std::vector<double>& fabric_ms, RunResult& result) {
  auto& m = result.per_layer;
  m["routing.graph_build_ms"] = {median(graph_ms), "ms", graph_ms.size()};
  m["routing.policy_build_ms"] = {median(policy_ms), "ms", policy_ms.size()};
  m["routing.fabric_build_ms"] = {median(fabric_ms), "ms", fabric_ms.size()};
}

template <typename T>
bool differs(const char* what, T got, T want, RunResult& result) {
  if (got == want) return false;
  result.fail(std::string(what) + ": got " + std::to_string(got) +
              ", want " + std::to_string(want));
  return true;
}

// ---------------------------------------------------------------------------
// dfz-soak
// ---------------------------------------------------------------------------

/// One whole-site flap, timed from the withdrawal apply through the
/// re-announcement's convergence.
struct Flap {
  double host_ms = 0.0;
  double withdraw_ms = 0.0;
  double announce_ms = 0.0;
  Totals work;
  double settle_ms = 0.0;

  [[nodiscard]] bool same_result(const Flap& o) const {
    return work.same_work(o.work) && settle_ms == o.settle_ms;
  }
};

Flap run_flap(World& world, const routing::ChurnEvent& event,
              std::size_t deagg, Tracer& tracer) {
  auto& fabric = *world.fabric;
  const AsNumber subject = world.stubs.at(event.stub);
  std::vector<RouteDelta> down;
  std::vector<RouteDelta> up;
  for (const auto& prefix : routing::stub_site_prefixes(event.stub, deagg)) {
    down.push_back(RouteDelta::withdraw(subject, prefix));
    up.push_back(RouteDelta::announce(subject, prefix));
  }
  if (event.spacing > SimDuration{}) fabric.advance(event.spacing);
  const Totals before = totals(world);
  const auto sim_start = fabric.now();

  Flap flap;
  Tracer::Scope span(tracer, "flap");
  const auto c0 = Clock::now();
  {
    Tracer::Scope s(tracer, "routing.apply");
    fabric.apply(down);
  }
  const auto c1 = Clock::now();
  {
    Tracer::Scope s(tracer, "routing.converge.withdraw");
    fabric.run_to_convergence();
    s.close();
    s.counter("engine_events", static_cast<double>(fabric.last_run_events()));
  }
  const auto c2 = Clock::now();
  {
    Tracer::Scope s(tracer, "routing.advance");
    fabric.advance(event.hold);
  }
  {
    Tracer::Scope s(tracer, "routing.apply");
    fabric.apply(up);
  }
  const auto c4 = Clock::now();
  {
    Tracer::Scope s(tracer, "routing.converge.announce");
    fabric.run_to_convergence();
    s.close();
    s.counter("engine_events", static_cast<double>(fabric.last_run_events()));
  }
  const auto c5 = Clock::now();
  span.close();

  flap.host_ms = ms_between(c0, c5);
  flap.withdraw_ms = ms_between(c1, c2);
  flap.announce_ms = ms_between(c4, c5);
  flap.work = totals(world) - before;
  flap.settle_ms = ((fabric.now() - sim_start) - event.hold).ms();
  span.counter("updates", static_cast<double>(flap.work.updates_sent));
  span.counter("route_records", static_cast<double>(flap.work.records()));
  span.counter("engine_events", static_cast<double>(flap.work.engine_events));
  return flap;
}

}  // namespace

RunResult run_dfz_soak(const RunOptions& options) {
  RunResult result;
  Tracer tracer(options.trace);
  const auto config = soak_config(options.seed, options.smoke);
  const auto plan = soak_plan(options.seed, options.smoke);
  const SoakReference* ref = nullptr;
  if (options.seed == kDefaultSeed) ref = options.smoke ? &kSoakSmoke : &kSoakFull;

  // Set-up, repeated: graph, fabric, origination, initial convergence.  The
  // last world built carries the soak.
  std::unique_ptr<World> world;
  std::vector<double> setup_s;
  std::vector<double> graph_ms;
  std::vector<double> fabric_ms;
  std::vector<double> apply_setup_ms;
  std::optional<Totals> first_setup;
  const int setups = 3;
  for (int i = 0; i < setups; ++i) {
    world.reset();
    tracer.set_op(static_cast<std::uint32_t>(i));
    const auto t0 = Clock::now();
    double converged_ms = 0.0;
    {
      Tracer::Scope span(tracer, "setup");
      world = build_world(config, tracer);
      const auto a0 = Clock::now();
      {
        Tracer::Scope s(tracer, "routing.apply");
        world->fabric->apply(world->originations);
      }
      apply_setup_ms.push_back(ms_between(a0, Clock::now()));
      Tracer::Scope s(tracer, "routing.run_to_convergence");
      converged_ms = world->fabric->run_to_convergence().ms();
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
    graph_ms.push_back(world->graph_ms);
    fabric_ms.push_back(world->fabric_ms);

    const Totals t = totals(*world);
    if (!world->fabric->converged()) result.fail("setup: fabric not converged");
    if (first_setup && !t.same_work(*first_setup)) {
      result.fail("setup: initial convergence differs between set-ups");
    }
    first_setup = t;
    if (ref != nullptr) {
      differs("setup updates", t.updates_sent, ref->init_updates, result);
      differs("setup records", t.announced, ref->init_records, result);
      differs("setup converge ms", converged_ms, ref->init_converge_ms, result);
    }
  }

  const std::size_t tier1_table = world->fabric->speaker(world->tier1).rib_size();
  const std::uint64_t rib_total = rib_entries(*world);

  // Every pass replays the same plan on the same fabric (a flap restores the
  // converged state exactly), so each flap is one operation repeated once
  // per pass: its time is the median of its repetitions, and percentiles
  // are taken across the flaps.  A traced run traces flap i on pass p iff
  // i + p is odd, so the traced and untraced arms cover the same flaps,
  // interleaved in time.
  const std::size_t n = plan.events.size();
  std::vector<Flap> first_pass;
  std::unordered_map<std::size_t, Flap> by_stub;
  std::vector<std::vector<double>> untraced_ms(n), traced_ms(n);
  std::vector<Flap> traced;  // the per-layer numbers
  std::optional<Totals> pass_work;
  int passes = 0;
  const auto start = Clock::now();
  std::uint32_t op = 0;
  for (; passes < 2 || seconds_between(start, Clock::now()) < options.seconds;
       ++passes) {
    const Totals pass_before = totals(*world);
    double settle_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& event = plan.events[i];
      const bool recording = options.trace && (i + passes) % 2 == 1;
      tracer.set_recording(recording);
      tracer.set_op(op++);
      const Flap flap = run_flap(*world, event, config.deaggregation_factor, tracer);
      ++result.attempted;
      settle_sum += flap.settle_ms;
      (recording ? traced_ms : untraced_ms)[i].push_back(flap.host_ms);
      if (recording) traced.push_back(flap);

      // Output checks: converged, tables restored, and the flap cost the
      // same as every earlier flap of the same stub (a flap restores the
      // converged state exactly, and cascades are time-translation
      // invariant), traced or not.
      bool ok = world->fabric->converged();
      ok = ok && world->fabric->speaker(world->tier1).rib_size() == tier1_table;
      ok = ok && rib_entries(*world) == rib_total;
      if (passes == 0) {
        const auto [it, fresh] = by_stub.emplace(event.stub, flap);
        ok = ok && (fresh || it->second.same_result(flap));
        first_pass.push_back(flap);
      } else {
        ok = ok && first_pass[i].same_result(flap);
      }
      if (!ok) {
        ++result.failed;
        result.fail("flap " + std::to_string(i) + " (stub " +
                    std::to_string(event.stub) + ", pass " +
                    std::to_string(passes) + ")");
      }
    }
    const Totals work = totals(*world) - pass_before;
    if (pass_work && !work.same_work(*pass_work)) {
      result.fail("pass " + std::to_string(passes) + " work differs from pass 0");
    }
    pass_work = work;
    if (ref != nullptr) {
      differs("pass updates", work.updates_sent, ref->pass_updates, result);
      differs("pass records", work.records(), ref->pass_records, result);
      differs("pass engine events", work.engine_events, ref->pass_engine_events,
              result);
      differs("pass settle ms", settle_sum, ref->pass_settle_ms, result);
    }
  }

  const std::vector<double> flap_ms = medians(untraced_ms);
  double flap_total_ms = 0.0;
  for (double ms : flap_ms) flap_total_ms += ms;
  auto& e2e = result.end_to_end;
  e2e["setup_s"] = {median(setup_s), "s", setup_s.size()};
  e2e["work_per_s"] = {ratio(static_cast<double>(flap_ms.size()), flap_total_ms / 1e3),
                       "1/s", flap_ms.size()};
  e2e["op_ms_p50"] = {median(flap_ms), "ms", flap_ms.size()};
  e2e["op_ms_p95"] = {quantile(flap_ms, 0.95), "ms", flap_ms.size()};
  char line[240];
  std::snprintf(line, sizeof line,
                "dfz-soak: %zu flaps, %d passes, each flap timed as the median "
                "of its untraced repetitions (work_per_s = flaps_per_s, "
                "op_ms_* = flap_ms_*)",
                n, passes);
  result.notes.emplace_back(line);

  if (options.trace) {
    std::vector<double> t_withdraw, t_announce, t_converge;
    double converge_ns = 0.0;
    std::uint64_t traced_events = 0;
    std::uint64_t traced_records = 0;
    for (const Flap& f : traced) {
      t_withdraw.push_back(f.withdraw_ms);
      t_announce.push_back(f.announce_ms);
      t_converge.push_back(f.withdraw_ms + f.announce_ms);
      converge_ns += (f.withdraw_ms + f.announce_ms) * 1e6;
      traced_events += f.work.engine_events;
      traced_records += f.work.records();
    }
    auto& m = result.per_layer;
    report_phases(graph_ms, {0.0}, fabric_ms, result);
    report_routing_layers(*world, *pass_work, result);
    report_engine_cost(converge_ns, traced_events, traced_records, result);
    // The origination apply of the set-up (a flap's applies are microseconds).
    m["routing.apply_ms"] = {median(apply_setup_ms), "ms", apply_setup_ms.size()};
    m["routing.converge_ms"] = {median(t_converge), "ms", t_converge.size()};
    m["routing.withdraw_converge_ms"] = {median(t_withdraw), "ms", t_withdraw.size()};
    m["routing.announce_converge_ms"] = {median(t_announce), "ms", t_announce.size()};
    const auto flaps = static_cast<double>(n);
    m["routing.updates_per_flap"] = {
        static_cast<double>(pass_work->updates_sent) / flaps, "count"};
    m["routing.engine.events_per_flap"] = {
        static_cast<double>(pass_work->engine_events) / flaps, "count"};
    m["routing.engine.imbalance"] = {shard_imbalance(*world), "ratio"};
    const std::vector<double> t_flap_ms = medians(traced_ms);
    m["trace.overhead_pct"] = {(ratio(median(t_flap_ms), median(flap_ms)) - 1.0) * 100.0,
                               "%", t_flap_ms.size()};
    add_span_summary(tracer, result);
  }
  if (!options.trace_path.empty() && options.trace &&
      !tracer.write_jsonl(options.trace_path)) {
    result.fail("cannot write " + options.trace_path);
  }
  return result;
}

// ---------------------------------------------------------------------------
// dfz-cold
// ---------------------------------------------------------------------------

RunResult run_dfz_cold(const RunOptions& options) {
  RunResult result;
  Tracer tracer(options.trace);
  const auto config = cold_config(options.seed, options.smoke);
  const ColdReference* ref = nullptr;
  if (options.seed == kDefaultSeed) ref = options.smoke ? &kColdSmoke : &kColdFull;

  // A traced run alternates untraced and traced repetitions.
  std::vector<double> setup_s, converge_ms;  // untraced repetitions
  std::vector<double> graph_ms, policy_ms, fabric_ms;
  std::vector<double> t_apply, t_converge;   // traced repetitions
  std::optional<Totals> first;
  std::optional<double> first_converged;
  std::uint64_t routes = 0;
  const std::size_t valley_stride = options.smoke ? 1 : 61;
  // Set-up alone, repeated before the measured loop so its median rests on
  // more samples than the few cold convergences a run has time for.
  for (int i = 0; i < 4; ++i) {
    const auto s0 = Clock::now();
    auto world = build_world(config, tracer);
    setup_s.push_back(seconds_between(s0, Clock::now()));
    graph_ms.push_back(world->graph_ms);
    policy_ms.push_back(world->policy_ms);
    fabric_ms.push_back(world->fabric_ms);
  }
  const int min_reps = options.trace ? 4 : 2;
  const auto start = Clock::now();
  for (int rep = 0;
       rep < min_reps || seconds_between(start, Clock::now()) < options.seconds;
       ++rep) {
    const bool recording = options.trace && rep % 2 == 1;
    tracer.set_recording(recording);
    tracer.set_op(static_cast<std::uint32_t>(rep));
    ++result.attempted;

    const auto s0 = Clock::now();
    std::unique_ptr<World> world;
    {
      Tracer::Scope span(tracer, "setup");
      world = build_world(config, tracer);
    }
    const auto s1 = Clock::now();
    double apply_ms = 0.0;
    double converged_at = 0.0;
    {
      Tracer::Scope span(tracer, "cold_convergence");
      const auto c0 = Clock::now();
      {
        Tracer::Scope s(tracer, "routing.apply");
        world->fabric->apply(world->originations);
      }
      apply_ms = ms_between(c0, Clock::now());
      Tracer::Scope s(tracer, "routing.run_to_convergence");
      converged_at = world->fabric->run_to_convergence().ms();
      s.close();
      s.counter("engine_events",
                static_cast<double>(world->fabric->last_run_events()));
    }
    const auto s2 = Clock::now();
    const double op_ms = ms_between(s1, s2);
    graph_ms.push_back(world->graph_ms);
    policy_ms.push_back(world->policy_ms);
    fabric_ms.push_back(world->fabric_ms);
    if (recording) {
      t_apply.push_back(apply_ms);
      t_converge.push_back(op_ms - apply_ms);
    } else {
      setup_s.push_back(seconds_between(s0, s1));
      converge_ms.push_back(op_ms);
    }

    // Output checks: every AS holds a route for every originated prefix,
    // sampled best paths are valley-free, and every repetition converges
    // to the same protocol totals.
    Tracer::Scope checks(tracer, "checks");
    bool ok = world->fabric->converged();
    const std::uint64_t prefixes = world->originations.size();
    for (AsNumber asn : world->graph->ases()) {
      ok = ok && world->fabric->speaker(asn).rib_size() == prefixes;
    }
    const auto valley = policy::check_valley_free(*world->fabric, valley_stride);
    ok = ok && valley.violations == 0 && valley.paths_checked > 0;
    const Totals t = totals(*world);
    if (first) ok = ok && t.same_work(*first) && converged_at == *first_converged;
    if (ref != nullptr) {
      ok = !differs("updates", t.updates_sent, ref->updates, result) && ok;
      ok = !differs("records", t.announced, ref->records, result) && ok;
      ok = !differs("converge ms", converged_at, ref->converge_ms, result) && ok;
      ok = !differs("dfz table",
                    static_cast<std::uint64_t>(
                        world->fabric->speaker(world->tier1).rib_size()),
                    ref->dfz_table, result) && ok;
      ok = !differs("rib entries", rib_entries(*world), ref->rib_entries, result) &&
           ok;
    }
    if (!ok) {
      ++result.failed;
      result.fail("cold convergence " + std::to_string(rep) + " (valley violations " +
                  std::to_string(valley.violations) + ")");
    }
    first = t;
    first_converged = converged_at;
    routes = rib_entries(*world);
    checks.close();

    if (recording) {
      report_routing_layers(*world, t, result);
      report_engine_cost(median(t_converge) * 1e6, t.engine_events, t.records(),
                         result);
      result.per_layer["routing.engine.imbalance"] = {shard_imbalance(*world),
                                                      "ratio"};
    }
    if (rep == 0) {
      result.notes.push_back("valley-free check: " +
                             std::to_string(valley.paths_checked) +
                             " sampled best paths, 0 violations required");
    }
    Tracer::Scope span(tracer, "teardown");
    world.reset();
  }

  auto& e2e = result.end_to_end;
  e2e["setup_s"] = {median(setup_s), "s", setup_s.size()};
  const double converge = median(converge_ms);
  e2e["work_per_s"] = {ratio(static_cast<double>(routes), converge / 1e3), "1/s",
                       converge_ms.size()};
  // One operation, so no tail beyond its median: op_ms_p95 = op_ms_p50.
  e2e["op_ms_p50"] = {converge, "ms", converge_ms.size()};
  e2e["op_ms_p95"] = {converge, "ms", converge_ms.size()};
  result.notes.push_back(
      "dfz-cold: op_ms_p50 = op_ms_p95 = converge_s * 1000, the median over "
      "repetitions; work_per_s = Loc-RIB routes converged per second");
  result.notes.push_back(sample_line("converge_ms samples", converge_ms));

  if (options.trace) {
    auto& m = result.per_layer;
    report_phases(graph_ms, policy_ms, fabric_ms, result);
    std::vector<double> t_op;
    for (std::size_t i = 0; i < t_apply.size(); ++i) t_op.push_back(t_apply[i] + t_converge[i]);
    m["routing.apply_ms"] = {median(t_apply), "ms", t_apply.size()};
    m["routing.converge_ms"] = {median(t_converge), "ms", t_converge.size()};
    m["trace.overhead_pct"] = {(ratio(median(t_op), converge) - 1.0) * 100.0, "%",
                               t_op.size()};
    add_span_summary(tracer, result);
    if (!options.trace_path.empty() && !tracer.write_jsonl(options.trace_path)) {
      result.fail("cannot write " + options.trace_path);
    }
  }
  return result;
}

}  // namespace perfbench
