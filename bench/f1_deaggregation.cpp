// F1 — the paper's future-work experiment: prefix de-aggregation.
//
// §3 closes with the authors' plan to study the control plane in Latin
// America, which has "the world's largest IPv4 de-aggregation factor".
// De-aggregation multiplies the number of mappings each site registers,
// which stresses every pull/push mapping system:
//   * ALT/CONS overlay routers carry k× the routes, and ITR map-caches see
//     k× the working set (more misses at a fixed capacity);
//   * NERD must push and store a k× larger database at every consumer;
//   * the PCE control plane distributes *per-flow tuples* derived from
//     whatever mapping granularity exists, so its first-packet behaviour is
//     unchanged — exactly the regime where its design pays off.
//
// Declarative sweep: de-aggregation factor x control plane, pivoted so each
// plane's stress metrics line up per factor.  A second series (F1b) takes
// the same §3 observation to the BGP substrate: de-aggregated stub prefixes
// multiply the DFZ table and the convergence traffic under legacy
// addressing while the LISP DFZ stays at the provider-aggregate count —
// measured up to 1k stub sites on the sharded convergence engine
// (--shards K; records are byte-identical for any K).
#include <iostream>

#include "bench_util.hpp"
#include "scenario/dfz_adapter.hpp"

namespace lispcp {
namespace {

using scenario::Axis;
using scenario::Experiment;
using scenario::ExperimentConfig;
using scenario::Record;
using scenario::Runner;
using scenario::RunPoint;
using scenario::SweepSpec;
using topo::ControlPlaneKind;

SweepSpec f1_base() {
  SweepSpec spec;
  spec.base([](ExperimentConfig& config) {
    config.spec.domains = 16;
    config.spec.hosts_per_domain = 8;  // hosts spread across the sub-prefixes
    config.spec.providers_per_domain = 2;
    config.spec.cache_capacity = 24;  // fixed cache while state grows
    config.spec.mapping_ttl_seconds = 120;
    config.spec.seed = 12;
    config.traffic.sessions_per_second = 40;
    config.traffic.duration = sim::SimDuration::seconds(30);
    config.traffic.zipf_alpha = 0.8;
    config.drain = sim::SimDuration::seconds(40);
  });
  return spec;
}

void series_deaggregation(bench::BenchContext& ctx) {
  if (!ctx.enabled("F1a")) return;
  auto spec =
      f1_base()
          .named("F1a")
          .axis(Axis::integers("deagg factor", {1, 2, 4, 8, 16},
                               [](ExperimentConfig& config, std::uint64_t v) {
                                 config.spec.deaggregation_factor =
                                     static_cast<std::size_t>(v);
                               }))
          .axis(Axis::control_planes(
              "control plane",
              {ControlPlaneKind::kAltDrop, ControlPlaneKind::kNerd,
               ControlPlaneKind::kPce}));
  ctx.maybe_quick(spec);
  Runner runner(std::move(spec));
  runner.probe([](Experiment& experiment, const RunPoint& point, Record& record) {
    const auto s = experiment.summary();
    record.set_int("drops", s.miss_drops);
    switch (point.config.spec.kind) {
      case ControlPlaneKind::kAltDrop: {
        std::uint64_t overlay_routes = 0;
        for (const auto* router : experiment.internet().overlay()) {
          overlay_routes += router->route_count();
        }
        record.set_int("registered mappings",
                       experiment.internet().registry().size());
        record.set_int("miss events", s.miss_events);
        record.set_int("overlay routes", overlay_routes);
        break;
      }
      case ControlPlaneKind::kNerd:
        record.set_int("entries pushed",
                       experiment.internet().nerd()->stats().entries_pushed);
        break;
      default:
        break;
    }
  });
  const auto& result = ctx.run(runner);
  result
      .pivot("deagg factor", "control plane",
             {"registered mappings", "miss events", "drops", "overlay routes",
              "entries pushed"})
      .print(std::cout);
}

void series_dfz_deaggregation(bench::BenchContext& ctx) {
  if (!ctx.enabled("F1b")) return;
  std::cout << "\n-- F1b: de-aggregation in the DFZ — stub sites x factor, "
               "legacy BGP vs Loc/ID split --\n";
  const bool quick = ctx.quick();
  SweepSpec spec;
  spec.named("F1b")
      .base([quick](ExperimentConfig& config) {
        config.dfz.internet.tier1_count = 4;
        config.dfz.internet.transit_count = quick ? 6 : 10;
        config.dfz.internet.providers_per_stub = 2;
        config.dfz.internet.seed = 12;
        config.spec.seed = config.dfz.internet.seed;
      })
      .base(scenario::dfz::sharded(ctx.shards(), ctx.shard_workers()))
      .axis(scenario::dfz::stub_sites(
          quick ? std::vector<std::uint64_t>{30, 60}
                : std::vector<std::uint64_t>{150, 1000}))
      .axis(scenario::dfz::deaggregation({1, 4}))
      .axis(scenario::dfz::scenarios());
  Runner runner(std::move(spec));
  runner.execute(scenario::dfz::run_study);
  ctx.run(runner).table().print(std::cout);
}

void series_te_deaggregation_cost(bench::BenchContext& ctx) {
  if (!ctx.enabled("F1c")) return;
  std::cout << "\n-- F1c: the claim-(iii) TE knob priced — selective vs "
               "broadcast de-aggregation, per-announcement RIB/churn cost "
               "(Gao-Rexford roles + export maps) --\n";
  const bool quick = ctx.quick();
  SweepSpec spec;
  spec.named("F1c")
      .base([quick](ExperimentConfig& config) {
        config.dfz.internet.tier1_count = 4;
        config.dfz.internet.transit_count = quick ? 6 : 10;
        config.dfz.internet.providers_per_stub = 2;
        config.dfz.internet.seed = 12;
        config.spec.seed = config.dfz.internet.seed;
        config.dfz.scenario = routing::AddressingScenario::kLegacyBgp;
        config.dfz.deaggregation_factor = 1;
        config.dfz.policy.event.victim_stub = 0;
      })
      .base(scenario::dfz::sharded(ctx.shards(), ctx.shard_workers()))
      .base(scenario::dfz::roles_enabled())
      .axis(scenario::dfz::stub_sites(
          quick ? std::vector<std::uint64_t>{30, 60}
                : std::vector<std::uint64_t>{100, 400}))
      .axis(scenario::dfz::event_deagg(quick ? std::vector<std::uint64_t>{2, 8}
                                             : std::vector<std::uint64_t>{2, 8, 32}))
      .axis(scenario::dfz::policy_events(
          {routing::PolicyEvent::Kind::kBroadcastDeagg,
           routing::PolicyEvent::Kind::kSelectiveDeagg}));
  Runner runner(std::move(spec));
  runner.execute(scenario::dfz::run_policy_incident);
  ctx.run(runner).table().print(std::cout);
}

}  // namespace
}  // namespace lispcp

int main(int argc, char** argv) {
  auto ctx = lispcp::bench::BenchContext("F1", lispcp::bench::parse_cli(argc, argv));
  lispcp::bench::print_header(
      "F1", "future work: prefix de-aggregation",
      "§3: TE study \"in the context of Latin America ... the world's "
      "largest IPv4 de-aggregation factor\"");
  lispcp::series_deaggregation(ctx);
  lispcp::series_dfz_deaggregation(ctx);
  lispcp::series_te_deaggregation_cost(ctx);
  lispcp::bench::print_footer(
      "Shape check: de-aggregation multiplies mapping-system state "
      "(registered mappings, overlay routes, NERD push volume) and drives "
      "up ALT's cache misses and drops at fixed capacity, while the PCE "
      "column stays zero — per-flow push distribution is insensitive to "
      "registration granularity.");
  ctx.finish();
  return 0;
}
