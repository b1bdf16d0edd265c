// F2 — the paper's §1 premise: DFZ routing-table scaling with and without
// the Locator/Identifier split.
//
// "The scaling benefits arise when EID addresses are not routable through
// the Internet — only the RLOCs are globally routable [2]."  This bench
// measures that on the BGP-lite substrate (src/routing): the same synthetic
// three-tier Internet is converged twice —
//
//   legacy-bgp      every stub site injects its (possibly de-aggregated)
//                   prefix into BGP;
//   lisp-rloc-only  only provider RLOC aggregates enter BGP; stub EID blocks
//                   become mapping-system entries.
//
// A second series measures re-homing churn: the BGP update storm when one
// multihomed stub flaps its prefixes (the ingress-TE move of §2), versus the
// LISP+PCE equivalent, a Step-7b mapping push that no BGP speaker hears.
//
// Declarative sweeps via the DFZ adapter (scenario/dfz_adapter.hpp): the
// studies build their own three-tier Internet, so they run through
// Runner::execute with stub-site count as a topology-size axis.  The BGP
// substrate is the sharded convergence engine: --shards K partitions each
// point's AS graph across K deterministic shards (records are
// byte-identical for any K — CI diffs --shards 4 against --shards 1), and
// the F2c series scales the study to 1k stub sites, the regime where the
// paper's table-size claim actually bites.  F2d replicates the churn study
// over derived seeds (SweepSpec::replications) for mean/sd error bars.
// F2f soaks a 1k-stub Internet under a generated ChurnPlan of 1000+ flaps
// spread over simulated days, re-converging incrementally on one long-lived
// fabric; F2g is a short flap plan that CI also runs under --full-replay
// (rebuild per event) and byte-diffs against the incremental artifact.
#include <iostream>

#include "bench_util.hpp"
#include "scenario/dfz_adapter.hpp"

namespace lispcp {
namespace {

using scenario::ExperimentConfig;
using scenario::Runner;
using scenario::SweepSpec;

SweepSpec f2_base(const bench::BenchContext& ctx) {
  const bool quick = ctx.quick();
  SweepSpec spec;
  spec.base([quick](ExperimentConfig& config) {
        config.dfz.internet.tier1_count = 4;
        config.dfz.internet.transit_count = quick ? 6 : 10;
        config.dfz.internet.providers_per_stub = 2;
        config.dfz.internet.seed = 7;
        // Keep the record's reported seed honest on the adapter path.
        config.spec.seed = config.dfz.internet.seed;
      })
      .base(scenario::dfz::sharded(ctx.shards(), ctx.shard_workers()));
  // --full-replay: churn plans rebuild the world per event (the parity
  // baseline the CI leg diffs against the incremental default).
  if (ctx.full_replay()) spec.base(scenario::dfz::full_replay());
  return spec;
}

void series_scaling(bench::BenchContext& ctx) {
  if (!ctx.enabled("F2a")) return;
  std::cout << "\n-- F2a: DFZ table size and convergence cost --\n";
  const bool quick = ctx.quick();
  auto spec =
      f2_base(ctx)
          .named("F2a")
          .axis(scenario::dfz::stub_sites(
              quick ? std::vector<std::uint64_t>{20, 40}
                    : std::vector<std::uint64_t>{50, 100, 200}))
          .axis(scenario::dfz::deaggregation(
              quick ? std::vector<std::uint64_t>{1, 4}
                    : std::vector<std::uint64_t>{1, 4, 16}))
          .axis(scenario::dfz::scenarios());
  Runner runner(std::move(spec));
  runner.execute(scenario::dfz::run_study);
  ctx.run(runner).table().print(std::cout);
}

void series_churn(bench::BenchContext& ctx) {
  if (!ctx.enabled("F2b")) return;
  std::cout << "\n-- F2b: re-homing churn — one stub swings its ingress "
               "(BGP flap vs PCE mapping push) --\n";
  const bool quick = ctx.quick();
  auto spec = f2_base(ctx)
                  .named("F2b")
                  .base([quick](ExperimentConfig& config) {
                    config.dfz.internet.stub_count = quick ? 40 : 100;
                  })
                  .axis(scenario::dfz::deaggregation(
                      quick ? std::vector<std::uint64_t>{1, 4}
                            : std::vector<std::uint64_t>{1, 4, 16}))
                  .axis(scenario::dfz::scenarios());
  Runner runner(std::move(spec));
  runner.execute(scenario::dfz::run_churn);
  ctx.run(runner).table().print(std::cout);
}

void series_scale_out(bench::BenchContext& ctx) {
  if (!ctx.enabled("F2c")) return;
  std::cout << "\n-- F2c: the claim at production scale — up to 1k stub "
               "sites (sharded convergence engine) --\n";
  const bool quick = ctx.quick();
  auto spec = f2_base(ctx)
                  .named("F2c")
                  .axis(scenario::dfz::stub_sites(
                      quick ? std::vector<std::uint64_t>{60, 120}
                            : std::vector<std::uint64_t>{500, 1000}))
                  .axis(scenario::dfz::scenarios());
  Runner runner(std::move(spec));
  runner.execute(scenario::dfz::run_study);
  ctx.run(runner).table().print(std::cout);
}

void series_churn_error_bars(bench::BenchContext& ctx) {
  if (!ctx.enabled("F2d")) return;
  std::cout << "\n-- F2d: churn spread over topology seeds "
               "(multi-seed replication, mean/sd/min/max) --\n";
  const bool quick = ctx.quick();
  auto spec = f2_base(ctx)
                  .named("F2d")
                  .base([quick](ExperimentConfig& config) {
                    config.dfz.scenario =
                        routing::AddressingScenario::kLegacyBgp;
                    config.dfz.internet.stub_count = quick ? 40 : 100;
                  })
                  .axis(scenario::dfz::deaggregation({1, 4}))
                  .seed_mode(scenario::SeedMode::kPerPoint)
                  .replications(quick ? 3 : 5);
  Runner runner(std::move(spec));
  runner.execute(scenario::dfz::run_churn);
  ctx.run(runner).aggregate().table().print(std::cout);
}

void series_hijack_containment(bench::BenchContext& ctx) {
  if (!ctx.enabled("F2e")) return;
  std::cout << "\n-- F2e: policy incidents vs containment — hijack/leak "
               "blast radius against the filtered-transit fraction "
               "(Gao-Rexford roles + IRR-style origin filters) --\n";
  const bool quick = ctx.quick();
  auto spec =
      f2_base(ctx)
          .named("F2e")
          .base([quick](ExperimentConfig& config) {
            config.dfz.scenario = routing::AddressingScenario::kLegacyBgp;
            config.dfz.internet.stub_count = quick ? 40 : 100;
            config.dfz.deaggregation_factor = 1;
            config.dfz.policy.event.victim_stub = 0;  // actor = last stub
          })
          .base(scenario::dfz::roles_enabled())
          .axis(scenario::dfz::policy_events(
              {routing::PolicyEvent::Kind::kHijackMoreSpecific,
               routing::PolicyEvent::Kind::kHijackSameSpecific,
               routing::PolicyEvent::Kind::kRouteLeak}))
          .axis(scenario::dfz::filtered_transits({0.0, 0.5, 1.0}));
  Runner runner(std::move(spec));
  runner.execute(scenario::dfz::run_policy_incident);
  ctx.run(runner).table().print(std::cout);
}

void series_churn_soak(bench::BenchContext& ctx) {
  if (!ctx.enabled("F2f")) return;
  std::cout << "\n-- F2f: DFZ churn soak — 1k+ flaps over simulated days at "
               "1k stub sites, incremental re-convergence "
               "(per-flap cost, mean/sd over derived-seed plans) --\n";
  const bool quick = ctx.quick();
  auto spec = f2_base(ctx)
                  .named("F2f")
                  .base([](ExperimentConfig& config) {
                    config.dfz.internet.stub_count = 1000;
                    config.dfz.soak.mean_spacing = sim::SimDuration::seconds(120);
                    config.dfz.soak.hold = sim::SimDuration::seconds(30);
                  })
                  .axis(scenario::dfz::soak_flaps(
                      quick ? std::vector<std::uint64_t>{1000}
                            : std::vector<std::uint64_t>{1000, 2000}))
                  .axis(scenario::dfz::scenarios())
                  .seed_mode(scenario::SeedMode::kPerPoint)
                  .replications(quick ? 3 : 5);
  Runner runner(std::move(spec));
  runner.execute(scenario::dfz::run_soak);
  ctx.run(runner).aggregate().table().print(std::cout);
}

void series_churn_parity(bench::BenchContext& ctx) {
  if (!ctx.enabled("F2g")) return;
  std::cout << "\n-- F2g: incremental vs full-replay parity probe — a short "
               "flap plan whose records must be byte-identical under "
               "--full-replay (CI diffs the two artifacts) --\n";
  const bool quick = ctx.quick();
  auto spec = f2_base(ctx)
                  .named("F2g")
                  .base([quick](ExperimentConfig& config) {
                    config.dfz.scenario =
                        routing::AddressingScenario::kLegacyBgp;
                    config.dfz.internet.stub_count = quick ? 40 : 100;
                    config.dfz.soak.flaps = 30;
                    config.dfz.soak.mean_spacing = sim::SimDuration::seconds(60);
                    config.dfz.soak.hold = sim::SimDuration::seconds(15);
                  })
                  .axis(scenario::dfz::deaggregation({1, 4}));
  Runner runner(std::move(spec));
  runner.execute(scenario::dfz::run_soak);
  ctx.run(runner).table().print(std::cout);
}

}  // namespace
}  // namespace lispcp

int main(int argc, char** argv) {
  auto ctx = lispcp::bench::BenchContext("F2", lispcp::bench::parse_cli(argc, argv));
  lispcp::bench::print_header(
      "F2", "DFZ routing-table scaling under the Loc/ID split",
      "§1: \"scaling benefits arise when EID addresses are not routable "
      "through the Internet — only the RLOCs are globally routable\"");
  lispcp::series_scaling(ctx);
  lispcp::series_churn(ctx);
  lispcp::series_scale_out(ctx);
  lispcp::series_churn_error_bars(ctx);
  lispcp::series_hijack_containment(ctx);
  lispcp::series_churn_soak(ctx);
  lispcp::series_churn_parity(ctx);
  lispcp::bench::print_footer(
      "Shape check: the legacy DFZ grows with sites x de-aggregation while "
      "the LISP DFZ stays fixed at the provider-aggregate count; re-homing "
      "under legacy BGP touches most of the Internet and scales with the "
      "de-aggregation factor, whereas under LISP+PCE it is a mapping push "
      "with zero BGP messages (its latency is bench E4's subject).  The "
      "soak (F2f) amortises thousands of flaps on one long-lived fabric; "
      "--full-replay rebuilds the world per flap and must reproduce the "
      "same records (F2g is the CI parity probe).");
  ctx.finish();
  return 0;
}
