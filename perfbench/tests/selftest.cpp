// selftest.cpp — the benchmark's own tests.
//
//   perfbench_selftest                    smoke: every workload at small size
//                                         (untraced and traced, two seeds)
//                                         plus the small-size pinned values
//   perfbench_selftest --full             also re-derives the full-size
//                                         pinned values (about a minute)
//   perfbench_selftest --print-reference  prints the pinned table afresh
//
// Pinned values come from the library's own reference paths on the very
// inputs the workloads generate: routing::run_dfz_study and
// routing::run_churn_plan for the DFZ workloads, scenario::Experiment for
// each plane.  A mismatch means either the simulator's results changed
// (a speed-only change must never do that) or the benchmark no longer
// drives the library the way its reference paths do.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace routing = lispcp::routing;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

SoakReference derive_soak(bool smoke) {
  const auto config = soak_config(kDefaultSeed, smoke);
  const auto study = routing::run_dfz_study(config);
  const auto churn = routing::run_churn_plan(config, soak_plan(kDefaultSeed, smoke));
  double settle = 0.0;
  for (const auto& event : churn.events) settle += event.settle_ms;
  return {study.update_messages, study.route_records, study.convergence_ms,
          churn.update_messages, churn.route_records, churn.engine_events, settle};
}

ColdReference derive_cold(bool smoke) {
  const auto config = cold_config(kDefaultSeed, smoke);
  const auto study = routing::run_dfz_study(config);
  const std::size_t ases = config.internet.tier1_count +
                           config.internet.transit_count + config.internet.stub_count;
  return {study.update_messages, study.route_records, study.convergence_ms,
          study.dfz_table_size,
          static_cast<std::uint64_t>(
              std::llround(study.mean_rib_size * static_cast<double>(ases)))};
}

PlaneReference derive_plane(const Plane& plane, bool smoke) {
  lispcp::scenario::Experiment experiment(plane_config(plane.kind, kDefaultSeed, smoke));
  return plane_values(experiment.run());
}

std::string u(std::uint64_t v) { return std::to_string(v) + "u"; }
std::string d(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_soak(const char* name, const SoakReference& r) {
  std::printf("inline constexpr SoakReference %s{%s, %s, %s, %s, %s, %s, %s};\n", name,
              u(r.init_updates).c_str(), u(r.init_records).c_str(),
              d(r.init_converge_ms).c_str(), u(r.pass_updates).c_str(),
              u(r.pass_records).c_str(), u(r.pass_engine_events).c_str(),
              d(r.pass_settle_ms).c_str());
}

void print_cold(const char* name, const ColdReference& r) {
  std::printf("inline constexpr ColdReference %s{%s, %s, %s, %s, %s};\n", name,
              u(r.updates).c_str(), u(r.records).c_str(), d(r.converge_ms).c_str(),
              u(r.dfz_table).c_str(), u(r.rib_entries).c_str());
}

void print_planes(const char* name, bool smoke) {
  std::printf("inline constexpr PlaneReference %s[3]{\n", name);
  for (const Plane& plane : planes()) {
    const PlaneReference r = derive_plane(plane, smoke);
    std::printf("    {%s, %s, %s, %s, %s, %s, %s, %s, %s, %s, %s, %s, %s},  // %s\n",
                u(r.sessions).c_str(), u(r.established).c_str(),
                u(r.completed).c_str(), u(r.dns_failures).c_str(),
                u(r.connect_failures).c_str(), u(r.syn_retransmissions).c_str(),
                u(r.sessions_with_retransmission).c_str(), u(r.miss_events).c_str(),
                u(r.miss_drops).c_str(), u(r.encapsulated).c_str(),
                d(r.t_dns_mean_ms).c_str(), d(r.t_setup_mean_ms).c_str(),
                d(r.t_setup_p99_ms).c_str(), plane.name);
  }
  std::printf("};\n");
}

void check_references(bool smoke) {
  const char* size = smoke ? "smoke" : "full";
  expect(derive_soak(smoke) == (smoke ? kSoakSmoke : kSoakFull),
         std::string("dfz-soak pinned values (") + size + ")");
  expect(derive_cold(smoke) == (smoke ? kColdSmoke : kColdFull),
         std::string("dfz-cold pinned values (") + size + ")");
  const PlaneReference* pinned = smoke ? kPlanesSmoke : kPlanesFull;
  for (std::size_t p = 0; p < planes().size(); ++p) {
    expect(derive_plane(planes()[p], smoke) == pinned[p],
           std::string("lisp-planes pinned values, plane ") + planes()[p].name +
               " (" + size + ")");
  }
}

/// Runs one workload at smoke size and checks the contract of its result.
void check_smoke_run(const char* name, RunResult (*run)(const RunOptions&),
                     std::uint64_t seed, bool trace) {
  RunOptions options;
  options.seed = seed;
  options.seconds = 0.05;  // the minimum: one unit (two when traced)
  options.trace = trace;
  options.smoke = true;
  const RunResult result = run(options);
  const std::string what = std::string(name) + " seed " + std::to_string(seed) +
                           (trace ? " traced" : " untraced");
  for (const std::string& note : result.notes) {
    if (note.rfind("CHECK FAILED", 0) == 0) std::printf("  %s: %s\n", what.c_str(), note.c_str());
  }
  expect(result.correct && result.failed == 0 && result.attempted > 0,
         what + ": output checks");
  for (const char* metric : {"setup_s", "work_per_s", "op_ms_p50", "op_ms_p95"}) {
    const auto it = result.end_to_end.find(metric);
    expect(it != result.end_to_end.end() && it->second.value > 0.0,
           what + ": end-to-end " + metric + " missing or 0");
  }
  if (trace) {
    expect(result.per_layer.count("trace.overhead_pct") == 1,
           what + ": tracing overhead not reported");
    expect(result.per_layer.size() >= 10, what + ": per-layer metrics missing");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = argc > 1 && std::strcmp(argv[1], "--full") == 0;
  if (argc > 1 && std::strcmp(argv[1], "--print-reference") == 0) {
    std::printf("// BEGIN PINNED (regenerate with perfbench_selftest --print-reference)\n");
    print_soak("kSoakFull", derive_soak(false));
    print_soak("kSoakSmoke", derive_soak(true));
    print_cold("kColdFull", derive_cold(false));
    print_cold("kColdSmoke", derive_cold(true));
    print_planes("kPlanesFull", false);
    print_planes("kPlanesSmoke", true);
    std::printf("// END PINNED\n");
    return 0;
  }

  check_references(/*smoke=*/true);
  if (full) check_references(/*smoke=*/false);
  for (const std::uint64_t seed : {kDefaultSeed, std::uint64_t{2}}) {
    for (const bool trace : {false, true}) {
      check_smoke_run("dfz-soak", run_dfz_soak, seed, trace);
      check_smoke_run("dfz-cold", run_dfz_cold, seed, trace);
      check_smoke_run("lisp-planes", run_lisp_planes, seed, trace);
    }
  }
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
