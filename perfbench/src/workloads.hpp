// workloads.hpp — the benchmark's three workloads and the library inputs
// each one generates from its seed.
//
// The input constructors are shared with the self-test (tests/selftest.cpp),
// which feeds the very same configs to the library's own reference paths
// (routing::run_churn_plan, routing::run_dfz_study, scenario::Experiment)
// to derive the pinned values in reference.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "reference.hpp"
#include "routing/dfz_study.hpp"
#include "scenario/experiment.hpp"

namespace perfbench {

/// The seed whose protocol totals are pinned in reference.hpp.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// dfz-soak: legacy BGP, de-aggregation 1, policy off, one shard.
[[nodiscard]] lispcp::routing::DfzStudyConfig soak_config(std::uint64_t seed,
                                                          bool smoke);
/// The churn plan one soak pass replays (whole-site flaps, 120 s mean
/// spacing, 30 s hold).
[[nodiscard]] lispcp::routing::ChurnPlan soak_plan(std::uint64_t seed,
                                                   bool smoke);

/// dfz-cold: de-aggregation 4, Gao-Rexford roles, customer-origin import
/// maps on half the transits, 4 shards.
[[nodiscard]] lispcp::routing::DfzStudyConfig cold_config(std::uint64_t seed,
                                                          bool smoke);

/// lisp-planes: the compared control planes, in run order.
struct Plane {
  const char* name;  ///< metric suffix: pce, alt, ms
  lispcp::mapping::ControlPlaneKind kind;
};
[[nodiscard]] const std::vector<Plane>& planes();
[[nodiscard]] lispcp::scenario::ExperimentConfig plane_config(
    lispcp::mapping::ControlPlaneKind kind, std::uint64_t seed, bool smoke);
/// The pinned fields of an ExperimentSummary.
[[nodiscard]] PlaneReference plane_values(
    const lispcp::scenario::ExperimentSummary& summary);

[[nodiscard]] RunResult run_dfz_soak(const RunOptions& options);
[[nodiscard]] RunResult run_dfz_cold(const RunOptions& options);
[[nodiscard]] RunResult run_lisp_planes(const RunOptions& options);

}  // namespace perfbench
