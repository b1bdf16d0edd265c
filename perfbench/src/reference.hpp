// reference.hpp — pinned simulated results for the default seed.
//
// These are simulated statistics, not host timings: a change that only
// speeds up the simulator must leave every one identical.  Each value was
// derived from the library's own reference paths on the same inputs
// (routing::run_churn_plan on the soak plan, routing::run_dfz_study on the
// soak and cold configs, scenario::Experiment on each plane config);
// tests/selftest.cpp re-derives them and fails on any difference, and
// `perfbench_selftest --print-reference` prints this table afresh.
#pragma once

#include <cstdint>

namespace perfbench {

/// dfz-soak at the default seed.
struct SoakReference {
  // Initial convergence (the set-up), as run_dfz_study reports it.
  std::uint64_t init_updates;
  std::uint64_t init_records;  ///< announce records
  double init_converge_ms;
  // One pass over the flap plan, as run_churn_plan totals it.
  std::uint64_t pass_updates;
  std::uint64_t pass_records;  ///< announce + withdraw records
  std::uint64_t pass_engine_events;
  double pass_settle_ms;

  friend bool operator==(const SoakReference&, const SoakReference&) = default;
};

/// dfz-cold at the default seed, as run_dfz_study reports it.
struct ColdReference {
  std::uint64_t updates;
  std::uint64_t records;  ///< announce records
  double converge_ms;
  std::uint64_t dfz_table;
  std::uint64_t rib_entries;

  friend bool operator==(const ColdReference&, const ColdReference&) = default;
};

/// One plane of lisp-planes at the default seed (ExperimentSummary).
struct PlaneReference {
  std::uint64_t sessions;
  std::uint64_t established;
  std::uint64_t completed;
  std::uint64_t dns_failures;
  std::uint64_t connect_failures;
  std::uint64_t syn_retransmissions;
  std::uint64_t sessions_with_retransmission;
  std::uint64_t miss_events;
  std::uint64_t miss_drops;
  std::uint64_t encapsulated;
  double t_dns_mean_ms;
  double t_setup_mean_ms;
  double t_setup_p99_ms;

  friend bool operator==(const PlaneReference&, const PlaneReference&) = default;
};

// BEGIN PINNED (regenerate with perfbench_selftest --print-reference)
inline constexpr SoakReference kSoakFull{10862u, 2064209u, 671.242884, 1755788u, 1755788u, 3511732u, 296317.91084399994};
inline constexpr SoakReference kSoakSmoke{518u, 5084u, 672.12373000000002, 7508u, 7508u, 15044u, 29739.016750999996};
inline constexpr ColdReference kColdFull{10862u, 8171690u, 671.242884, 4014u, 4070196u};
inline constexpr ColdReference kColdSmoke{518u, 17420u, 672.12373000000002, 170u, 8500u};
inline constexpr PlaneReference kPlanesFull[3]{
    {24190u, 24190u, 24190u, 0u, 0u, 0u, 0u, 0u, 0u, 266090u, 88.242295421537804, 210.7446623744936, 307.69266499999998},  // pce
    {24190u, 24112u, 24112u, 0u, 0u, 16732u, 16627u, 17032u, 17093u, 265232u, 87.86578883923147, 2320.0974435210742, 3390.625},  // alt
    {24190u, 24114u, 24114u, 0u, 0u, 16736u, 16620u, 17039u, 17087u, 265254u, 87.865788827986492, 2325.0105107396957, 3390.625},  // ms
};
inline constexpr PlaneReference kPlanesSmoke[3]{
    {382u, 382u, 382u, 0u, 0u, 0u, 0u, 0u, 0u, 4202u, 70.542370238219931, 193.04404963612566, 307.38786099999999},  // pce
    {382u, 382u, 382u, 0u, 0u, 150u, 150u, 147u, 150u, 4202u, 70.218396075916303, 1370.7304538481671, 3306.7710940000002},  // alt
    {382u, 382u, 382u, 0u, 0u, 149u, 149u, 147u, 149u, 4202u, 70.218396075916303, 1362.8770507068061, 3306.7710940000002},  // ms
};
// END PINNED

}  // namespace perfbench
