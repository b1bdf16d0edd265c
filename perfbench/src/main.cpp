// main.cpp — perfbench: one workload per process.
//
//   perfbench --workload dfz-soak|dfz-cold|lisp-planes --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--commit ID]
//
// Prints human-readable lines (host facts, every metric with its unit and
// sample count, check failures, span summaries), then as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones.  Exits 2 on bad arguments and 3 on a build that would
// measure a different program (assertions on, or a sanitizer).
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertionsOff = true;
#else
constexpr bool kAssertionsOff = false;
#endif

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "dfz-soak|dfz-cold|lisp-planes --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--commit ID]\n",
               why);
  return 2;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_metric(const char* kind, const std::string& name,
                  const perfbench::Metric& m) {
  std::printf("%-9s %-34s %18.6f %-6s (n=%zu)\n", kind, name.c_str(), m.value,
              m.unit.c_str(), m.samples);
}

void print_json_metrics(const std::map<std::string, perfbench::Metric>& metrics) {
  bool comma = false;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", comma ? ", " : "",
                name.c_str(), m.value, m.unit.c_str());
    comma = true;
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = value();
    if (v == nullptr) return usage(("missing value for " + arg).c_str());
    char* end = nullptr;
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(v, &end);
      have_seconds = *end == '\0' && options.seconds > 0.0;
    } else if (arg == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      options.trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--trace-out") {
      options.trace_path = v;
    } else if (arg == "--commit") {
      commit = v;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf(
      "host {\"nproc\": %u, \"compiler\": \"g++ %s\", \"build_type\": \"%s\", "
      "\"ndebug\": %s, \"sanitizer\": %s, \"commit\": \"%s\"}\n",
      nproc, __VERSION__, PERFBENCH_BUILD_TYPE, kAssertionsOff ? "true" : "false",
      kSanitized ? "true" : "false", commit.c_str());
  if (!kAssertionsOff || kSanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a build with "
                 "assertions on or a sanitizer (it measures a different "
                 "program); build with -DCMAKE_BUILD_TYPE=Release\n");
    return 3;
  }

  perfbench::RunResult result;
  try {
    if (workload == "dfz-soak") {
      result = perfbench::run_dfz_soak(options);
    } else if (workload == "dfz-cold") {
      result = perfbench::run_dfz_cold(options);
    } else if (workload == "lisp-planes") {
      result = perfbench::run_lisp_planes(options);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
  result.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB", 1};
  if (result.attempted == 0) result.fail("no operation ran");

  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  for (const auto& [name, m] : result.end_to_end) print_metric("e2e", name, m);
  for (const auto& [name, m] : result.per_layer) print_metric("layer", name, m);
  std::printf("error_rate %.6f (%llu failed / %llu attempted)\n",
              static_cast<double>(result.failed) /
                  static_cast<double>(result.attempted == 0 ? 1 : result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  print_json_metrics(options.trace ? result.per_layer : result.end_to_end);
  std::printf("}}\n");
  return 0;
}
