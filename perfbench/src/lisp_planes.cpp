// lisp_planes.cpp — the paper's push-vs-pull comparison: one spec and seed
// run under the PCE control plane and two pull planes (LISP+ALT drop-on-miss
// and the Map-Server system), driven through scenario::Experiment and read
// back through the stats() of the lisp, dns, core, mapping and sim layers.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "workloads.hpp"

namespace perfbench {

namespace scenario = lispcp::scenario;
using lispcp::mapping::ControlPlaneKind;
using lispcp::sim::SimDuration;

const std::vector<Plane>& planes() {
  static const std::vector<Plane> kPlanes{
      {"pce", ControlPlaneKind::kPce},
      {"alt", ControlPlaneKind::kAltDrop},
      {"ms", ControlPlaneKind::kMapServer},
  };
  return kPlanes;
}

scenario::ExperimentConfig plane_config(ControlPlaneKind kind,
                                        std::uint64_t seed, bool smoke) {
  scenario::ExperimentConfig config;
  config.spec = lispcp::topo::InternetSpec::preset(kind);
  config.spec.domains = smoke ? 16 : 256;
  config.spec.hosts_per_domain = 2;
  config.spec.providers_per_domain = 2;
  config.spec.cache_capacity = 64;
  config.spec.mapping_ttl_seconds = 60;
  config.spec.seed = seed;
  config.mode = scenario::TrafficMode::kAllToAll;
  config.traffic.sessions_per_second = smoke ? 40 : 400;
  config.traffic.duration = SimDuration::seconds(smoke ? 10 : 60);
  config.traffic.zipf_alpha = 0.9;
  config.drain = SimDuration::seconds(smoke ? 10 : 20);
  return config;
}

PlaneReference plane_values(const scenario::ExperimentSummary& s) {
  return {s.sessions,     s.established,         s.completed,
          s.dns_failures, s.connect_failures,    s.syn_retransmissions,
          s.sessions_with_retransmission, s.miss_events, s.miss_drops,
          s.encapsulated, s.t_dns_mean_ms, s.t_setup_mean_ms, s.t_setup_p99_ms};
}

namespace {

/// Layer counters of one built-and-run Internet, summed over its nodes.
enum Stat : std::size_t {
  kSimEvents, kDelivered, kForwarded, kDrops,
  kCacheLookups, kCacheHits, kCacheEvictions,
  kEncapsulated, kMissEvents, kMissDrops, kQueueFlushed,
  kMapRequests, kMapRetries, kMapReplies,
  kControlMessages, kDatabaseRecords,
  kDnsClientQueries, kDnsUpstreamQueries, kDnsCacheHits, kDnsCacheMisses,
  kPceRepliesSnooped, kPceTuplesPushed, kPcePortP, kPceUncorrelated,
  kStatCount
};
using LayerStats = std::array<std::uint64_t, kStatCount>;

LayerStats& operator+=(LayerStats& a, const LayerStats& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  return a;
}

LayerStats collect(lispcp::topo::Internet& net) {
  LayerStats s{};
  s[kSimEvents] = net.sim().events_processed();
  const auto& c = net.network().counters();
  s[kDelivered] = c.delivered;
  s[kForwarded] = c.forwarded;
  s[kDrops] = c.drops_no_route + c.drops_ttl + c.drops_queue + c.drops_loss +
              c.drops_link_down + c.drops_mapping_miss;
  const auto mapping = net.mapping_system().stats();
  s[kControlMessages] = mapping.control_messages;
  s[kDatabaseRecords] = mapping.database_records;
  for (const auto& dom : net.domains()) {
    for (const auto* xtr : dom.xtrs) {
      const auto& x = xtr->stats();
      const auto& cache = xtr->cache().stats();
      s[kCacheLookups] += cache.lookups;
      s[kCacheHits] += cache.hits;
      s[kCacheEvictions] += cache.evictions;
      s[kEncapsulated] += x.encapsulated;
      s[kMissEvents] += x.miss_events;
      s[kMissDrops] += x.miss_dropped + x.queue_overflow_drops + x.queue_timeout_drops;
      s[kQueueFlushed] += x.queue_flushed;
      s[kMapRequests] += x.map_requests_sent;
      s[kMapRetries] += x.map_request_retries;
      s[kMapReplies] += x.map_replies_received;
    }
    const auto& r = dom.resolver->stats();
    s[kDnsClientQueries] += r.client_queries;
    s[kDnsUpstreamQueries] += r.upstream_queries;
    s[kDnsCacheHits] += r.cache_hits;
    s[kDnsCacheMisses] += r.cache_misses;
    if (dom.pce != nullptr) {
      const auto& p = dom.pce->stats();
      s[kPceRepliesSnooped] += p.dns_replies_snooped;
      s[kPceTuplesPushed] += p.tuples_pushed;
      s[kPcePortP] += p.port_p_received;
      s[kPceUncorrelated] += p.uncorrelated_replies;
    }
  }
  return s;
}

}  // namespace

RunResult run_lisp_planes(const RunOptions& options) {
  RunResult result;
  Tracer tracer(options.trace);
  const auto& plane_list = planes();
  const PlaneReference* ref = nullptr;
  if (options.seed == kDefaultSeed) {
    ref = options.smoke ? kPlanesSmoke : kPlanesFull;
  }

  // Every round repeats the same three experiments: a plane's time is the
  // median of its rounds, and percentiles are taken across the planes.  A
  // traced run alternates untraced and traced rounds.
  const std::size_t n = plane_list.size();
  std::vector<std::optional<PlaneReference>> first(n);
  std::vector<std::vector<double>> run_ms(n), t_run_ms(n);
  std::vector<double> setup_s, t_build_ms;
  std::optional<LayerStats> layers;
  std::uint64_t sessions = 0, established = 0;

  // Set-up alone (the three Experiment constructions), repeated before the
  // measured rounds so its median rests on more than a few samples.
  for (int i = 0; i < 4; ++i) {
    double build_s = 0.0;
    for (const Plane& plane : plane_list) {
      const auto c0 = Clock::now();
      Tracer::Scope s(tracer, "scenario.Experiment");
      scenario::Experiment experiment(plane_config(plane.kind, options.seed, options.smoke));
      s.close();
      build_s += seconds_between(c0, Clock::now());
    }
    setup_s.push_back(build_s);
    t_build_ms.push_back(build_s * 1e3);
  }

  const int min_rounds = options.trace ? 4 : 2;
  const auto start = Clock::now();
  std::uint32_t op = 0;
  for (int round = 0;
       round < min_rounds || seconds_between(start, Clock::now()) < options.seconds;
       ++round) {
    const bool recording = options.trace && round % 2 == 1;
    tracer.set_recording(recording);
    double build_s = 0.0;
    std::uint64_t round_sessions = 0;
    LayerStats round_layers{};
    std::uint64_t round_established = 0;
    for (std::size_t p = 0; p < plane_list.size(); ++p) {
      const Plane& plane = plane_list[p];
      tracer.set_op(op++);
      ++result.attempted;
      Tracer::Scope span(tracer, plane.name);
      const auto c0 = Clock::now();
      std::optional<scenario::Experiment> experiment;
      {
        Tracer::Scope s(tracer, "scenario.Experiment");
        experiment.emplace(plane_config(plane.kind, options.seed, options.smoke));
      }
      const auto c1 = Clock::now();
      scenario::ExperimentSummary summary;
      {
        Tracer::Scope s(tracer, "scenario.Experiment.run");
        summary = experiment->run();
      }
      const auto c2 = Clock::now();
      span.close();
      const LayerStats stats = collect(experiment->internet());
      span.counter("sim_events", static_cast<double>(stats[kSimEvents]));
      span.counter("sessions", static_cast<double>(summary.sessions));
      span.counter("miss_events", static_cast<double>(summary.miss_events));

      build_s += seconds_between(c0, c1);
      round_sessions += summary.sessions;
      round_established += summary.established;
      round_layers += stats;
      (recording ? t_run_ms : run_ms)[p].push_back(seconds_between(c1, c2) * 1e3);

      // Output checks: the push plane never misses and establishes every
      // session; each pull plane really resolved on demand; every round
      // reproduces the first; the default seed matches the pinned summary.
      bool ok = summary.sessions > 0;
      if (plane.kind == ControlPlaneKind::kPce) {
        ok = ok && summary.miss_events == 0 && summary.miss_drops == 0 &&
             summary.established == summary.sessions;
      } else {
        ok = ok && summary.miss_events > 0;
      }
      const PlaneReference values = plane_values(summary);
      if (first[p]) ok = ok && values == *first[p];
      first[p] = values;
      if (ref != nullptr) ok = ok && values == ref[p];
      if (!ok) {
        ++result.failed;
        char line[240];
        std::snprintf(line, sizeof line,
                      "plane %s round %d: sessions=%llu established=%llu "
                      "miss_events=%llu miss_drops=%llu",
                      plane.name, round,
                      static_cast<unsigned long long>(summary.sessions),
                      static_cast<unsigned long long>(summary.established),
                      static_cast<unsigned long long>(summary.miss_events),
                      static_cast<unsigned long long>(summary.miss_drops));
        result.fail(line);
      }
      Tracer::Scope teardown(tracer, "teardown");
      experiment.reset();
    }
    t_build_ms.push_back(build_s * 1e3);
    if (!recording) setup_s.push_back(build_s);
    // Every layer counter repeats exactly, traced or not.
    if (layers && *layers != round_layers) {
      result.fail("round " + std::to_string(round) + ": layer counters differ from round 0");
    }
    layers = round_layers;
    sessions = round_sessions;
    established = round_established;
  }

  auto& e2e = result.end_to_end;
  e2e["setup_s"] = {median(setup_s), "s", setup_s.size()};
  const auto total = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return sum;
  };
  const std::vector<double> plane_ms = medians(run_ms);
  e2e["work_per_s"] = {ratio(static_cast<double>(sessions), total(plane_ms) / 1e3),
                       "1/s", run_ms.front().size()};
  e2e["op_ms_p50"] = {median(plane_ms), "ms", plane_ms.size()};
  e2e["op_ms_p95"] = {quantile(plane_ms, 0.95), "ms", plane_ms.size()};
  result.notes.push_back(
      "lisp-planes: work_per_s = sessions_per_s (simulated sessions per host "
      "second of Experiment::run, summed over pce, alt, ms); an operation is "
      "one plane's Experiment::run, timed as the median of its rounds");
  result.notes.push_back(sample_line("median run_ms (pce alt ms)", plane_ms));

  if (options.trace) {
    auto& m = result.per_layer;
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    const LayerStats& l = *layers;
    m["topo.build_ms"] = {median(t_build_ms), "ms", t_build_ms.size()};
    for (std::size_t p = 0; p < n; ++p) {
      m[std::string("sim.run_ms.") + plane_list[p].name] = {median(t_run_ms[p]), "ms",
                                                            t_run_ms[p].size()};
    }
    m["sim.events"] = {u(l[kSimEvents]), "count"};
    const std::vector<double> t_plane_ms = medians(t_run_ms);
    m["sim.ns_per_event"] = {ratio(total(t_plane_ms) * 1e6, u(l[kSimEvents])), "ns"};
    m["sim.network.delivered"] = {u(l[kDelivered]), "count"};
    m["sim.network.forwarded"] = {u(l[kForwarded]), "count"};
    m["sim.network.drops"] = {u(l[kDrops]), "count"};
    m["lisp.map_cache.lookups"] = {u(l[kCacheLookups]), "count"};
    m["lisp.map_cache.hit_ratio"] = {ratio(u(l[kCacheHits]), u(l[kCacheLookups])),
                                     "ratio"};
    m["lisp.map_cache.evictions"] = {u(l[kCacheEvictions]), "count"};
    m["lisp.itr.encapsulated"] = {u(l[kEncapsulated]), "count"};
    m["lisp.itr.miss_events"] = {u(l[kMissEvents]), "count"};
    m["lisp.itr.miss_drops"] = {u(l[kMissDrops]), "count"};
    m["lisp.itr.queue_flushed"] = {u(l[kQueueFlushed]), "count"};
    m["lisp.resolution.map_requests"] = {u(l[kMapRequests]), "count"};
    m["lisp.resolution.retries"] = {u(l[kMapRetries]), "count"};
    m["lisp.resolution.reply_ratio"] = {ratio(u(l[kMapReplies]), u(l[kMapRequests])),
                                        "ratio"};
    m["mapping.control_messages"] = {u(l[kControlMessages]), "count"};
    m["mapping.database_records"] = {u(l[kDatabaseRecords]), "count"};
    m["dns.client_queries"] = {u(l[kDnsClientQueries]), "count"};
    m["dns.upstream_queries"] = {u(l[kDnsUpstreamQueries]), "count"};
    m["dns.cache_hit_ratio"] = {
        ratio(u(l[kDnsCacheHits]), u(l[kDnsCacheHits] + l[kDnsCacheMisses])),
        "ratio"};
    m["core.pce.replies_snooped"] = {u(l[kPceRepliesSnooped]), "count"};
    m["core.pce.tuples_pushed"] = {u(l[kPceTuplesPushed]), "count"};
    m["core.pce.uncorrelated_ratio"] = {ratio(u(l[kPceUncorrelated]), u(l[kPcePortP])),
                                        "ratio"};
    m["workload.sessions"] = {u(sessions), "count"};
    m["workload.established"] = {u(established), "count"};
    m["trace.overhead_pct"] = {
        (ratio(total(t_plane_ms), total(plane_ms)) - 1.0) * 100.0, "%",
        t_run_ms.front().size()};
    add_span_summary(tracer, result);
    if (!options.trace_path.empty() && !tracer.write_jsonl(options.trace_path)) {
      result.fail("cannot write " + options.trace_path);
    }
  }
  return result;
}

}  // namespace perfbench
