// bgp_world.hpp — shared BGP test fixtures: the DFZ study's originations,
// a fabric converged from them, and a fingerprint of its observable state.
#pragma once

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "routing/as_graph.hpp"
#include "routing/bgp.hpp"
#include "routing/dfz_study.hpp"

namespace lispcp::routing {

/// Serialises everything observable about a converged fabric — stats,
/// Loc-RIBs with provenance and full paths, local-prefs, communities, and
/// the convergence instant.  Equal fingerprints mean equal results down to
/// the last counter.
inline std::string fingerprint(const BgpFabric& fabric) {
  std::ostringstream os;
  os << "t=" << fabric.now().ns() << "\n";
  for (AsNumber asn : fabric.graph().ases()) {
    const BgpSpeaker& speaker = fabric.speaker(asn);
    const BgpSpeakerStats& stats = speaker.stats();
    os << asn.to_string() << " " << stats.updates_sent << "/"
       << stats.updates_received << "/" << stats.routes_announced << "/"
       << stats.routes_withdrawn << "/" << stats.loops_rejected << "/"
       << stats.best_changes << "/" << stats.exports_filtered << "\n";
    for (const net::Ipv4Prefix& prefix : speaker.rib_prefixes()) {
      const auto* best = speaker.best(prefix);
      os << "  " << prefix.to_string() << " <- "
         << best->learned_from.to_string() << " k"
         << static_cast<int>(best->neighbor_kind) << " lp"
         << best->local_pref << " p";
      for (AsNumber hop : best->as_path()) os << " " << hop.value();
      os << " c";
      for (policy::Community c : best->communities()) os << " " << c;
      os << "\n";
    }
  }
  return os.str();
}

/// The DFZ study's originations: every provider announces its aggregate,
/// every stub its site block split `deagg` ways.
inline std::vector<RouteDelta> originations(const AsGraph& graph,
                                            std::size_t deagg = 1) {
  std::vector<RouteDelta> batch;
  for (AsNumber asn : graph.ases()) {
    if (graph.tier(asn) != AsTier::kStub) {
      batch.push_back(RouteDelta::announce(asn, provider_aggregate(asn)));
    }
  }
  const auto stubs = graph.ases_of_tier(AsTier::kStub);
  for (std::size_t i = 0; i < stubs.size(); ++i) {
    for (const net::Ipv4Prefix& prefix : stub_site_prefixes(i, deagg)) {
      batch.push_back(RouteDelta::announce(stubs[i], prefix));
    }
  }
  return batch;
}

/// A fabric over `graph` converged from originations(graph).
inline std::unique_ptr<BgpFabric> converge(
    const AsGraph& graph, std::size_t shards,
    std::shared_ptr<const policy::PolicyTable> policy = nullptr,
    std::size_t workers = 1) {
  BgpConfig config;
  config.shards = shards;
  config.shard_workers = workers;
  config.policy = std::move(policy);
  auto fabric = std::make_unique<BgpFabric>(graph, config);
  fabric->apply(originations(graph));
  fabric->run_to_convergence();
  return fabric;
}

}  // namespace lispcp::routing
