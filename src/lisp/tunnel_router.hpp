// tunnel_router.hpp — the LISP tunnel router (xTR).
//
// One class implements both roles of draft-farinacci-lisp-08, enabled
// independently so a topology can deploy dedicated ITRs and ETRs (as drawn
// in the paper's Fig. 1) or combined xTRs:
//
//   ITR role — intercepts outbound packets whose destination is a *remote*
//   EID, resolves the EID-to-RLOC mapping (map-cache, pushed flow tuples, or
//   an on-demand Map-Request into the configured overlay) and encapsulates.
//   The behaviour on a cache miss is the crux of the paper's claim (i) and
//   is selectable: drop (vanilla LISP), queue (palliative), or forward the
//   data through the mapping overlay (the "data over control plane"
//   palliative the paper criticises).
//
//   ETR role — terminates LISP tunnels addressed to this router's RLOC,
//   decapsulates and forwards the inner packet into the site, answers
//   Map-Requests for the site's EID prefixes, and learns reverse mappings
//   from arriving data (gleaning), optionally reporting them to the control
//   plane via a hook (the PCE control plane uses this for the ETR-multicast
//   completion of the two-way mapping, paper §2 last paragraph).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "lisp/control.hpp"
#include "lisp/map_cache.hpp"
#include "lisp/map_entry.hpp"
#include "lisp/resolution.hpp"
#include "metrics/histogram.hpp"
#include "net/flow.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"

namespace lispcp::lisp {

/// What the ITR does with data packets that miss the map-cache while the
/// mapping is being resolved (paper §1's three alternatives).
enum class MissPolicy {
  kDrop,            ///< vanilla LISP: initial packets are lost
  kQueue,           ///< palliative: buffer at the ITR until the reply arrives
  kForwardOverlay,  ///< palliative: tunnel data through the mapping overlay
};

struct XtrConfig {
  bool itr_role = true;
  bool etr_role = true;

  /// EID prefixes of this router's own site (never encapsulated toward).
  std::vector<net::Ipv4Prefix> local_eid_prefixes;
  /// The global EID superblocks: destinations inside these (and outside the
  /// local prefixes) require LISP encapsulation; everything else is plain
  /// RLOC-space traffic and forwards natively.
  std::vector<net::Ipv4Prefix> eid_space;

  /// Map-cache capacity in entries (0 = unlimited, as a NERD database).
  std::size_t cache_capacity = 0;

  MissPolicy miss_policy = MissPolicy::kDrop;

  /// ETR: install gleaned reverse mappings into the local map-cache
  /// (vanilla LISP behaviour that forces ingress==egress for return flows).
  bool glean_on_decap = true;

  /// Mappings this ETR is authoritative for (answers Map-Requests).
  std::vector<MapEntry> site_mappings;

  /// kQueue parameters.
  std::size_t queue_capacity_per_eid = 16;
  sim::SimDuration queue_timeout = sim::SimDuration::millis(3000);

  /// Map-Request retransmission.
  sim::SimDuration request_timeout = sim::SimDuration::millis(1000);
  int max_request_retries = 2;

  /// Forwarding/encapsulation processing latency ("line rate" per the
  /// paper's assumption; keep small but nonzero).
  sim::SimDuration processing_delay = sim::SimDuration::micros(10);

  /// RLOC-probing (draft §6.3): when enabled, the ITR probes every RLOC it
  /// is actively using and flips reachability in its map-cache after
  /// `probe_down_threshold` consecutive losses (probing resumes so the
  /// locator can come back).
  bool rloc_probing = false;
  sim::SimDuration probe_interval = sim::SimDuration::seconds(10);
  sim::SimDuration probe_timeout = sim::SimDuration::seconds(2);
  int probe_down_threshold = 3;
};

/// Stat deltas booked in one shot by the flow-aggregate workload engine
/// (counts in, counts out — no per-packet net::Packet allocation).  Only the
/// counters the closed-form session model can attribute are present.
struct AggregateCounts {
  std::uint64_t data_seen = 0;
  std::uint64_t encapsulated = 0;
  std::uint64_t decapsulated = 0;
  std::uint64_t miss_dropped = 0;
  std::uint64_t miss_queued = 0;
  std::uint64_t queue_flushed = 0;
  std::uint64_t queue_overflow_drops = 0;
  std::uint64_t queue_timeout_drops = 0;
  std::uint64_t overlay_data_forwarded = 0;
  std::uint64_t entry_pushes_received = 0;
};

struct XtrStats {
  // ITR side
  std::uint64_t data_seen = 0;
  std::uint64_t encapsulated = 0;
  std::uint64_t flow_tuple_used = 0;  ///< encapsulations driven by Step-7b tuples
  std::uint64_t miss_events = 0;      ///< first-packet resolution misses
  std::uint64_t miss_dropped = 0;
  std::uint64_t miss_queued = 0;
  std::uint64_t queue_overflow_drops = 0;
  std::uint64_t queue_timeout_drops = 0;
  std::uint64_t queue_flushed = 0;
  std::uint64_t overlay_data_forwarded = 0;
  std::uint64_t map_requests_sent = 0;
  std::uint64_t map_request_retries = 0;
  std::uint64_t map_replies_received = 0;
  std::uint64_t flow_pushes_received = 0;
  std::uint64_t entry_pushes_received = 0;
  // ETR side
  std::uint64_t decapsulated = 0;
  std::uint64_t gleaned = 0;
  std::uint64_t map_requests_answered = 0;
  std::uint64_t not_local_after_decap = 0;
  // RLOC probing
  std::uint64_t probes_sent = 0;
  std::uint64_t probe_replies_received = 0;
  std::uint64_t probes_answered = 0;
  std::uint64_t rlocs_marked_down = 0;
  std::uint64_t rlocs_marked_up = 0;
};

// `final` so calls through concrete TunnelRouter pointers (the aggregate
// engine's batch path, the topology builders) devirtualize.
class TunnelRouter final : public sim::Node {
 public:
  /// Notified when a resolution episode this observer joined completes:
  /// `resolved` is true when a mapping arrived (reply or push), false when
  /// the episode gave up (retries exhausted / push timeout).
  using AggregateObserver = std::function<void(bool resolved)>;

  /// Invoked by the ETR role when a data packet reveals a reverse mapping:
  /// the tuple maps the *return* flow (inner dst -> inner src) onto
  /// (egress RLOC to be chosen locally, outer source RLOC of the sender).
  /// `first_packet` is true the first time this flow is seen and again
  /// whenever the sender's outer source RLOC changes (a remote TE move).
  using ReverseMappingHook =
      std::function<void(TunnelRouter& etr, const FlowMapping& reverse,
                         bool first_packet)>;

  TunnelRouter(sim::Network& network, std::string name, net::Ipv4Address rloc,
               XtrConfig config);

  // -- Node interface -------------------------------------------------------
  TransitAction transit(net::Packet& packet) override;
  void deliver(net::Packet packet) override;

  // -- Control-plane surface ------------------------------------------------
  /// Installs a mapping record into the map-cache (push distribution).
  void install_mapping(const MapEntry& entry);

  /// Installs a Step-7b per-flow tuple; consulted before the map-cache.
  void install_flow_mapping(const FlowMapping& mapping);

  [[nodiscard]] const FlowMapping* find_flow_mapping(net::Ipv4Address src_eid,
                                                     net::Ipv4Address dst_eid) const;

  void set_reverse_mapping_hook(ReverseMappingHook hook) {
    reverse_hook_ = std::move(hook);
  }

  /// Sets the mappings this ETR answers Map-Requests for (assigned once the
  /// site is registered in the mapping registry).
  void set_site_mappings(std::vector<MapEntry> mappings) {
    config_.site_mappings = std::move(mappings);
  }

  /// Installs the miss-resolution behaviour (the mapping system's side of
  /// the ITR seam).  No strategy behaves as push-only: misses wait for a
  /// push and time out otherwise.
  void set_resolution_strategy(std::unique_ptr<ResolutionStrategy> strategy) {
    resolution_ = std::move(strategy);
  }
  [[nodiscard]] const ResolutionStrategy* resolution() const noexcept {
    return resolution_.get();
  }

  /// Sends one Map-Request toward `target` (called by pull strategies; the
  /// packet mechanics and stats stay inside the router).
  void emit_map_request(net::Ipv4Address target, net::Ipv4Address eid,
                        std::uint64_t nonce, bool record_route);

  // -- Flow-aggregate surface (workload::FlowAggregateEngine) ---------------
  /// Batch map-cache probe: one LPM walk, `flows` lookups' worth of stats.
  /// Does not start a resolution — pair with aggregate_resolve() on miss.
  /// The returned view is valid until the cache's next mutating call.
  [[nodiscard]] const MapEntry* aggregate_lookup(net::Ipv4Address eid,
                                                 std::uint64_t flows);

  /// Joins (or starts) the resolution episode for `eid` exactly as a missed
  /// packet would — Map-Request, retry timers and push timeouts are the same
  /// simulator events packet mode runs — and calls `observer` on completion.
  void aggregate_resolve(net::Ipv4Address eid, AggregateObserver observer);

  /// Books pre-attributed packet counters (closed-form session model).
  void aggregate_account(const AggregateCounts& counts) noexcept;

  /// Records `flows` buffered-SYN residence times of `delay` each.
  void aggregate_queue_delay(sim::SimDuration delay, std::uint64_t flows);

  /// Marks an RLOC up/down in every cached entry (reachability propagation).
  void set_rloc_reachability(net::Ipv4Address rloc, bool reachable);

  /// True iff the prober currently considers `rloc` reachable (always true
  /// for never-probed locators).
  [[nodiscard]] bool rloc_reachable(net::Ipv4Address rloc) const;

  // -- Introspection ---------------------------------------------------------
  [[nodiscard]] net::Ipv4Address rloc() const { return address(); }
  [[nodiscard]] MapCache& cache() noexcept { return cache_; }
  [[nodiscard]] const MapCache& cache() const noexcept { return cache_; }
  [[nodiscard]] const XtrStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const XtrConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t flow_table_size() const noexcept {
    return flow_table_.size();
  }
  /// Queueing delay experienced by packets buffered during resolution (us).
  [[nodiscard]] const metrics::Histogram& queue_delay() const noexcept {
    return queue_delay_;
  }

  [[nodiscard]] bool is_local_eid(net::Ipv4Address a) const noexcept;
  [[nodiscard]] bool is_eid(net::Ipv4Address a) const noexcept;

 private:
  struct QueuedPacket {
    net::Packet packet;
    sim::SimTime enqueued;
  };
  struct PendingResolution {
    std::uint64_t nonce = 0;
    std::deque<QueuedPacket> queue;
    int retries = 0;
    sim::EventHandle timer;
    sim::SimTime started;
    std::vector<AggregateObserver> observers;  ///< aggregate-mode joiners
  };

  // ITR role
  void handle_outbound(net::Packet packet);
  void encapsulate_and_send(net::Packet inner, net::Ipv4Address outer_src,
                            net::Ipv4Address outer_dst, std::uint32_t lsb);
  void on_miss(net::Packet packet, net::Ipv4Address eid);
  /// Single exit point of a resolution episode (reply, push, or give-up):
  /// flushes or drains the queued packets and notifies aggregate observers.
  /// Callers remove the entry from `pending_` first and pass it by value so
  /// re-entrant handle_outbound() calls see a consistent table.
  void finish_pending(PendingResolution pending, bool resolved);
  void send_map_request(net::Ipv4Address eid, PendingResolution& pending);
  void on_request_timeout(net::Ipv4Address eid);
  void on_map_reply(const MapReply& reply);
  void forward_via_overlay(net::Packet packet);

  // ETR role
  void handle_lisp_data(net::Packet packet);
  void handle_overlay_data(net::Packet packet);
  void handle_map_request(const net::Packet& packet, const MapRequest& request);
  void glean(net::Ipv4Address source_rloc, const net::Packet& inner);

  // Shared
  void handle_flow_push(const FlowMappingPush& push);
  void handle_entry_push(const MapPush& push);

  // RLOC probing
  void probe_cycle();
  void send_probe(net::Ipv4Address rloc);
  void on_probe_timeout(net::Ipv4Address rloc, std::uint64_t nonce);
  void handle_probe(const net::Packet& packet, const RlocProbe& probe);

  XtrConfig config_;
  MapCache cache_;
  XtrStats stats_;
  metrics::Histogram queue_delay_;
  std::unique_ptr<ResolutionStrategy> resolution_;
  std::unordered_map<std::uint64_t, FlowMapping> flow_table_;
  std::unordered_map<net::Ipv4Address, PendingResolution> pending_;
  /// Reverse-flow key -> last gleaned outer source RLOC (change detection).
  std::unordered_map<std::uint64_t, net::Ipv4Address> seen_reverse_flows_;
  ReverseMappingHook reverse_hook_;
  net::NonceSequence nonces_;
  std::uint64_t highest_push_generation_ = 0;

  struct ProbeState {
    std::uint64_t outstanding_nonce = 0;  ///< 0 = none in flight
    int consecutive_losses = 0;
    bool considered_up = true;
    sim::EventHandle timeout;
  };
  std::unordered_map<net::Ipv4Address, ProbeState> probe_states_;
};

}  // namespace lispcp::lisp
