#include "lisp/tunnel_router.hpp"

#include <algorithm>

#include "net/ports.hpp"

namespace lispcp::lisp {

TunnelRouter::TunnelRouter(sim::Network& network, std::string name,
                           net::Ipv4Address rloc, XtrConfig config)
    : Node(network, std::move(name)),
      config_(std::move(config)),
      cache_(config_.cache_capacity) {
  add_address(rloc);
  if (config_.rloc_probing && config_.itr_role) {
    sim().schedule_daemon(config_.probe_interval, [this] { probe_cycle(); });
  }
}

bool TunnelRouter::is_local_eid(net::Ipv4Address a) const noexcept {
  for (const auto& p : config_.local_eid_prefixes) {
    if (p.contains(a)) return true;
  }
  return false;
}

bool TunnelRouter::is_eid(net::Ipv4Address a) const noexcept {
  for (const auto& p : config_.eid_space) {
    if (p.contains(a)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Forwarding-path hooks
// ---------------------------------------------------------------------------

sim::Node::TransitAction TunnelRouter::transit(net::Packet& packet) {
  if (!config_.itr_role) return TransitAction::kForward;
  // Only plain (not already encapsulated) packets toward remote EIDs get
  // LISP treatment; RLOC-space traffic (DNS, PCE, tunnels) forwards natively.
  if (packet.lisp() != nullptr) return TransitAction::kForward;
  const auto dst = packet.outer_ip().dst;
  if (!is_eid(dst) || is_local_eid(dst)) return TransitAction::kForward;

  handle_outbound(std::move(packet));
  return TransitAction::kConsumed;
}

void TunnelRouter::handle_outbound(net::Packet packet) {
  ++stats_.data_seen;
  const auto src = packet.outer_ip().src;
  const auto dst = packet.outer_ip().dst;

  // Step-7b per-flow tuples take precedence: they carry the PCE/IRC chosen
  // one-way tunnel, including an outer source RLOC that may not be ours.
  if (const FlowMapping* fm = find_flow_mapping(src, dst)) {
    ++stats_.flow_tuple_used;
    encapsulate_and_send(std::move(packet), fm->source_rloc, fm->destination_rloc,
                         /*lsb=*/~std::uint32_t{0});
    return;
  }

  if (auto entry = cache_.lookup(dst, sim().now())) {
    std::uint16_t sport = 0;
    std::uint16_t dport = 0;
    if (const auto* tcp = packet.tcp()) {
      sport = tcp->src_port;
      dport = tcp->dst_port;
    } else if (const auto* udp = packet.udp()) {
      sport = udp->src_port;
      dport = udp->dst_port;
    }
    const auto chosen = entry->select_rloc(flow_hash(src, dst, sport, dport));
    if (chosen) {
      encapsulate_and_send(std::move(packet), rloc(), chosen->address,
                           entry->locator_status_bits());
      return;
    }
    // All locators down: fall through to the miss path (re-resolution).
  }

  on_miss(std::move(packet), dst);
}

void TunnelRouter::encapsulate_and_send(net::Packet inner,
                                        net::Ipv4Address outer_src,
                                        net::Ipv4Address outer_dst,
                                        std::uint32_t lsb) {
  ++stats_.encapsulated;
  net::LispHeader shim;
  shim.nonce = static_cast<std::uint32_t>(nonces_.next() & 0xFFFFFF);
  shim.locator_status_bits = lsb;
  net::UdpHeader udp;
  // Source port derived from the inner flow for core ECMP friendliness.
  udp.src_port = static_cast<std::uint16_t>(
      0xF000 | (inner.outer_ip().src.value() & 0x0FFF));
  udp.dst_port = net::ports::kLispData;
  net::Ipv4Header outer;
  outer.src = outer_src;
  outer.dst = outer_dst;
  outer.protocol = net::IpProto::kUdp;
  outer.ttl = 64;

  inner.push_outer(shim);
  inner.push_outer(udp);
  inner.push_outer(outer);
  sim().schedule(config_.processing_delay,
                 [this, p = std::move(inner)]() mutable { send(std::move(p)); });
}

void TunnelRouter::on_miss(net::Packet packet, net::Ipv4Address eid) {
  const bool can_pull = resolution_ != nullptr && resolution_->pull();
  auto it = pending_.find(eid);
  const bool new_resolution = (it == pending_.end());
  if (new_resolution) {
    ++stats_.miss_events;
    PendingResolution pending;
    pending.started = sim().now();
    it = pending_.emplace(eid, std::move(pending)).first;
    if (can_pull) {
      send_map_request(eid, it->second);
    }
  }

  switch (config_.miss_policy) {
    case MissPolicy::kDrop:
      ++stats_.miss_dropped;
      network().drop(sim::DropReason::kMappingMiss, packet);
      break;
    case MissPolicy::kQueue:
      if (it->second.queue.size() >= config_.queue_capacity_per_eid) {
        ++stats_.queue_overflow_drops;
        network().drop(sim::DropReason::kMappingMiss, packet);
      } else {
        ++stats_.miss_queued;
        it->second.queue.push_back(QueuedPacket{std::move(packet), sim().now()});
      }
      break;
    case MissPolicy::kForwardOverlay:
      forward_via_overlay(std::move(packet));
      break;
  }

  // Without any resolution path (NERD between pushes, or a PCE push that has
  // not arrived yet), the pending entry would leak; time it out.
  if (new_resolution && !can_pull) {
    it->second.timer = sim().schedule(config_.queue_timeout, [this, eid] {
      auto found = pending_.find(eid);
      if (found == pending_.end()) return;
      PendingResolution timed_out = std::move(found->second);
      pending_.erase(found);
      finish_pending(std::move(timed_out), /*resolved=*/false);
    });
  }
}

void TunnelRouter::finish_pending(PendingResolution pending, bool resolved) {
  pending.timer.cancel();
  if (resolved) {
    for (auto& queued : pending.queue) {
      ++stats_.queue_flushed;
      queue_delay_.add_duration(sim().now() - queued.enqueued);
      handle_outbound(std::move(queued.packet));
    }
  } else {
    for (auto& queued : pending.queue) {
      ++stats_.queue_timeout_drops;
      network().drop(sim::DropReason::kMappingMiss, queued.packet);
    }
  }
  for (auto& observer : pending.observers) observer(resolved);
}

void TunnelRouter::send_map_request(net::Ipv4Address eid,
                                    PendingResolution& pending) {
  pending.nonce = nonces_.next();
  resolution_->send_map_request(*this, eid, pending.nonce, pending.retries);
  pending.timer = sim().schedule(config_.request_timeout,
                                 [this, eid] { on_request_timeout(eid); });
}

void TunnelRouter::emit_map_request(net::Ipv4Address target,
                                    net::Ipv4Address eid, std::uint64_t nonce,
                                    bool record_route) {
  ++stats_.map_requests_sent;
  std::shared_ptr<const MapRequest> request =
      std::make_shared<MapRequest>(nonce, eid, rloc(), record_route);
  if (record_route) {
    // Seed the recorded path with ourselves so the relayed reply's final
    // hop knows where to deliver it (CONS semantics).
    request = request->with_hop(rloc());
  }
  send(net::Packet::udp(rloc(), target, net::ports::kLispControl,
                        net::ports::kLispControl, std::move(request)));
}

void TunnelRouter::on_request_timeout(net::Ipv4Address eid) {
  auto it = pending_.find(eid);
  if (it == pending_.end()) return;
  PendingResolution& pending = it->second;
  if (pending.retries < config_.max_request_retries) {
    ++pending.retries;
    ++stats_.map_request_retries;
    send_map_request(eid, pending);
    return;
  }
  // Give up: drain the queue as mapping-miss drops.
  PendingResolution abandoned = std::move(pending);
  pending_.erase(it);
  finish_pending(std::move(abandoned), /*resolved=*/false);
}

void TunnelRouter::forward_via_overlay(net::Packet packet) {
  const auto target =
      resolution_ != nullptr
          ? resolution_->data_forward_target(*this, packet.outer_ip().dst)
          : std::nullopt;
  if (!target.has_value()) {
    ++stats_.miss_dropped;
    network().drop(sim::DropReason::kMappingMiss, packet);
    return;
  }
  ++stats_.overlay_data_forwarded;
  // IP-in-IP toward the overlay attachment; overlay routers re-tunnel it
  // hop by hop toward the registering ETR.
  net::Ipv4Header outer;
  outer.src = rloc();
  outer.dst = *target;
  outer.protocol = net::IpProto::kIpInIp;
  packet.push_outer(outer);
  sim().schedule(config_.processing_delay,
                 [this, p = std::move(packet)]() mutable { send(std::move(p)); });
}

void TunnelRouter::on_map_reply(const MapReply& reply) {
  ++stats_.map_replies_received;
  cache_.insert(reply.entry(), sim().now());

  // Find the pending resolution this answers (nonce match).
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->second.nonce != reply.nonce()) continue;
    PendingResolution pending = std::move(it->second);
    pending_.erase(it);
    finish_pending(std::move(pending), /*resolved=*/true);
    return;
  }
}

// ---------------------------------------------------------------------------
// Delivery (control messages and tunnel termination)
// ---------------------------------------------------------------------------

void TunnelRouter::deliver(net::Packet packet) {
  const auto& ip = packet.outer_ip();

  if (ip.protocol == net::IpProto::kIpInIp) {
    if (config_.etr_role) {
      handle_overlay_data(std::move(packet));
    } else {
      Node::deliver(std::move(packet));
    }
    return;
  }

  const auto* udp = packet.udp();
  if (udp == nullptr) {
    Node::deliver(std::move(packet));
    return;
  }

  switch (udp->dst_port) {
    case net::ports::kLispData:
      if (config_.etr_role) {
        handle_lisp_data(std::move(packet));
        return;
      }
      break;
    case net::ports::kLispControl: {
      if (auto reply = packet.payload_as<MapReply>()) {
        if (config_.itr_role) {
          on_map_reply(*reply);
          return;
        }
      } else if (auto request = packet.payload_as<MapRequest>()) {
        if (config_.etr_role) {
          handle_map_request(packet, *request);
          return;
        }
      } else if (auto probe = packet.payload_as<RlocProbe>()) {
        handle_probe(packet, *probe);
        return;
      }
      break;
    }
    case net::ports::kPcePush:
    case net::ports::kEtrSync: {
      if (auto flow_push = packet.payload_as<FlowMappingPush>()) {
        handle_flow_push(*flow_push);
        return;
      }
      break;
    }
    case net::ports::kNerd: {
      if (auto entry_push = packet.payload_as<MapPush>()) {
        handle_entry_push(*entry_push);
        return;
      }
      break;
    }
    default:
      break;
  }
  Node::deliver(std::move(packet));
}

void TunnelRouter::handle_lisp_data(net::Packet packet) {
  // The outer source RLOC is all gleaning needs of the stripped headers.
  const net::Ipv4Address source_rloc = packet.outer_ip().src;
  packet.pop_outer();  // outer IPv4
  packet.pop_outer();  // UDP
  packet.pop_outer();  // LISP shim
  ++stats_.decapsulated;

  const auto inner_dst = packet.inner_ip().dst;
  if (!is_local_eid(inner_dst)) {
    // Mis-delivered tunnel (stale mapping after TE moves); count and drop.
    ++stats_.not_local_after_decap;
    network().drop(sim::DropReason::kNoRoute, packet);
    return;
  }

  glean(source_rloc, packet);

  sim().schedule(config_.processing_delay,
                 [this, p = std::move(packet)]() mutable { send(std::move(p)); });
}

void TunnelRouter::handle_overlay_data(net::Packet packet) {
  packet.pop_outer();  // strip the overlay IP-in-IP header
  ++stats_.decapsulated;
  const auto inner_dst = packet.inner_ip().dst;
  if (!is_local_eid(inner_dst)) {
    ++stats_.not_local_after_decap;
    network().drop(sim::DropReason::kNoRoute, packet);
    return;
  }
  sim().schedule(config_.processing_delay,
                 [this, p = std::move(packet)]() mutable { send(std::move(p)); });
}

void TunnelRouter::glean(net::Ipv4Address source_rloc, const net::Packet& inner) {
  const auto source_eid = inner.inner_ip().src;
  if (!is_eid(source_eid) || is_local_eid(source_eid)) return;

  const auto key = net::pair_key(inner.inner_ip().dst, source_eid);
  // "First" also covers a changed outer source RLOC mid-flow: when the
  // remote domain re-optimises its ingress (new RLOC_S in its Step-7b
  // tuples), the change must propagate through the same multicast path.
  const auto seen = seen_reverse_flows_.find(key);
  const bool first =
      seen == seen_reverse_flows_.end() || seen->second != source_rloc;
  seen_reverse_flows_[key] = source_rloc;

  if (config_.glean_on_decap) {
    // Vanilla LISP: cache ES/32 -> RLOC_S so return traffic needs no
    // two-way resolution — forcing it back through the sender's ITR (§1,
    // third weakness).
    MapEntry gleaned;
    gleaned.eid_prefix = net::Ipv4Prefix::host(source_eid);
    gleaned.rlocs = {Rloc{source_rloc, 1, 100, true}};
    gleaned.ttl_seconds = 60;
    cache_.insert(gleaned, sim().now());
    ++stats_.gleaned;
  }

  if (reverse_hook_) {
    // Reverse tuple for the return flow (inner dst -> inner src): the local
    // egress RLOC is left unset for the control plane to choose.
    FlowMapping reverse;
    reverse.source_eid = inner.inner_ip().dst;
    reverse.destination_eid = source_eid;
    reverse.source_rloc = net::Ipv4Address();  // chosen by PCE/IRC
    reverse.destination_rloc = source_rloc;
    reverse_hook_(*this, reverse, first);
  }
}

void TunnelRouter::handle_map_request(const net::Packet& packet,
                                      const MapRequest& request) {
  (void)packet;
  const MapEntry* match = nullptr;
  for (const auto& entry : config_.site_mappings) {
    if (entry.eid_prefix.contains(request.target_eid())) {
      if (match == nullptr ||
          entry.eid_prefix.length() > match->eid_prefix.length()) {
        match = &entry;
      }
    }
  }
  if (match == nullptr) return;  // not authoritative; ignore
  ++stats_.map_requests_answered;

  if (request.record_route() && !request.path().empty()) {
    // CONS: reply retraces the recorded overlay path.
    auto reply = std::make_shared<MapReply>(request.nonce(), *match,
                                            request.path());
    const auto next_hop = request.path().back();
    auto popped = reply->with_path_popped();
    sim().schedule(config_.processing_delay, [this, next_hop, popped] {
      send(net::Packet::udp(rloc(), next_hop, net::ports::kLispControl,
                            net::ports::kLispControl, popped));
    });
  } else {
    // ALT: reply goes straight back to the requesting ITR's RLOC.
    auto reply = std::make_shared<MapReply>(request.nonce(), *match);
    const auto to = request.reply_to_rloc();
    sim().schedule(config_.processing_delay, [this, to, reply] {
      send(net::Packet::udp(rloc(), to, net::ports::kLispControl,
                            net::ports::kLispControl, reply));
    });
  }
}

void TunnelRouter::handle_flow_push(const FlowMappingPush& push) {
  ++stats_.flow_pushes_received;
  for (const auto& mapping : push.mappings()) {
    install_flow_mapping(mapping);
  }
}

void TunnelRouter::handle_entry_push(const MapPush& push) {
  ++stats_.entry_pushes_received;
  if (push.generation() != 0 && push.generation() < highest_push_generation_) {
    return;  // stale replay
  }
  highest_push_generation_ = std::max(highest_push_generation_, push.generation());
  for (const auto& entry : push.entries()) {
    install_mapping(entry);
  }
}

// ---------------------------------------------------------------------------
// Control-plane surface
// ---------------------------------------------------------------------------

void TunnelRouter::install_mapping(const MapEntry& entry) {
  cache_.insert(entry, sim().now());
  // A freshly pushed mapping resolves any outstanding miss for that prefix.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (!entry.eid_prefix.contains(it->first)) {
      ++it;
      continue;
    }
    PendingResolution pending = std::move(it->second);
    it = pending_.erase(it);
    finish_pending(std::move(pending), /*resolved=*/true);
  }
}

void TunnelRouter::install_flow_mapping(const FlowMapping& mapping) {
  const auto key = net::pair_key(mapping.source_eid, mapping.destination_eid);
  auto it = flow_table_.find(key);
  if (it != flow_table_.end() && it->second.version > mapping.version) {
    return;  // keep the newer tuple
  }
  flow_table_[key] = mapping;

  // Flush any resolution waiting on this destination EID for this flow.
  auto pending_it = pending_.find(mapping.destination_eid);
  if (pending_it != pending_.end()) {
    PendingResolution pending = std::move(pending_it->second);
    pending_.erase(pending_it);
    finish_pending(std::move(pending), /*resolved=*/true);
  }
}

const FlowMapping* TunnelRouter::find_flow_mapping(
    net::Ipv4Address src_eid, net::Ipv4Address dst_eid) const {
  auto it = flow_table_.find(net::pair_key(src_eid, dst_eid));
  return it == flow_table_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Flow-aggregate surface
// ---------------------------------------------------------------------------

const MapEntry* TunnelRouter::aggregate_lookup(net::Ipv4Address eid,
                                               std::uint64_t flows) {
  return cache_.lookup_batch(eid, flows, sim().now());
}

void TunnelRouter::aggregate_resolve(net::Ipv4Address eid,
                                     AggregateObserver observer) {
  const bool can_pull = resolution_ != nullptr && resolution_->pull();
  auto it = pending_.find(eid);
  if (it == pending_.end()) {
    ++stats_.miss_events;
    PendingResolution pending;
    pending.started = sim().now();
    it = pending_.emplace(eid, std::move(pending)).first;
    if (can_pull) {
      send_map_request(eid, it->second);
    } else {
      // Push-only planes: wait for the push, give up after queue_timeout —
      // same lifecycle on_miss() gives a packet-mode episode.
      it->second.timer = sim().schedule(config_.queue_timeout, [this, eid] {
        auto found = pending_.find(eid);
        if (found == pending_.end()) return;
        PendingResolution timed_out = std::move(found->second);
        pending_.erase(found);
        finish_pending(std::move(timed_out), /*resolved=*/false);
      });
    }
  }
  it->second.observers.push_back(std::move(observer));
}

void TunnelRouter::aggregate_account(const AggregateCounts& counts) noexcept {
  stats_.data_seen += counts.data_seen;
  stats_.encapsulated += counts.encapsulated;
  stats_.decapsulated += counts.decapsulated;
  stats_.miss_dropped += counts.miss_dropped;
  stats_.miss_queued += counts.miss_queued;
  stats_.queue_flushed += counts.queue_flushed;
  stats_.queue_overflow_drops += counts.queue_overflow_drops;
  stats_.queue_timeout_drops += counts.queue_timeout_drops;
  stats_.overlay_data_forwarded += counts.overlay_data_forwarded;
  stats_.entry_pushes_received += counts.entry_pushes_received;
}

void TunnelRouter::aggregate_queue_delay(sim::SimDuration delay,
                                         std::uint64_t flows) {
  queue_delay_.add_n(delay.us(), flows);
}

// ---------------------------------------------------------------------------
// RLOC probing (draft §6.3)
// ---------------------------------------------------------------------------

void TunnelRouter::probe_cycle() {
  // Working set: every locator referenced by the cache or by flow tuples.
  auto targets = cache_.distinct_rlocs();
  for (const auto& [key, tuple] : flow_table_) {
    (void)key;
    if (std::find(targets.begin(), targets.end(), tuple.destination_rloc) ==
        targets.end()) {
      targets.push_back(tuple.destination_rloc);
    }
  }
  for (auto rloc_addr : targets) {
    if (rloc_addr == rloc()) continue;  // never probe ourselves
    if (probe_states_[rloc_addr].outstanding_nonce != 0) continue;  // in flight
    send_probe(rloc_addr);
  }
  sim().schedule_daemon(config_.probe_interval, [this] { probe_cycle(); });
}

void TunnelRouter::send_probe(net::Ipv4Address rloc_addr) {
  ProbeState& state = probe_states_[rloc_addr];
  state.outstanding_nonce = nonces_.next();
  ++stats_.probes_sent;
  auto probe = std::make_shared<RlocProbe>(state.outstanding_nonce,
                                           /*is_reply=*/false);
  send(net::Packet::udp(rloc(), rloc_addr, net::ports::kLispControl,
                        net::ports::kLispControl, std::move(probe)));
  const auto nonce = state.outstanding_nonce;
  // Daemon: probing a dead RLOC must not keep an unbounded run() alive.
  state.timeout =
      sim().schedule_daemon(config_.probe_timeout, [this, rloc_addr, nonce] {
        on_probe_timeout(rloc_addr, nonce);
      });
}

void TunnelRouter::on_probe_timeout(net::Ipv4Address rloc_addr,
                                    std::uint64_t nonce) {
  auto it = probe_states_.find(rloc_addr);
  if (it == probe_states_.end() || it->second.outstanding_nonce != nonce) return;
  ProbeState& state = it->second;
  state.outstanding_nonce = 0;
  ++state.consecutive_losses;
  if (state.considered_up &&
      state.consecutive_losses >= config_.probe_down_threshold) {
    state.considered_up = false;
    ++stats_.rlocs_marked_down;
    cache_.set_rloc_reachability_all(rloc_addr, false);
  }
}

void TunnelRouter::handle_probe(const net::Packet& packet,
                                const RlocProbe& probe) {
  if (!probe.is_reply()) {
    // Any tunnel router answers probes for its own RLOC.
    ++stats_.probes_answered;
    auto reply = std::make_shared<RlocProbe>(probe.nonce(), /*is_reply=*/true);
    const auto to = packet.outer_ip().src;
    sim().schedule(config_.processing_delay, [this, to, reply] {
      send(net::Packet::udp(rloc(), to, net::ports::kLispControl,
                            net::ports::kLispControl, reply));
    });
    return;
  }
  // A reply: find the probed locator by nonce.
  const auto from = packet.outer_ip().src;
  auto it = probe_states_.find(from);
  if (it == probe_states_.end() || it->second.outstanding_nonce != probe.nonce()) {
    return;  // stale or unsolicited
  }
  ProbeState& state = it->second;
  state.timeout.cancel();
  state.outstanding_nonce = 0;
  state.consecutive_losses = 0;
  ++stats_.probe_replies_received;
  if (!state.considered_up) {
    state.considered_up = true;
    ++stats_.rlocs_marked_up;
    cache_.set_rloc_reachability_all(from, true);
  }
}

bool TunnelRouter::rloc_reachable(net::Ipv4Address rloc_addr) const {
  auto it = probe_states_.find(rloc_addr);
  return it == probe_states_.end() || it->second.considered_up;
}

void TunnelRouter::set_rloc_reachability(net::Ipv4Address rloc_addr,
                                         bool reachable) {
  cache_.set_rloc_reachability_all(rloc_addr, reachable);
  // Keep our authoritative site mappings consistent so future Map-Replies
  // advertise the change.
  for (auto& entry : config_.site_mappings) {
    for (auto& r : entry.rlocs) {
      if (r.address == rloc_addr) r.reachable = reachable;
    }
  }
}

}  // namespace lispcp::lisp
