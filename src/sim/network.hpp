// network.hpp — the forwarding fabric: nodes, links, routes, delivery.
//
// A Network is a graph of Nodes joined by Links, with a per-node
// longest-prefix-match forwarding table.  The forwarding semantics encode
// the architectural premise of LISP (paper §1): only prefixes installed in a
// node's table are reachable from it, so an EID-addressed packet escaping
// into the transit core — where only RLOC prefixes are routed — is dropped
// as "no route", exactly the behaviour that makes a mapping system
// necessary.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "net/prefix_trie.hpp"
#include "sim/link.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace lispcp::sim {

/// Reasons the fabric can drop a packet; reported to the tracer and counted.
enum class DropReason {
  kNoRoute,      ///< no forwarding entry (e.g. EID in the RLOC-only core)
  kTtlExpired,
  kQueueFull,    ///< link drop-tail queue overflow
  kRandomLoss,
  kLinkDown,
  kMappingMiss,  ///< dropped at an ITR during EID-to-RLOC resolution (§1)
};

/// Observer interface for packet-level events; used by tests, the Fig. 1
/// walk-through and debugging.  All callbacks are optional.
class Tracer {
 public:
  virtual ~Tracer() = default;
  virtual void on_send(SimTime, const Node&, const net::Packet&) {}
  virtual void on_deliver(SimTime, const Node&, const net::Packet&) {}
  virtual void on_forward(SimTime, const Node&, const net::Packet&) {}
  virtual void on_consume(SimTime, const Node&, const net::Packet&) {}
  virtual void on_drop(SimTime, DropReason, const net::Packet&) {}
};

/// Aggregate fabric-level drop counters.
struct NetworkCounters {
  std::uint64_t delivered = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t consumed = 0;
  std::uint64_t drops_no_route = 0;
  std::uint64_t drops_ttl = 0;
  std::uint64_t drops_queue = 0;
  std::uint64_t drops_loss = 0;
  std::uint64_t drops_link_down = 0;
  std::uint64_t drops_mapping_miss = 0;
};

class Network {
 public:
  explicit Network(Simulator& sim) : sim_(sim) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] Simulator& sim() const noexcept { return sim_; }

  /// Constructs a node of type T in place; T's constructor must take
  /// (Network&, ...).  The network owns the node.
  template <typename T, typename... Args>
  T& make(Args&&... args) {
    auto node = std::make_unique<T>(*this, std::forward<Args>(args)...);
    T& ref = *node;
    owned_.push_back(std::move(node));
    return ref;
  }

  /// Called by Node's constructor; assigns the NodeId.
  NodeId register_node(Node* node);

  /// Called by Node::add_address to index the address for delivery.
  void register_address(net::Ipv4Address address, NodeId owner);

  [[nodiscard]] Node& node(NodeId id) const;
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Node owning `address`, if any.
  [[nodiscard]] Node* find_by_address(net::Ipv4Address address) const;

  /// Creates a bidirectional link between `a` and `b`.
  Link& connect(NodeId a, NodeId b, LinkConfig config = {});

  /// The link joining `a` and `b`; nullptr if they are not adjacent.
  [[nodiscard]] Link* link_between(NodeId a, NodeId b) const;

  [[nodiscard]] const std::vector<std::unique_ptr<Link>>& links() const noexcept {
    return links_;
  }

  /// Links incident to `node` (used by whole-node failure injection).
  [[nodiscard]] const std::vector<Link*>& links_of(NodeId node) const {
    return incident_.at(node.value());
  }

  /// Installs a forwarding entry at `at`: packets matching `prefix` go to
  /// adjacent node `next_hop`.
  void add_route(NodeId at, const net::Ipv4Prefix& prefix, NodeId next_hop);

  /// Installs a /32 route for `address`.
  void add_host_route(NodeId at, net::Ipv4Address address, NodeId next_hop) {
    add_route(at, net::Ipv4Prefix::host(address), next_hop);
  }

  /// Computes the shortest-path tree toward `target` (Dijkstra over link
  /// propagation delays) and installs a route for `prefix` at every node in
  /// `scope` (or every node when scope is empty).  This is how topology
  /// builders realise scoped reachability: EID prefixes routed only inside
  /// their domain, RLOC prefixes routed globally.
  void install_routes_toward(NodeId target, const net::Ipv4Prefix& prefix,
                             const std::unordered_set<NodeId>& scope = {});

  /// Shortest-path one-way delay between two nodes (propagation only), for
  /// computing the analytic OWD terms in the paper's formulas.  Returns
  /// nullopt if disconnected.
  [[nodiscard]] std::optional<SimDuration> path_delay(NodeId from, NodeId to) const;

  /// Entry point for packets originated by `at` (Node::send calls this).
  void inject(NodeId at, net::Packet packet);

  /// Called by Link when a packet reaches the far end.
  void arrive(NodeId at, net::Packet packet);

  /// Called by Link and the fabric when a packet dies.
  void drop(DropReason reason, const net::Packet& packet);

  void set_tracer(Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] Tracer* tracer() const noexcept { return tracer_; }

  [[nodiscard]] const NetworkCounters& counters() const noexcept { return counters_; }

  /// One-way propagation delay from `source` to every node (indexed by
  /// NodeId value; nullopt = unreachable).  One Dijkstra amortized over all
  /// targets — the flow-aggregate world builder asks for thousands of
  /// node pairs sharing a root, where per-pair path_delay() would be
  /// quadratic in the topology size.
  [[nodiscard]] std::vector<std::optional<SimDuration>> path_delays_from(
      NodeId source) const;

  /// Allocates an identifier unique within this network (session ids).
  /// Per-network rather than process-global so that concurrently running
  /// simulations (parallel sweep points) stay independent and each run's
  /// ids are deterministic regardless of what else ran in the process.
  [[nodiscard]] std::uint64_t next_uid() noexcept { return ++uid_counter_; }

 private:
  /// Forwards `packet` out of `at` using the node's LPM table.
  void forward(NodeId at, net::Packet packet, bool decrement_ttl);

  /// Dijkstra from `source`; returns (distance, link-toward-source) pairs.
  struct SptEntry {
    SimDuration distance;
    Link* toward_source = nullptr;  ///< first link of the path to `source`
    bool reachable = false;
  };
  [[nodiscard]] std::vector<SptEntry> shortest_paths_from(NodeId source) const;

  Simulator& sim_;
  std::vector<Node*> nodes_;
  std::vector<std::unique_ptr<Node>> owned_;
  std::vector<std::unique_ptr<Link>> links_;
  std::unordered_map<std::uint64_t, Link*> adjacency_;  // key: a<<32|b, a<b
  std::vector<std::vector<Link*>> incident_;            // per-node link list
  std::unordered_map<net::Ipv4Address, NodeId> address_index_;
  /// Per-node FIB (indexed by NodeId): prefix -> the link to the next hop,
  /// resolved once at install time so forwarding makes no adjacency lookup.
  std::vector<net::PrefixTrie<Link*>> tables_;
  Tracer* tracer_ = nullptr;
  NetworkCounters counters_;
  std::uint64_t uid_counter_ = 0;
};

}  // namespace lispcp::sim
