// The EXPRESS data plane (paper §3.4).
//
// ForwardingPlane owns one node's FIB and its replication counters and
// implements the two EXPRESS data-path operations:
//
//   * forward()       — the EXPRESS fast path: exact-match (S, E)
//                       lookup, RPF check (inside Fib::lookup), then
//                       replication to the outgoing set with TTL
//                       decrement and arrival-interface exclusion.
//   * relay_subcast() — §2.1 subcast: a source-validated inner packet
//                       injected into the channel tree at this router.
//                       No TTL decrement and no arrival exclusion — the
//                       decapsulated packet starts fresh here.
//
// Both end in net::replicate, the copy loop the PIM-SM, CBT and DVMRP
// baselines call directly with the outgoing sets they compute per
// packet; they hold no FIB and so no plane.
//
// Module seam: the plane knows packets, the FIB, and interfaces. It
// knows nothing of ECMP messages, subscriptions, keys, counting, or
// transports — those layers *install* FIB entries; this layer only
// consumes them. The router control plane talks to the plane through
// fib() upserts/erases; nothing flows the other way.
#pragma once

#include <cstdint>

#include "express/fib.hpp"
#include "net/network.hpp"
#include "net/replicate.hpp"
#include "obs/obs.hpp"

namespace express {

struct ForwardingStats {
  std::uint64_t data_packets_forwarded = 0;  ///< input packets replicated
  std::uint64_t data_copies_sent = 0;        ///< total output copies
  std::uint64_t subcasts_relayed = 0;
};

class ForwardingPlane {
 public:
  ForwardingPlane(net::Network& network, net::NodeId node)
      : network_(&network), node_(node),
        fib_(scope()),
        stats_(scope().bind<ForwardingStats>({
            {&ForwardingStats::data_packets_forwarded,
             "express.fwd.data_packets_forwarded"},
            {&ForwardingStats::data_copies_sent,
             "express.fwd.data_copies_sent"},
            {&ForwardingStats::subcasts_relayed,
             "express.fwd.subcasts_relayed"},
        })) {}

  /// EXPRESS fast path: look up (packet.src, packet.dst), replicate to
  /// the outgoing set (minus the arrival interface), decrementing TTL.
  /// Packets matching no entry or failing RPF are counted and dropped
  /// by the FIB. Returns true when the packet was forwarded.
  bool forward(const net::Packet& packet, std::uint32_t in_iface);

  /// §2.1 subcast: inject `packet.inner` (already validated as coming
  /// from the channel source) into the tree at this node. The inner
  /// packet is replicated to the full outgoing set as-is.
  bool relay_subcast(const net::Packet& packet);

  [[nodiscard]] Fib& fib() { return fib_; }
  [[nodiscard]] const Fib& fib() const { return fib_; }

  /// Copy of the registry-bound block (see DESIGN.md §11).
  [[nodiscard]] ForwardingStats stats() const { return *stats_; }

 private:
  [[nodiscard]] obs::Scope scope() const {
    return network_->node_scope(node_);
  }

  net::Network* network_;
  net::NodeId node_;
  Fib fib_;
  ForwardingStats* stats_;  ///< registry-owned block
};

}  // namespace express
