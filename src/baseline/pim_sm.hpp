// PIM-SM baseline: rendezvous-point shared trees with optional SPT
// switchover.
//
// The paper contrasts EXPRESS with PIM-SM on three axes the benches
// measure: (1) data detours through the network-selected RP (path
// stretch); (2) the register encapsulation triangle from the source's
// first hop to the RP; (3) the shared-tree-vs-source-tree state/delay
// tradeoff, which PIM resolves inside the network while EXPRESS leaves
// tree placement to the application (session relays). This is a
// functional subset: static RP, hard-state joins, (*,G) and (S,G)
// trees, Register/RegisterStop, and last-hop SPT switchover with
// RPT-prune.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "baseline/group_router.hpp"
#include "baseline/wire.hpp"
#include "ip/channel.hpp"
#include "net/interface_set.hpp"
#include "net/network.hpp"

namespace express::baseline {

struct PimConfig {
  ip::Address rp;  ///< rendezvous point for all groups (static mapping)
  /// Last-hop routers join the source tree after the first packet
  /// received on the shared tree, then RPT-prune the source.
  bool spt_switchover = false;
};

struct PimStats {
  std::uint64_t joins_star_g = 0;
  std::uint64_t joins_sg = 0;
  std::uint64_t prunes = 0;
  std::uint64_t registers_sent = 0;
  std::uint64_t registers_decapsulated = 0;
  std::uint64_t register_stops = 0;
  std::uint64_t data_copies_sent = 0;
  std::uint64_t drops = 0;
};

class PimSmRouter : public GroupRouter {
 public:
  PimSmRouter(net::Network& network, net::NodeId id, PimConfig config);

  void handle_packet(const net::Packet& packet, std::uint32_t in_iface) override;

  /// Copy of the registry-bound block (see DESIGN.md §11).
  [[nodiscard]] PimStats stats() const { return *stats_; }
  /// Multicast routing entries: (*,G) plus (S,G) — the state the paper's
  /// §5.1 argues shared trees do not actually save for single-source use.
  [[nodiscard]] std::size_t state_entries() const {
    return star_g_.size() + sg_.size();
  }
  [[nodiscard]] bool is_rp() const { return address() == config_.rp; }
  [[nodiscard]] bool on_shared_tree(ip::Address group) const {
    return star_g_.contains(group);
  }
  [[nodiscard]] bool on_source_tree(const ip::ChannelId& sg) const {
    return sg_.contains(sg);
  }

 private:
  struct StarG {
    net::InterfaceSet oifs;  ///< router + member-host ifaces
    bool joined_upstream = false;
  };
  struct Sg {
    net::InterfaceSet oifs;
    bool joined_upstream = false;
    /// SPT bit: native (S,G) data has arrived, so register copies are
    /// redundant and suppressed at the RP.
    bool native_seen = false;
    /// first-hop router address, learned from Register, for RegisterStop.
    ip::Address registering_router;
  };

  void on_control(const Msg& msg, std::uint32_t in_iface);
  void on_data(const net::Packet& packet, std::uint32_t in_iface);
  /// PIM-SM oif inheritance for `sg` into `oifs_`: the (*,G) oifs
  /// minus the branches RPT-pruned for this source, plus `source_tree`'s
  /// own oifs when given.
  const net::InterfaceSet& inherited_oifs(const ip::ChannelId& sg,
                                          const Sg* source_tree);
  void on_register(const net::Packet& packet);
  void deliver(const net::Packet& packet, const net::InterfaceSet& oifs,
               std::uint32_t in_iface);
  void join_shared_tree(ip::Address group);
  void join_source_tree(const ip::ChannelId& sg);
  /// Drop `iface` from (*,G); once the entry is empty, prune it toward
  /// the RP (unless this is the RP) and erase it.
  void drop_shared_branch(ip::Address group, std::uint32_t iface);
  void maybe_spt_switchover(const net::Packet& packet);
  [[nodiscard]] std::optional<net::NodeId> toward(ip::Address addr) const;
  [[nodiscard]] std::optional<std::uint32_t> rpf_iface_toward(
      ip::Address addr) const;

  PimConfig config_;
  PimStats* stats_ = nullptr;  ///< registry-owned block
  std::unordered_map<ip::Address, net::InterfaceSet> members_;
  std::unordered_map<ip::Address, StarG> star_g_;
  std::map<ip::ChannelId, Sg> sg_;
  /// (S,G) RPT-prunes received per shared-tree interface.
  std::unordered_map<ip::ChannelId, net::InterfaceSet> rpt_pruned_;
  /// Outgoing set of the packet being forwarded, reused across packets.
  net::InterfaceSet oifs_;
  /// First-hop state: sources told to stop registering (native path up).
  std::unordered_set<ip::ChannelId> register_stopped_;
  /// Last-hop state: sources already switched to the SPT.
  std::unordered_set<ip::ChannelId> switched_;
};

}  // namespace express::baseline
