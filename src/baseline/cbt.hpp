// CBT baseline: core-based bidirectional shared trees.
//
// One tree per group rooted at a configured core; members join toward
// the core, and data flows *bidirectionally* on tree links — up toward
// the core and down every other branch — so a single (*, G) entry per
// on-tree router serves all senders. Off-tree senders unicast-
// encapsulate to the core. The paper's §4.4 comparison: transit through
// the core behaves like a session relay but without application control
// of its placement, and with no per-source escape hatch short of a new
// group.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "baseline/group_router.hpp"
#include "baseline/wire.hpp"
#include "ip/address.hpp"
#include "net/interface_set.hpp"
#include "net/network.hpp"

namespace express::baseline {

struct CbtConfig {
  ip::Address core;  ///< core router for all groups (static mapping)
};

struct CbtStats {
  std::uint64_t joins_sent = 0;
  std::uint64_t prunes_sent = 0;
  std::uint64_t data_copies_sent = 0;
  std::uint64_t encapsulated_to_core = 0;
  std::uint64_t decapsulated_at_core = 0;
  std::uint64_t drops = 0;
};

class CbtRouter : public GroupRouter {
 public:
  CbtRouter(net::Network& network, net::NodeId id, CbtConfig config);

  void handle_packet(const net::Packet& packet, std::uint32_t in_iface) override;

  /// Copy of the registry-bound block (see DESIGN.md §11).
  [[nodiscard]] CbtStats stats() const { return *stats_; }
  [[nodiscard]] bool is_core() const { return address() == config_.core; }
  [[nodiscard]] bool on_tree(ip::Address group) const {
    return trees_.contains(group);
  }
  /// One (*, G) entry per group — CBT's state economy.
  [[nodiscard]] std::size_t state_entries() const { return trees_.size(); }

 private:
  struct Tree {
    /// All tree interfaces: member hosts, downstream routers, and the
    /// upstream toward the core. Bidirectional: data arriving on any of
    /// them fans out to all the others.
    net::InterfaceSet ifaces;
    std::uint32_t upstream_iface = 0;
    bool has_upstream = false;
  };

  void on_control(const Msg& msg, std::uint32_t in_iface);
  void on_data(const net::Packet& packet, std::uint32_t in_iface);
  void inject(const net::Packet& packet, std::uint32_t except_iface);
  void join_toward_core(ip::Address group);

  CbtConfig config_;
  CbtStats* stats_ = nullptr;  ///< registry-owned block
  std::unordered_map<ip::Address, Tree> trees_;
};

}  // namespace express::baseline
