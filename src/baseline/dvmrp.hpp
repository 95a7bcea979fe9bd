// DVMRP / PIM-DM-style broadcast-and-prune baseline.
//
// The paper dismisses this family for wide-area use: data for (S, G) is
// *flooded* along the RPF tree to every router in the domain, and
// routers with no downstream interest prune — so every router that the
// flood reaches holds (S, G) state whether or not it has subscribers,
// and silence costs bandwidth everywhere. This implementation exists so
// the benches can measure exactly that off-tree traffic and state
// against EXPRESS's subscription-only trees.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>

#include "baseline/group_router.hpp"
#include "baseline/wire.hpp"
#include "ip/channel.hpp"
#include "net/interface_set.hpp"
#include "net/network.hpp"
#include "sim/time.hpp"

namespace express::baseline {

struct DvmrpConfig {
  /// How long a received prune suppresses flooding on an interface
  /// before the flood (and re-pruning) resumes.
  sim::Duration prune_lifetime = sim::seconds(120);
};

struct DvmrpStats {
  std::uint64_t data_packets_forwarded = 0;
  std::uint64_t data_copies_sent = 0;
  std::uint64_t flood_copies = 0;   ///< copies sent to router links (speculative)
  std::uint64_t rpf_drops = 0;
  std::uint64_t prunes_sent = 0;
  std::uint64_t prunes_received = 0;
  std::uint64_t grafts_sent = 0;
  std::uint64_t grafts_received = 0;
};

class DvmrpRouter : public GroupRouter {
 public:
  DvmrpRouter(net::Network& network, net::NodeId id, DvmrpConfig config = {});

  void handle_packet(const net::Packet& packet, std::uint32_t in_iface) override;

  /// Copy of the registry-bound block (see DESIGN.md §11).
  [[nodiscard]] DvmrpStats stats() const { return *stats_; }
  /// (S,G) forwarding-cache entries — present at every router the flood
  /// reached, the group model's state-scaling problem.
  [[nodiscard]] std::size_t state_entries() const { return sg_.size(); }

 private:
  struct SgState {
    std::unordered_map<std::uint32_t, sim::Time> pruned_until;  ///< per iface
    bool prune_sent_upstream = false;
    sim::Time prune_expiry{};
  };

  void on_control(const Msg& msg, std::uint32_t in_iface);
  void forward_data(const net::Packet& packet, std::uint32_t in_iface);

  DvmrpConfig config_;
  DvmrpStats* stats_ = nullptr;  ///< registry-owned block
  std::unordered_map<ip::Address, net::InterfaceSet> members_;
  std::map<ip::ChannelId, SgState> sg_;  ///< keyed (S, G); grafts go in order
  /// Flood-minus-prunes set of the packet being forwarded, reused
  /// across packets.
  net::InterfaceSet oifs_;
};

}  // namespace express::baseline
