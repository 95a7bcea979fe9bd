// Group-model host: the any-source counterpart of ExpressHost.
//
// In the group model a host joins an address E and receives traffic
// from *every* sender to E — there is no source designation. That is
// precisely the weakness the paper's EXPRESS channel model removes;
// GroupHost makes it measurable. An optional IGMPv3-style include
// filter demonstrates the paper's §2.2.2 point: filtering happens at
// the receiver, after the unwanted traffic has already consumed the
// last-hop link.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "baseline/wire.hpp"
#include "express/host.hpp"
#include "ip/address.hpp"
#include "ip/header.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "sim/time.hpp"

namespace express::baseline {

struct GroupHostStats {
  std::uint64_t data_received = 0;       ///< delivered to the application
  std::uint64_t data_filtered = 0;       ///< arrived, dropped by IGMPv3 filter
  std::uint64_t unwanted_data = 0;       ///< arrived for a group never joined
  std::uint64_t bytes_on_last_hop = 0;   ///< all group bytes that hit this host
  std::uint64_t data_sent = 0;
};

class GroupHost : public net::Node {
 public:
  GroupHost(net::Network& network, net::NodeId id);

  void handle_packet(const net::Packet& packet, std::uint32_t in_iface) override;

  /// IGMP-style join/leave of group E (any-source).
  void join_group(ip::Address group, ip::Protocol control = ip::Protocol::kIgmp);
  void leave_group(ip::Address group, ip::Protocol control = ip::Protocol::kIgmp);

  /// IGMPv3-style include filter: deliver only these sources. The
  /// filter is host-local; traffic from other senders still crosses the
  /// last-hop link (counted in bytes_on_last_hop / data_filtered).
  void set_include_filter(ip::Address group,
                          std::vector<ip::Address> sources);

  /// Any host may send to any group — the group model's open-sender
  /// property (and its abuse vector).
  void send_to_group(ip::Address group, std::uint32_t bytes,
                     std::uint64_t sequence = 0);

  /// Invoked for every data packet delivered to the application (after
  /// the IGMPv3 filter). Same hook and type as ExpressHost's, so one
  /// express::DeliveryLog serves both host kinds; a second install throws
  /// std::logic_error.
  using DataHandler = ExpressHost::DataHandler;
  void set_data_handler(DataHandler handler);

  /// Copy of the registry-bound block (see DESIGN.md §11).
  [[nodiscard]] GroupHostStats stats() const { return *stats_; }

 private:
  /// Send a membership report or leave for `group` to the first hop.
  void send_membership(MsgType type, ip::Address group, ip::Protocol control);

  std::unordered_set<ip::Address> groups_;
  std::unordered_map<ip::Address, std::unordered_set<ip::Address>> filters_;
  DataHandler data_handler_;
  GroupHostStats* stats_ = nullptr;  ///< registry-owned block
};

}  // namespace express::baseline
