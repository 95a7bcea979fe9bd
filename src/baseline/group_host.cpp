#include "baseline/group_host.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace express::baseline {

GroupHost::GroupHost(net::Network& network, net::NodeId id)
    : net::Node(network, id) {
  if (network.topology().interface_count(id) != 1) {
    throw std::logic_error("group hosts are single-homed in this simulator");
  }
  stats_ = scope().bind<GroupHostStats>({
      {&GroupHostStats::data_received, "baseline.group_host.data_received"},
      {&GroupHostStats::data_filtered, "baseline.group_host.data_filtered"},
      {&GroupHostStats::unwanted_data, "baseline.group_host.unwanted_data"},
      {&GroupHostStats::bytes_on_last_hop,
       "baseline.group_host.bytes_on_last_hop"},
      {&GroupHostStats::data_sent, "baseline.group_host.data_sent"},
  });
}

void GroupHost::set_data_handler(DataHandler handler) {
  if (data_handler_) {
    throw std::logic_error("host data handler already installed");
  }
  data_handler_ = std::move(handler);
}

void GroupHost::join_group(ip::Address group, ip::Protocol control) {
  groups_.insert(group);
  scope().emit(network().now(), obs::TraceType::kSubscriptionChange,
               std::uint64_t{group.value()}, 1);
  send_membership(MsgType::kMembershipReport, group, control);
}

void GroupHost::leave_group(ip::Address group, ip::Protocol control) {
  groups_.erase(group);
  scope().emit(network().now(), obs::TraceType::kSubscriptionChange,
               std::uint64_t{group.value()}, 0);
  filters_.erase(group);
  send_membership(MsgType::kLeaveGroup, group, control);
}

void GroupHost::send_membership(MsgType type, ip::Address group,
                                ip::Protocol control) {
  Msg msg;
  msg.type = type;
  msg.group = group;
  net::Packet packet;
  packet.src = address();
  packet.dst = group;
  packet.protocol = control;
  packet.payload = encode(msg);
  network().send_on_interface(id(), 0, packet);
}

void GroupHost::set_include_filter(ip::Address group,
                                   std::vector<ip::Address> sources) {
  auto& set = filters_[group];
  set.clear();
  for (ip::Address s : sources) set.insert(s);
}

void GroupHost::send_to_group(ip::Address group, std::uint32_t bytes,
                              std::uint64_t sequence) {
  net::Packet packet;
  packet.src = address();
  packet.dst = group;
  packet.protocol = ip::Protocol::kUdp;
  packet.data_bytes = bytes;
  packet.sequence = sequence;
  ++stats_->data_sent;
  network().send_on_interface(id(), 0, packet);
}

void GroupHost::handle_packet(const net::Packet& packet,
                              std::uint32_t in_iface) {
  (void)in_iface;
  if (!packet.dst.is_multicast()) return;
  if (packet.protocol != ip::Protocol::kUdp) return;  // control is not ours
  stats_->bytes_on_last_hop += packet.wire_size();
  if (!groups_.contains(packet.dst)) {
    ++stats_->unwanted_data;
    return;
  }
  if (auto it = filters_.find(packet.dst);
      it != filters_.end() && !it->second.contains(packet.src)) {
    ++stats_->data_filtered;  // IGMPv3 include-filter drop, at the host
    return;
  }
  ++stats_->data_received;
  if (data_handler_) data_handler_(packet, network().now());
}

}  // namespace express::baseline
