#include "express/host.hpp"

#include <stdexcept>

#include "sim/det.hpp"

namespace express {

ExpressHost::ExpressHost(net::Network& network, net::NodeId id)
    : net::Node(network, id) {
  const auto& info = network.topology().node(id);
  if (info.kind != net::NodeKind::kHost) {
    throw std::logic_error("ExpressHost attached to a non-host node");
  }
  if (info.interfaces.size() != 1) {
    throw std::logic_error("hosts are single-homed in this simulator");
  }
  first_hop_ = network.topology().neighbor_via(id, 0);
  on_lan_ = network.topology().node(first_hop_).kind == net::NodeKind::kLanHub;
  scope_ = network.node_scope(id);
  stats_ = scope_.bind<HostStats>({
      {&HostStats::data_received, "express.host.data_received"},
      {&HostStats::data_sent, "express.host.data_sent"},
      {&HostStats::unwanted_data, "express.host.unwanted_data"},
      {&HostStats::counts_sent, "express.host.counts_sent"},
      {&HostStats::queries_answered, "express.host.queries_answered"},
      {&HostStats::control_bytes_sent, "express.host.control_bytes_sent"},
  });
}

ExpressHost::~ExpressHost() {
  // lint: order-independent (timer cancellations commute)
  for (auto& [seq, pending] : pending_queries_) pending.second.cancel();
}

// ---------------------------------------------------------------------
// Source side
// ---------------------------------------------------------------------

ip::ChannelId ExpressHost::allocate_channel() {
  // §2.2.1: allocation is purely host-local; the OS database is this
  // counter, and 2^24 channels are available before exhaustion.
  if (next_channel_index_ >= (1U << 24)) {
    throw std::runtime_error("per-host channel space exhausted");
  }
  return ip::ChannelId{address(),
                       ip::Address::single_source(next_channel_index_++)};
}

void ExpressHost::channel_key(const ip::ChannelId& channel, ip::ChannelKey key) {
  ecmp::KeyRegister msg;
  msg.channel = channel;
  msg.key = key;
  send_ecmp(msg);
}

void ExpressHost::send(const ip::ChannelId& channel, std::uint32_t bytes,
                       std::uint64_t sequence,
                       std::vector<std::uint8_t> header) {
  if (channel.source != address()) {
    throw std::logic_error("only the designated source may send to a channel");
  }
  net::Packet packet;
  packet.src = address();
  packet.dst = channel.dest;
  packet.protocol = ip::Protocol::kUdp;
  packet.data_bytes = bytes;
  packet.sequence = sequence;
  packet.payload = std::move(header);
  ++stats_->data_sent;
  network().send_on_interface(id(), 0, std::move(packet));
}

void ExpressHost::send_app_unicast(ip::Address dest, std::uint32_t bytes,
                                   std::uint64_t sequence,
                                   std::vector<std::uint8_t> header) {
  net::Packet packet;
  packet.src = address();
  packet.dst = dest;
  packet.protocol = ip::Protocol::kUdp;
  packet.data_bytes = bytes;
  packet.sequence = sequence;
  packet.payload = std::move(header);
  network().send_unicast(id(), std::move(packet));
}

void ExpressHost::subcast(const ip::ChannelId& channel, ip::Address relay_router,
                          std::uint32_t bytes, std::uint64_t sequence) {
  if (channel.source != address()) {
    throw std::logic_error("only the channel source may subcast");
  }
  auto inner = std::make_shared<net::Packet>();
  inner->src = address();
  inner->dst = channel.dest;
  inner->protocol = ip::Protocol::kUdp;
  inner->data_bytes = bytes;
  inner->sequence = sequence;

  net::Packet outer;
  outer.src = address();
  outer.dst = relay_router;
  outer.protocol = ip::Protocol::kIpInIp;
  outer.inner = std::move(inner);
  ++stats_->data_sent;
  network().send_unicast(id(), std::move(outer));
}

std::uint32_t ExpressHost::register_pending_query(
    sim::Duration timeout, std::function<void(CountResult)> done) {
  const std::uint32_t seq = next_query_seq_++;
  // Safety net: if the reply is lost (e.g. first-hop link failure),
  // resolve locally with a zero partial result after a grace period.
  auto guard = network().scheduler().schedule_after(
      timeout + timeout / 2 + sim::seconds(1), [this, seq]() {
        auto it = pending_queries_.find(seq);
        if (it == pending_queries_.end()) return;
        auto cb = std::move(it->second.first);
        pending_queries_.erase(it);
        if (cb) cb(CountResult{0, false});
      });
  pending_queries_.emplace(seq, std::make_pair(std::move(done), guard));
  return seq;
}

void ExpressHost::count_query(const ip::ChannelId& channel,
                              ecmp::CountId count_id, sim::Duration timeout,
                              std::function<void(CountResult)> done) {
  const std::uint32_t seq = register_pending_query(timeout, std::move(done));
  ecmp::CountQuery query;
  query.channel = channel;
  query.count_id = count_id;
  query.timeout = timeout;
  query.query_seq = seq;
  send_ecmp(query);
}

void ExpressHost::count_query_at(ip::Address subtree_router,
                                 const ip::ChannelId& channel,
                                 ecmp::CountId count_id, sim::Duration timeout,
                                 std::function<void(CountResult)> done) {
  const std::uint32_t seq = register_pending_query(timeout, std::move(done));
  ecmp::CountQuery query;
  query.channel = channel;
  query.count_id = count_id;
  query.timeout = timeout;
  query.query_seq = seq;

  // Tunnel the query to the target router like a subcast (§2.1): the
  // outer source must equal the inner source for the router to accept.
  auto inner = std::make_shared<net::Packet>();
  inner->src = address();
  inner->dst = subtree_router;
  inner->protocol = ip::Protocol::kEcmp;
  inner->payload = ecmp::encode(ecmp::Message{query});
  stats_->control_bytes_sent += inner->payload.size();

  net::Packet outer;
  outer.src = address();
  outer.dst = subtree_router;
  outer.protocol = ip::Protocol::kIpInIp;
  outer.inner = std::move(inner);
  network().send_unicast(id(), std::move(outer));
}

// ---------------------------------------------------------------------
// Subscriber side
// ---------------------------------------------------------------------

void ExpressHost::new_subscription(const ip::ChannelId& channel,
                                   std::optional<ip::ChannelKey> key,
                                   SubscribeCallback done) {
  Subscription& sub = subscriptions_[channel];
  ++sub.local_count;
  if (key) sub.key = key;
  if (sub.local_count == 1) {
    sub.pending_result = std::move(done);
  } else if (done) {
    // Additional local app: the network already delivers here.
    done(ecmp::Status::kOk);
  }

  // Announce the (possibly updated) local subscriber count so the
  // first-hop router's per-interface count stays exact (§3.2).
  ecmp::Count join;
  join.channel = channel;
  join.count = sub.local_count;
  join.key = sub.key;
  ++stats_->counts_sent;
  scope_.emit(network().now(), obs::TraceType::kSubscriptionChange,
              channel.packed(), static_cast<std::uint64_t>(sub.local_count));
  send_ecmp(join);
}

void ExpressHost::delete_subscription(const ip::ChannelId& channel) {
  auto it = subscriptions_.find(channel);
  if (it == subscriptions_.end() || it->second.local_count == 0) return;
  ecmp::Count update;
  update.channel = channel;
  update.count = --it->second.local_count;
  if (update.count > 0) {
    update.key = it->second.key;  // other local apps remain; refresh count
  } else {
    subscriptions_.erase(it);
  }
  ++stats_->counts_sent;
  scope_.emit(network().now(), obs::TraceType::kSubscriptionChange,
              channel.packed(), static_cast<std::uint64_t>(update.count));
  send_ecmp(update);
}

void ExpressHost::set_data_handler(DataHandler handler) {
  if (data_handler_) {
    throw std::logic_error("host data handler already installed");
  }
  data_handler_ = std::move(handler);
}

void ExpressHost::set_count_handler(
    ecmp::CountId count_id,
    std::function<std::optional<std::int64_t>()> handler) {
  count_handlers_[count_id] = std::move(handler);
}

// ---------------------------------------------------------------------
// Packet handling
// ---------------------------------------------------------------------

void ExpressHost::handle_packet(const net::Packet& packet,
                                std::uint32_t in_iface) {
  (void)in_iface;
  if (silent_) return;
  if (packet.protocol == ip::Protocol::kEcmp) {
    // On shared media we also hear frames meant for others: accept only
    // our unicast address or the well-known ECMP group.
    if (packet.dst != address() && packet.dst != ip::kEcmpAllRouters) return;
    for (const ecmp::Message& msg : ecmp::decode_all(packet.payload)) {
      std::visit(
          [&](const auto& m) {
            using T = std::decay_t<decltype(m)>;
            if constexpr (std::is_same_v<T, ecmp::CountQuery>) {
              on_query(m);
            } else if constexpr (std::is_same_v<T, ecmp::Count>) {
              on_count(m);
            } else if constexpr (std::is_same_v<T, ecmp::CountResponse>) {
              on_response(m);
            }
            // KeyRegister is host->router only; ignore.
          },
          msg);
    }
    return;
  }

  if (packet.dst == address()) {
    if (unicast_handler_) unicast_handler_(packet, network().now());
    return;
  }

  if (packet.dst.is_single_source()) {
    const ip::ChannelId channel{packet.src, packet.dst};
    if (!subscribed(channel)) {
      if (on_lan_) return;  // normal on shared media: the NIC filters
      // On a point-to-point access link the channel model guarantees we
      // only receive from sources we designated; count any violation
      // (tests assert zero).
      ++stats_->unwanted_data;
      return;
    }
    ++stats_->data_received;
    if (data_handler_) data_handler_(packet, network().now());
  }
}

void ExpressHost::on_query(const ecmp::CountQuery& query) {
  if (query.count_id == ecmp::kNeighborsId) {
    ecmp::Count reply;
    reply.channel = query.channel;
    reply.count_id = ecmp::kNeighborsId;
    reply.count = 1;
    reply.query_seq = query.query_seq;
    ++stats_->counts_sent;
    send_ecmp(reply);
    return;
  }

  if (query.count_id == ecmp::kAllChannelsId) {
    // General query: re-announce every active subscription (§3.3), in
    // channel order so the Count burst is reproducible on the wire.
    for (const auto* kv : det::sorted_items(subscriptions_)) {
      const auto& [channel, sub] = *kv;
      if (sub.local_count == 0) continue;
      ecmp::Count count;
      count.channel = channel;
      count.count = sub.local_count;
      count.key = sub.key;
      ++stats_->counts_sent;
      send_ecmp(count);
    }
    return;
  }

  if (query.count_id == ecmp::kSubscriberId) {
    auto it = subscriptions_.find(query.channel);
    const std::int64_t value =
        it == subscriptions_.end() ? 0 : it->second.local_count;
    if (query.query_seq == 0 && value == 0) return;  // nothing to refresh
    ecmp::Count reply;
    reply.channel = query.channel;
    reply.count_id = ecmp::kSubscriberId;
    reply.count = value;
    reply.query_seq = query.query_seq;
    if (query.query_seq == 0 && it != subscriptions_.end()) {
      reply.key = it->second.key;  // refresh keeps the key alive
    }
    ++stats_->counts_sent;
    ++stats_->queries_answered;
    send_ecmp(reply);
    return;
  }

  if (ecmp::is_app_count(query.count_id)) {
    // §3.1: the OS forwards app-defined queries to the application.
    auto handler = count_handlers_.find(query.count_id);
    if (handler == count_handlers_.end()) return;  // abstain
    auto value = handler->second();
    if (!value) return;  // application declined to answer
    ecmp::Count reply;
    reply.channel = query.channel;
    reply.count_id = query.count_id;
    reply.count = *value;
    reply.query_seq = query.query_seq;
    ++stats_->counts_sent;
    ++stats_->queries_answered;
    send_ecmp(reply);
  }
}

void ExpressHost::on_count(const ecmp::Count& count) {
  if (count.query_seq == 0) return;
  auto it = pending_queries_.find(count.query_seq);
  if (it == pending_queries_.end()) return;
  auto cb = std::move(it->second.first);
  it->second.second.cancel();
  pending_queries_.erase(it);
  if (cb) cb(CountResult{count.count, true});
}

void ExpressHost::on_response(const ecmp::CountResponse& response) {
  auto it = subscriptions_.find(response.channel);
  if (it == subscriptions_.end()) {
    return;  // e.g. ack of a channelKey registration
  }
  if (response.status == ecmp::Status::kInvalidKey) {
    SubscribeCallback cb = std::move(it->second.pending_result);
    subscriptions_.erase(it);
    if (cb) cb(ecmp::Status::kInvalidKey);
    return;
  }
  if (it->second.pending_result) {
    SubscribeCallback cb = std::move(it->second.pending_result);
    it->second.pending_result = {};
    cb(response.status);
  }
}

void ExpressHost::send_ecmp(const ecmp::Message& msg) {
  net::Packet packet;
  packet.src = address();
  // On a point-to-point access link the peer is the router; on a shared
  // LAN the hub repeats to everyone, so control goes to the well-known
  // ECMP address (§3.2) and the router picks it up.
  packet.dst = on_lan_ ? ip::kEcmpAllRouters
                       : network().topology().node(first_hop_).address;
  packet.protocol = ip::Protocol::kEcmp;
  packet.payload = ecmp::encode(msg);
  stats_->control_bytes_sent += packet.payload.size();
  network().send_on_interface(id(), 0, std::move(packet));
}

}  // namespace express
