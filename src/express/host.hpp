// The EXPRESS host stack: the paper's service interface (§2.1).
//
//   newSubscription(channel [, K])  -> result callback (ok / invalid key)
//   deleteSubscription(channel)
//   channelKey(channel, K)          -> source marks the channel authenticated
//   CountQuery(channel, countId, timeout) -> aggregated best-effort count
//
// plus channel allocation out of the host's private 2^24 space
// (§2.2.1: "each host can autonomously allocate channels", duplicates
// avoided with a local database), data transmission, subcast relaying,
// and the subscriber-side duties: answering subscriber/app CountQueries
// and receiving channel data.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ecmp/codec.hpp"
#include "ecmp/count_id.hpp"
#include "ecmp/messages.hpp"
#include "express/router.hpp"
#include "ip/channel.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace express {

struct HostStats {
  std::uint64_t data_received = 0;
  std::uint64_t data_sent = 0;
  std::uint64_t unwanted_data = 0;  ///< channel data we never subscribed to
  std::uint64_t counts_sent = 0;
  std::uint64_t queries_answered = 0;
  std::uint64_t control_bytes_sent = 0;
};

class ExpressHost final : public net::Node {
 public:
  /// Hosts are single-homed: interface 0 leads to the first-hop router.
  ExpressHost(net::Network& network, net::NodeId id);
  /// Cancels the lost-reply guard timers of still-pending count queries.
  ~ExpressHost() override;

  void handle_packet(const net::Packet& packet, std::uint32_t in_iface) override;

  // --- source-side interface ------------------------------------------
  /// Allocate the next channel from this host's private 2^24 space.
  ip::ChannelId allocate_channel();

  /// channelKey(channel, K(S,E)): inform the network that `channel` is
  /// authenticated. Only meaningful for channels this host sources.
  void channel_key(const ip::ChannelId& channel, ip::ChannelKey key);

  /// Multicast `bytes` of application data on a channel this host
  /// sources. `sequence` tags the transmission for delivery checks;
  /// `header` is an optional application header carried in the payload
  /// (the session-relay middleware uses it for its framing).
  void send(const ip::ChannelId& channel, std::uint32_t bytes,
            std::uint64_t sequence = 0,
            std::vector<std::uint8_t> header = {});

  /// Application-level unicast to another host (e.g. a secondary sender
  /// relaying through a session relay, §4.1).
  void send_app_unicast(ip::Address dest, std::uint32_t bytes,
                        std::uint64_t sequence = 0,
                        std::vector<std::uint8_t> header = {});

  /// Subcast (§2.1): unicast an encapsulated channel packet to an
  /// on-tree router, which decapsulates and forwards to the subtree.
  void subcast(const ip::ChannelId& channel, ip::Address relay_router,
               std::uint32_t bytes, std::uint64_t sequence = 0);

  /// CountQuery(channel, countId, timeout): best-effort aggregate over
  /// the channel's subscribers (or tree, for network-layer ids).
  void count_query(const ip::ChannelId& channel, ecmp::CountId count_id,
                   sim::Duration timeout,
                   std::function<void(CountResult)> done);

  /// CountQuery aimed at a remote on-tree router: the query is
  /// tunnelled IP-in-IP to `subtree_router` (subcast-style targeting,
  /// §2.1), which counts over ITS subtree only and unicasts the
  /// aggregate back. The reliable publisher uses this to size the loss
  /// subtree below a candidate repair point.
  void count_query_at(ip::Address subtree_router, const ip::ChannelId& channel,
                      ecmp::CountId count_id, sim::Duration timeout,
                      std::function<void(CountResult)> done);

  // --- subscriber-side interface --------------------------------------
  using SubscribeCallback = std::function<void(ecmp::Status)>;

  /// newSubscription(channel [, K]): request delivery of (S, E). The
  /// callback reports kOk, or kInvalidKey for a missing/improper key on
  /// an authenticated channel.
  void new_subscription(const ip::ChannelId& channel,
                        std::optional<ip::ChannelKey> key = std::nullopt,
                        SubscribeCallback done = {});

  /// deleteSubscription(channel).
  void delete_subscription(const ip::ChannelId& channel);

  [[nodiscard]] bool subscribed(const ip::ChannelId& channel) const {
    return local_count(channel) > 0;
  }

  /// Subscribing apps on this host for `channel` (0 when none) — the
  /// leaf term of the invariant auditor's count-conservation check.
  [[nodiscard]] std::int64_t local_count(const ip::ChannelId& channel) const {
    auto it = subscriptions_.find(channel);
    return it != subscriptions_.end() ? it->second.local_count : 0;
  }

  /// Application hook answering an app-defined countId (§2.2.1: e.g. a
  /// vote dialog); return nullopt to abstain (no reply; the router's
  /// timeout then yields a partial count upstream).
  void set_count_handler(ecmp::CountId count_id,
                         std::function<std::optional<std::int64_t>()> handler);

  /// Invoked for every delivered channel data packet. The slot has one
  /// owner: installing a second handler throws std::logic_error, so an
  /// observer can never silently disconnect the application.
  using DataHandler =
      std::function<void(const net::Packet& packet, sim::Time at)>;
  void set_data_handler(DataHandler handler);

  /// Invoked for unicast application data addressed to this host.
  void set_unicast_handler(DataHandler handler) {
    unicast_handler_ = std::move(handler);
  }

  /// One delivered data packet: the record type of express::DeliveryLog
  /// (testbed/delivery_log.hpp), which tests, benches and examples attach
  /// through set_data_handler when they need per-packet records.
  struct Delivery {
    ip::ChannelId channel;
    std::uint64_t sequence = 0;
    std::uint32_t bytes = 0;
    sim::Time at{};
  };
  /// Always empty: the host keeps counters (stats().data_received), not a
  /// per-packet log. Kept only because perfbench/perfbench.cpp reads its
  /// capacity for host.delivery_log_mb; attach a DeliveryLog to record
  /// packets.
  [[nodiscard]] static const std::vector<Delivery>& deliveries() {
    static const std::vector<Delivery> kNone;
    return kNone;
  }

  /// Copy of the registry-bound block (see DESIGN.md §11).
  [[nodiscard]] HostStats stats() const { return *stats_; }

  /// Failure injection: a silent host ignores all incoming packets (a
  /// crashed subscriber that never answers refresh queries — the case
  /// UDP-mode soft state exists to clean up, §3.2).
  void set_silent(bool silent) { silent_ = silent; }

 private:
  struct Subscription {
    std::int64_t local_count = 0;  ///< subscribing apps on this host
    std::optional<ip::ChannelKey> key;
    SubscribeCallback pending_result;
  };

  void send_ecmp(const ecmp::Message& msg);
  /// Register a pending CountQuery callback (with its lost-reply guard
  /// timer) and return the query sequence number to send.
  std::uint32_t register_pending_query(sim::Duration timeout,
                                       std::function<void(CountResult)> done);
  void on_query(const ecmp::CountQuery& query);
  void on_count(const ecmp::Count& count);
  void on_response(const ecmp::CountResponse& response);
  /// Interface 0's peer: the first-hop router, or a LAN hub.
  [[nodiscard]] net::NodeId first_hop() const {
    return network().topology().port(id(), 0).peer;
  }
  /// The first hop is a shared-media segment.
  [[nodiscard]] bool on_lan() const {
    return network().topology().node(first_hop()).kind ==
           net::NodeKind::kLanHub;
  }

  std::uint32_t next_channel_index_ = 1;  ///< local allocation database
  std::uint32_t next_query_seq_ = 1;
  bool silent_ = false;
  /// Ordered: a general query re-announces in channel order.
  std::map<ip::ChannelId, Subscription> subscriptions_;
  std::unordered_map<std::uint32_t,
                     std::pair<std::function<void(CountResult)>, sim::EventHandle>>
      pending_queries_;
  std::unordered_map<ecmp::CountId,
                     std::function<std::optional<std::int64_t>()>>
      count_handlers_;
  DataHandler data_handler_;
  DataHandler unicast_handler_;
  HostStats* stats_ = nullptr;  ///< registry-owned block
};

}  // namespace express
