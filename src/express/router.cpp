#include "express/router.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <variant>
#include <vector>

namespace express {

namespace {

/// Multiple of the upstream-link RTT subtracted from a CountQuery's
/// timeout at each hop, so children time out before parents (§3.1).
constexpr double kTimeoutRttMultiple = 2.0;

/// `id`, checked to be a router node before any module binds to it: the
/// invariant auditor finds EXPRESS routers by node kind.
net::NodeId router_node(const net::Network& network, net::NodeId id) {
  if (network.topology().node(id).kind != net::NodeKind::kRouter) {
    throw std::logic_error("ExpressRouter attached to a non-router node");
  }
  return id;
}

}  // namespace

ExpressRouter::ExpressRouter(net::Network& network, net::NodeId id,
                             RouterConfig config)
    : net::Node(network, router_node(network, id)),
      route_change_hysteresis_(config.route_change_hysteresis),
      proactive_(config.proactive),
      forwarding_(network, id),
      table_(scope()),
      counting_(
          network.scheduler(),
          [this](net::NodeId requester, const ip::ChannelId& channel,
                 ecmp::CountId count_id, std::int64_t sum,
                 std::uint32_t query_seq) {
            send_count(requester, channel, sum, std::nullopt, count_id,
                       query_seq);
          },
          scope()),
      transport_(network, id, config,
                 ecmp::TransportHooks{
                     [this]() { return udp_refresh_round(); },
                     [this](net::NodeId neighbor) { neighbor_died(neighbor); },
                 }),
      own_stats_(scope().bind<OwnStats>({
          {&OwnStats::unresolved_neighbor_updates,
           "express.router.unresolved_neighbor_updates"},
      })) {}

std::size_t ExpressRouter::pending_route_switches() const {
  return static_cast<std::size_t>(std::ranges::count_if(
      table_.channels(),
      [](const auto& entry) { return entry.second.route_switch.pending(); }));
}

// ---------------------------------------------------------------------
// Packet dispatch
// ---------------------------------------------------------------------

void ExpressRouter::handle_packet(const net::Packet& packet,
                                  std::uint32_t in_iface) {
  if (packet.protocol == ip::Protocol::kEcmp) {
    handle_ecmp(packet, in_iface);
    return;
  }
  if (packet.protocol == ip::Protocol::kIpInIp && packet.dst == address()) {
    // Only the original sender may tunnel to us (§7.1): the outer
    // unicast source must match the inner source.
    if (packet.inner && packet.inner->src == packet.src) {
      if (packet.inner->protocol == ip::Protocol::kEcmp) {
        // Remote CountQuery tunnelled to this on-tree router (§2.1):
        // the reliable publisher sizing a candidate repair subtree.
        on_remote_query(*packet.inner);
      } else {
        forwarding_.relay_subcast(packet);
      }
    }
    return;
  }
  if (packet.dst.is_single_source()) {
    forwarding_.forward(packet, in_iface);
    return;
  }
  // Stray unicast: routers are pure transit in this simulator; the
  // network layer routes unicast directly, so anything else is dropped.
}

void ExpressRouter::handle_ecmp(const net::Packet& packet,
                                std::uint32_t in_iface) {
  const ecmp::Delivery delivery = transport_.receive(packet, in_iface);
  // §3.2: on (re)connection, re-announce every channel we have going
  // upstream through this neighbor.
  if (delivery.reestablished) reannounce_to(delivery.from);

  for (const ecmp::Message& msg : delivery.messages) {
    std::visit(
        [&](const auto& m) {
          using T = std::decay_t<decltype(m)>;
          if constexpr (std::is_same_v<T, ecmp::Count>) {
            on_count(m, delivery.from, in_iface);
          } else if constexpr (std::is_same_v<T, ecmp::CountQuery>) {
            on_query(m, delivery.from, in_iface);
          } else if constexpr (std::is_same_v<T, ecmp::CountResponse>) {
            on_response(m, delivery.from);
          } else {
            on_key_register(m, delivery.from);
          }
        },
        msg);
  }
}

void ExpressRouter::reannounce_to(net::NodeId to) {
  for (const auto& [channel, state] : table_.channels()) {
    if (state.upstream != to || state.advertised_upstream == 0) continue;
    send_count(to, channel, state.subtree_count(), state.cached_key);
  }
}

// ---------------------------------------------------------------------
// Count handling: tree maintenance + query replies
// ---------------------------------------------------------------------

void ExpressRouter::on_count(const ecmp::Count& msg, net::NodeId from,
                             std::uint32_t iface) {
  if (msg.count_id == ecmp::kNeighborsId) return;  // discovery reply
  if (msg.query_seq != 0) {
    // Reply to an outstanding CountQuery: aggregate, don't touch state.
    counting_.absorb(msg.channel, msg.count_id, msg.query_seq, msg.count);
    return;
  }
  if (msg.count_id == ecmp::kSubscriberId) {
    apply_subscriber_count(msg.channel, from, iface, msg.count, msg.key);
  }
  // Unsolicited counts with other ids are not part of the protocol.
}

void ExpressRouter::apply_subscriber_count(const ip::ChannelId& channel,
                                           net::NodeId from,
                                           std::uint32_t iface,
                                           std::int64_t count,
                                           std::optional<ip::ChannelKey> key) {
  const sim::Time now = network().now();

  if (count <= 0) {
    // Leave (§3.2): zero Count unsubscribes this neighbor.
    Channel* state = table_.find(channel);
    if (state == nullptr || !table_.remove_downstream(*state, from)) return;
    refresh_fib(channel, *state);
    notify_total(channel, *state);
    if (transport_.mode(iface) == ecmp::Mode::kUdp) {
      // IGMPv2-style: re-query the interface after a leave to catch
      // members we would otherwise believe gone.
      send_query(from, channel, ecmp::kSubscriberId,
                 transport_.policy().udp_reply_timeout(), 0);
    }
    update_upstream(channel, *state, std::nullopt);
    return;
  }

  // Join or refresh. New UDP-mode soft state must keep the refresh
  // clock alive — re-arm it here in case it ran dry after the previous
  // entries expired or their neighbors died.
  if (transport_.mode(iface) == ecmp::Mode::kUdp) {
    transport_.ensure_udp_refresh();
  }
  bool created = false;
  Channel& state = table_.get_or_create(channel, created);
  if (!created && table_.refresh_existing(state, from, count, now)) {
    refresh_fib(channel, state);
    notify_total(channel, state);
    update_upstream(channel, state, std::nullopt);
    return;
  }
  if (created) {
    const net::NodeId src = source_node(channel);
    if (src != net::kInvalidNode) {
      if (auto up = network().routing().rpf_neighbor(id(), src)) {
        state.upstream = *up;
      }
      if (auto rif = network().routing().rpf_interface(id(), src)) {
        state.rpf_iface = *rif;
      }
    }
    if (proactive_) {
      state.proactive = std::make_unique<Channel::Proactive>(*proactive_);
    }
  }

  bool decidable = false;
  const bool acceptable = table_.key_acceptable(
      channel, state, key, at_root(channel, state), decidable);
  if (decidable && !acceptable) {
    table_.reject_join(channel, created);
    send_response(from, channel, ecmp::Status::kInvalidKey);
    return;
  }

  bool is_new = false;
  DownstreamEntry& entry =
      table_.apply_join(state, from, count, key, decidable, now, is_new);
  refresh_fib(channel, state);
  notify_total(channel, state);
  update_upstream(channel, state, key);

  if (is_new && (decidable || state.validated_upstream)) {
    entry.validated = true;
    send_response(from, channel, ecmp::Status::kOk);
  }
}

bool ExpressRouter::at_root(const ip::ChannelId& channel,
                            const Channel& state) const {
  const net::NodeId src = source_node(channel);
  return src == net::kInvalidNode ||
         (state.upstream != net::kInvalidNode &&
          network().topology().node(state.upstream).kind !=
              net::NodeKind::kRouter) ||
         network().routing().rpf_neighbor(id(), src) == std::nullopt;
}

void ExpressRouter::update_upstream(
    const ip::ChannelId& channel, Channel& state,
    std::optional<ip::ChannelKey> key_to_forward) {
  const bool upstream_is_router =
      state.upstream != net::kInvalidNode &&
      network().topology().node(state.upstream).kind == net::NodeKind::kRouter;
  const UpstreamPlan plan = table_.plan_upstream_update(
      state, key_to_forward, upstream_is_router);
  // A join or prune moves the advertisement the audit cross-checks.
  if (plan.send == UpstreamSend::kJoin || plan.send == UpstreamSend::kPrune) {
    note_state_change();
  }
  switch (plan.send) {
    case UpstreamSend::kJoin:
      if (network().topology().reach(id(), state.upstream).up) {
        send_count(state.upstream, channel, plan.total, plan.key);
        // The aggregate went upstream: restart the drift curve from it.
        if (state.proactive) {
          state.proactive->state.mark_sent(plan.total, network().now());
        }
      } else {
        // Failed TCP write (§3.2): the upstream never saw this Count.
        // Leave the advertisement unsynced so the reconnection
        // re-announce in on_routing_change resends it after the heal.
        state.advertised_upstream = 0;
      }
      break;
    case UpstreamSend::kPrune:
      // A prune lost to a dead link is harmless: the upstream dropped
      // this child's entry in its own dead-link cleanup.
      if (network().topology().reach(id(), state.upstream).up) {
        send_count(state.upstream, channel, 0, std::nullopt);
      }
      break;
    case UpstreamSend::kDrift:
      maybe_send_proactive(channel);
      break;
    case UpstreamSend::kNone:
      break;
  }
  if (plan.remove_channel) remove_channel(channel);
}

void ExpressRouter::maybe_send_proactive(const ip::ChannelId& channel) {
  Channel* state = table_.find(channel);
  if (state == nullptr || state->proactive == nullptr) return;
  if (state->upstream == net::kInvalidNode ||
      !network().topology().reach(id(), state->upstream).up) {
    return;  // no live upstream connection: the drift waits for the heal
  }
  const std::int64_t total = state->subtree_count();
  if (total == 0) return;  // handled by the prune path
  Channel::Proactive& p = *state->proactive;
  const sim::Time now = network().now();
  std::optional<sim::Duration> recheck_in;
  if (!state->validated_upstream) {
    // Hold updates until the join is accepted; re-check shortly.
    recheck_in = sim::milliseconds(100);
  } else if (!p.state.should_send(total, now)) {
    // Drift exists but is tolerated for now; re-check when the decaying
    // tolerance crosses the current drift (always within tau of the
    // last update). Arrivals in between re-evaluate and pull the check
    // earlier.
    if (auto delay = p.state.next_send_delay(total, now)) {
      recheck_in = *delay + sim::microseconds(1);
    }
  } else {
    send_count(state->upstream, channel, total, state->cached_key);
    counting_.note_proactive_update();
    p.state.mark_sent(total, now);
    state->advertised_upstream = total;
    note_state_change();
  }
  p.recheck.cancel();
  if (recheck_in) {
    p.recheck = network().scheduler().schedule_after(
        *recheck_in, [this, channel]() { maybe_send_proactive(channel); });
  }
}

void ExpressRouter::refresh_fib(const ip::ChannelId& channel,
                                const Channel& state) {
  // Every membership change ends here, so this note also covers the
  // table mutation that preceded it in the same event.
  note_state_change();
  FibEntry& entry = forwarding_.fib().upsert(channel);
  entry.iif = state.rpf_iface;
  entry.oifs = net::InterfaceSet{};
  for (const auto& [neighbor, down] : state.downstream) {
    if (down.count <= 0) continue;
    if (auto iface = network().topology().reach(id(), neighbor).iface) {
      entry.oifs.set(*iface);
    }
  }
}

void ExpressRouter::remove_channel(ip::ChannelId channel) {
  if (!table_.erase(channel)) return;
  note_state_change();
  forwarding_.fib().erase(channel);
}

void ExpressRouter::resolve_validation(const ip::ChannelId& channel,
                                       ecmp::Status status) {
  if (status != ecmp::Status::kOk && status != ecmp::Status::kInvalidKey) {
    return;
  }
  const VerdictEffects fx =
      table_.apply_upstream_verdict(channel, status == ecmp::Status::kOk);
  Channel* state = table_.find(channel);
  if (state == nullptr) return;
  for (net::NodeId neighbor : fx.accept) {
    send_response(neighbor, channel, ecmp::Status::kOk);
  }
  for (net::NodeId neighbor : fx.reject) {
    send_response(neighbor, channel, ecmp::Status::kInvalidKey);
  }
  if (fx.membership_changed) {
    refresh_fib(channel, *state);
    notify_total(channel, *state);
  }
  if (fx.channel_gone) {
    remove_channel(channel);
  } else if (fx.rejoin) {
    update_upstream(channel, *state, fx.rejoin_key);
  }
}

void ExpressRouter::on_response(const ecmp::CountResponse& msg,
                                net::NodeId from) {
  const Channel* state = table_.find(msg.channel);
  if (state == nullptr) return;
  if (state->upstream != from) return;  // only upstream verdicts count
  resolve_validation(msg.channel, msg.status);
}

void ExpressRouter::on_key_register(const ecmp::KeyRegister& msg,
                                    net::NodeId from) {
  // Only the channel source itself, directly attached, may register.
  const net::Topology& topo = network().topology();
  if (topo.node(from).kind != net::NodeKind::kHost ||
      topo.address(from) != msg.channel.source) {
    return;
  }
  table_.register_key(msg.channel, msg.key);
  send_response(from, msg.channel, ecmp::Status::kOk);
}

// ---------------------------------------------------------------------
// CountQuery fan-out and aggregation (§3.1)
// ---------------------------------------------------------------------

void ExpressRouter::on_query(const ecmp::CountQuery& msg, net::NodeId from,
                             std::uint32_t iface) {
  if (msg.count_id == ecmp::kNeighborsId) {
    send_count(from, msg.channel, 1, std::nullopt, ecmp::kNeighborsId,
               msg.query_seq);
    return;
  }
  if (msg.count_id == ecmp::kAllChannelsId) {
    // General query (§3.3): retransmit Counts for every channel we have
    // going upstream through the querier.
    reannounce_to(from);
    return;
  }
  if (msg.query_seq == 0 && msg.count_id == ecmp::kSubscriberId) {
    // UDP-mode refresh: answer with an unsolicited current Count.
    const Channel* state = table_.find(msg.channel);
    if (state == nullptr) return;
    send_count(from, msg.channel, state->subtree_count(), state->cached_key);
    return;
  }
  // §3.1: decrement the timeout by a small multiple of the RTT to the
  // upstream neighbor before fanning out, so we reply (possibly
  // partially) before our parent gives up on us.
  const sim::Duration remaining = CountingEngine::decremented_timeout(
      msg.timeout, transport_.link_rtt(iface), kTimeoutRttMultiple);
  start_query(msg.channel, msg.count_id, remaining, from, msg.query_seq,
              nullptr);
}

void ExpressRouter::on_remote_query(const net::Packet& inner) {
  const ip::Address requester = inner.src;
  for (const ecmp::Message& msg : ecmp::decode_all(inner.payload)) {
    const auto* q = std::get_if<ecmp::CountQuery>(&msg);
    if (q == nullptr) continue;
    const ecmp::CountQuery query = *q;
    start_query(query.channel, query.count_id, query.timeout, std::nullopt,
                query.query_seq, [this, requester, query](CountResult result) {
                  // Reply straight to the querying host as pure IP
                  // transit — a hop-by-hop ECMP send would be consumed
                  // by the first intermediate router.
                  transport_.send_remote(
                      requester, ecmp::Message{ecmp::Count{
                                     query.channel, query.count_id,
                                     result.count, query.query_seq,
                                     std::nullopt}});
                });
  }
}

void ExpressRouter::initiate_count(const ip::ChannelId& channel,
                                   ecmp::CountId count_id,
                                   sim::Duration timeout,
                                   std::function<void(CountResult)> done) {
  const std::uint32_t seq =
      (static_cast<std::uint32_t>(id() & 0x7FFF) << 16) |
      (transport_.next_seq() & 0xFFFF) | 0x80000000U;
  start_query(channel, count_id, timeout, std::nullopt, seq, std::move(done));
}

void ExpressRouter::start_query(const ip::ChannelId& channel,
                                ecmp::CountId count_id, sim::Duration timeout,
                                std::optional<net::NodeId> requester,
                                std::uint32_t query_seq,
                                std::function<void(CountResult)> local_done) {
  const Channel* state = table_.find(channel);
  if (state == nullptr) {
    // Off-tree: reply zero immediately.
    counting_.start_round(channel, count_id, timeout, requester, query_seq, 0,
                          0, std::move(local_done));
    return;
  }
  const std::int64_t local =
      table_.local_contribution(*state, count_id, network().topology(), id());
  const std::vector<net::NodeId> children =
      table_.query_children(*state, count_id, network().topology(), id());
  if (!counting_.start_round(channel, count_id, timeout, requester, query_seq,
                             local, static_cast<std::uint32_t>(children.size()),
                             std::move(local_done))) {
    return;  // resolved inline (no children)
  }
  for (net::NodeId child : children) {
    send_query(child, channel, count_id, timeout, query_seq);
  }
}

}  // namespace express
