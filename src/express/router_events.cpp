// ExpressRouter reactions to environment events — transport timers
// (UDP soft-state refresh, neighbor death) and unicast route changes —
// as opposed to the protocol message path in router.cpp.
#include <optional>
#include <utility>
#include <vector>

#include "express/router.hpp"

namespace express {

// ---------------------------------------------------------------------
// Transport reactions
// ---------------------------------------------------------------------

bool ExpressRouter::udp_refresh_round() {
  const std::vector<UdpAction> actions = table_.udp_refresh_actions(
      network().topology(), id(), network().now(),
      transport_.policy().udp_lifetime(),
      [this](std::uint32_t iface) {
        return transport_.mode(iface) == ecmp::Mode::kUdp;
      });
  for (const UdpAction& action : actions) {
    switch (action.kind) {
      case UdpAction::Kind::kUnicastQuery:
        // A dead neighbor (chaos router death, downed link) cannot
        // answer: skip the query instead of leaking refresh bytes onto
        // the dead link. The entry still ages out via kExpire.
        if (!network().topology().reach(id(), action.neighbor).up) break;
        send_query(action.neighbor, action.channel, ecmp::kSubscriberId,
                   transport_.policy().udp_reply_timeout(), 0);
        break;
      case UdpAction::Kind::kLanQuery:
        transport_.send_lan_query(
            action.iface,
            ecmp::CountQuery{action.channel, ecmp::kSubscriberId,
                             transport_.policy().udp_reply_timeout(), 0});
        break;
      case UdpAction::Kind::kExpire:
        apply_subscriber_count(action.channel, action.neighbor, action.iface,
                               0, std::nullopt);
        break;
    }
  }
  // An empty action list means no downstream entry lives on a UDP
  // interface: tell the transport to let the refresh clock run dry.
  return !actions.empty();
}

void ExpressRouter::neighbor_died(net::NodeId neighbor) {
  // §3.2 TCP mode: the count associated with a failed connection is
  // subtracted from the sum provided upstream.
  std::vector<ip::ChannelId> affected;
  for (const auto& [channel, state] : table_.channels()) {
    if (state.downstream.contains(neighbor)) affected.push_back(channel);
  }
  const auto iface = network().topology().reach(id(), neighbor).iface;
  for (const ip::ChannelId& channel : affected) {
    if (!iface) {
      // No interface resolves toward this neighbor (link removed before
      // the death fired). Applying the zero-count with a made-up
      // interface would mutate the wrong interface's state; leave the
      // entry for soft-state expiry / reconnection to settle instead.
      ++own_stats_->unresolved_neighbor_updates;
      continue;
    }
    apply_subscriber_count(channel, neighbor, *iface, 0, std::nullopt);
  }
}

// ---------------------------------------------------------------------
// Route changes (§3.2)
// ---------------------------------------------------------------------

void ExpressRouter::on_routing_change() {
  // First, drop downstream entries whose link died (connection reset).
  for (const auto& [channel, neighbor] :
       table_.collect_dead_children(network().topology(), id())) {
    const auto iface = network().topology().reach(id(), neighbor).iface;
    if (!iface) {
      // No interface resolves toward the child (e.g. a LAN host whose
      // hub link died): skip rather than misattribute the zero-count to
      // interface 0 — UDP soft state expires the entry if the outage
      // persists, and a heal leaves the subscription intact.
      ++own_stats_->unresolved_neighbor_updates;
      continue;
    }
    apply_subscriber_count(channel, neighbor, *iface, 0, std::nullopt);
  }

  // Then re-evaluate the upstream of every remaining channel, with
  // hysteresis to damp oscillation (§3.2). The iterator advances before
  // the body runs: a re-announce may empty and remove the current
  // channel.
  auto& channels = table_.channels();
  for (auto it = channels.begin(); it != channels.end();) {
    auto& [channel, state] = *it++;
    const net::NodeId src = source_node(channel);
    if (src == net::kInvalidNode) continue;

    // A dead upstream link resets the ECMP connection: the peer is
    // subtracting our count right now, so our advertisement is void.
    if (state.upstream != net::kInvalidNode &&
        state.advertised_upstream > 0) {
      const net::Reach upstream =
          network().topology().reach(id(), state.upstream);
      if (upstream.iface && !upstream.up) {
        state.advertised_upstream = 0;
        note_state_change();
      }
    }

    auto new_up = network().routing().rpf_neighbor(id(), src);
    if (!new_up || *new_up == state.upstream) {
      if (state.route_switch.pending()) {
        state.route_switch.cancel();
        note_state_change();
      }
      // Connection re-established with the same upstream after an
      // outage: re-announce (§3.2 unsolicited Counts on establishment).
      if (new_up && state.advertised_upstream == 0 &&
          state.subtree_count() > 0) {
        update_upstream(channel, state, state.cached_key);
      }
      continue;
    }
    if (state.route_switch.pending()) continue;  // already scheduled
    const ip::ChannelId ch = channel;
    state.route_switch = network().scheduler().schedule_after(
        route_change_hysteresis_,
        [this, ch]() { execute_route_switch(ch); });
    note_state_change();
  }
}

void ExpressRouter::execute_route_switch(const ip::ChannelId& channel) {
  note_state_change();  // the switch is no longer pending
  Channel* state = table_.find(channel);
  if (state == nullptr) return;
  const net::NodeId src = source_node(channel);
  if (src == net::kInvalidNode) return;
  auto up = network().routing().rpf_neighbor(id(), src);
  if (!up || *up == state->upstream) return;  // flap settled; stay put

  const bool old_is_router =
      state->upstream != net::kInvalidNode &&
      network().topology().node(state->upstream).kind == net::NodeKind::kRouter;
  const RouteSwitch sw = table_.apply_route_switch(
      channel, *up, network().routing().rpf_interface(id(), src),
      old_is_router);
  // Zero Count to the old upstream, current Count to the new.
  if (sw.prune_old) send_count(sw.old_upstream, channel, 0, std::nullopt);
  refresh_fib(channel, *state);
  if (sw.total > 0) {
    update_upstream(channel, *state, state->cached_key);
  } else {
    remove_channel(channel);
  }
}

}  // namespace express
