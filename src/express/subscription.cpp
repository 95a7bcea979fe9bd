#include "express/subscription.hpp"

#include <set>
#include <utility>

namespace express {

SubscriptionTable::~SubscriptionTable() {
  for (auto& [channel, state] : channels_) state.teardown();
}

Channel* SubscriptionTable::find(const ip::ChannelId& channel) {
  auto it = channels_.find(channel);
  return it == channels_.end() ? nullptr : &it->second;
}

const Channel* SubscriptionTable::find(const ip::ChannelId& channel) const {
  auto it = channels_.find(channel);
  return it == channels_.end() ? nullptr : &it->second;
}

Channel& SubscriptionTable::get_or_create(const ip::ChannelId& channel,
                                          bool& created) {
  auto [it, inserted] = channels_.try_emplace(channel);
  created = inserted;
  return it->second;
}

std::int64_t SubscriptionTable::subtree_count(
    const ip::ChannelId& channel) const {
  const Channel* state = find(channel);
  return state == nullptr ? 0 : state->subtree_count();
}

void SubscriptionTable::register_key(const ip::ChannelId& channel,
                                     ip::ChannelKey key) {
  key_registry_[channel] = key;
  ++stats_->key_registrations;
}

bool SubscriptionTable::key_acceptable(const ip::ChannelId& channel,
                                       const Channel& state,
                                       std::optional<ip::ChannelKey> key,
                                       bool at_root,
                                       bool& locally_decidable) const {
  // Authoritative knowledge: the source registered K(S,E) here (§2.1).
  if (auto it = key_registry_.find(channel); it != key_registry_.end()) {
    locally_decidable = true;
    return key.has_value() && *key == it->second;
  }
  // Cached from a previous upstream validation (§3.2).
  if (state.cached_key) {
    locally_decidable = true;
    return key.has_value() && *key == *state.cached_key;
  }
  if (at_root) {
    // First-hop router of an unauthenticated channel: accept anything
    // (a supplied key on an open channel is simply ignored).
    locally_decidable = true;
    return true;
  }
  if (state.validated_upstream && !state.cached_key) {
    // Already validated keyless: the channel is open.
    locally_decidable = true;
    return true;
  }
  // We cannot decide; accept tentatively and let upstream validate.
  locally_decidable = false;
  return true;
}

void SubscriptionTable::reject_join(const ip::ChannelId& channel,
                                    bool created) {
  ++stats_->auth_rejects;
  if (created) erase(channel);
}

bool SubscriptionTable::remove_downstream(Channel& state, net::NodeId from) {
  if (state.downstream.erase(from) == 0) return false;
  ++stats_->unsubscribe_events;
  return true;
}

bool SubscriptionTable::refresh_existing(Channel& state, net::NodeId from,
                                         std::int64_t count, sim::Time now) {
  // Updates over an already-validated session (count refreshes,
  // proactive aggregates) need no re-validation: routers are trusted at
  // the network layer once the subscription was accepted (§3.5).
  auto it = state.downstream.find(from);
  if (it == state.downstream.end() || !it->second.validated ||
      it->second.count <= 0) {
    return false;
  }
  it->second.count = count;
  it->second.last_refresh = now;
  return true;
}

DownstreamEntry& SubscriptionTable::apply_join(Channel& state,
                                               net::NodeId from,
                                               std::int64_t count,
                                               std::optional<ip::ChannelKey> key,
                                               bool locally_decidable,
                                               sim::Time now, bool& is_new) {
  DownstreamEntry& entry = state.downstream[from];
  is_new = (entry.count == 0);
  entry.count = count;
  // A refresh without a key must not clobber the key the original join
  // presented (it is what the pending validation verdict applies to).
  if (key) entry.key = *key;
  entry.last_refresh = now;
  if (is_new) {
    ++stats_->subscribe_events;
    entry.validated = locally_decidable;
  }
  return entry;
}

UpstreamPlan SubscriptionTable::plan_upstream_update(
    Channel& state, std::optional<ip::ChannelKey> key_to_forward,
    bool upstream_is_router) {
  UpstreamPlan plan;
  plan.total = state.subtree_count();

  if (!upstream_is_router) {
    // We are the tree root (first hop from the source host): validation
    // authority rests with our key registry; nothing propagates further.
    state.validated_upstream = true;
    plan.remove_channel = (plan.total == 0);
    return plan;
  }

  if (state.advertised_upstream == 0 && plan.total > 0) {
    plan.send = UpstreamSend::kJoin;
    if (state.cached_key) {
      plan.key = *state.cached_key;
    } else if (key_to_forward) {
      plan.key = *key_to_forward;
    }
    if (!state.validated_upstream) state.pending_sent_key = plan.key;
    state.advertised_upstream = plan.total;
    ++stats_->joins_sent;
  } else if (state.advertised_upstream > 0 && plan.total == 0) {
    plan.send = UpstreamSend::kPrune;
    state.advertised_upstream = 0;
    plan.remove_channel = true;
    ++stats_->prunes_sent;
  } else if (plan.total != state.advertised_upstream) {
    plan.send = UpstreamSend::kDrift;
  }
  // An empty channel is torn down even when there is nothing to prune:
  // with the advertisement already voided by a dead upstream link, the
  // last leave arrives at advertised == 0 and skips the kPrune branch.
  if (plan.total == 0) plan.remove_channel = true;
  return plan;
}

VerdictEffects SubscriptionTable::apply_upstream_verdict(
    const ip::ChannelId& channel, bool accepted) {
  VerdictEffects fx;
  Channel* ptr = find(channel);
  if (ptr == nullptr) return fx;
  Channel& state = *ptr;

  if (accepted) {
    state.validated_upstream = true;
    // The verdict covers exactly the key we forwarded: it becomes the
    // cached K(S,E); pending joins that presented a *different* key are
    // rejected against it (or accepted if no key was involved — open
    // channel).
    if (state.pending_sent_key && *state.pending_sent_key != ip::kNoKey) {
      state.cached_key = *state.pending_sent_key;
    }
    state.pending_sent_key.reset();
    for (auto& [neighbor, entry] : state.downstream) {
      if (entry.validated) continue;
      if (state.cached_key && entry.key != *state.cached_key) {
        fx.reject.push_back(neighbor);
        continue;
      }
      entry.validated = true;
      fx.accept.push_back(neighbor);
    }
    for (net::NodeId neighbor : fx.reject) {
      state.downstream.erase(neighbor);
      ++stats_->auth_rejects;
    }
    fx.membership_changed = !fx.reject.empty();
    return fx;
  }

  // Our join was rejected — the rejection applies to the key we sent.
  const ip::ChannelKey rejected_key =
      state.pending_sent_key.value_or(ip::kNoKey);
  state.pending_sent_key.reset();
  std::optional<ip::ChannelKey> retry_key;
  for (auto& [neighbor, entry] : state.downstream) {
    if (entry.validated) continue;
    if (entry.key == rejected_key) {
      fx.reject.push_back(neighbor);
    } else if (!retry_key) {
      retry_key = entry.key;  // a different key deserves its own try
    }
  }
  for (net::NodeId neighbor : fx.reject) {
    state.downstream.erase(neighbor);
    ++stats_->auth_rejects;
  }
  // The upstream router holds no state for us now.
  state.advertised_upstream = 0;
  fx.membership_changed = true;
  if (state.subtree_count() == 0) {
    fx.channel_gone = true;
  } else if (state.cached_key) {
    // Validated subscribers remain: rejoin with the known-good key.
    fx.rejoin = true;
    fx.rejoin_key = state.cached_key;
  } else {
    // Unvalidated joins with a different key remain: try theirs.
    fx.rejoin = true;
    fx.rejoin_key = retry_key;
  }
  return fx;
}

RouteSwitch SubscriptionTable::apply_route_switch(
    const ip::ChannelId& channel, net::NodeId new_upstream,
    std::optional<std::uint32_t> new_rpf_iface, bool old_upstream_is_router) {
  RouteSwitch sw;
  Channel* state = find(channel);
  if (state == nullptr) return sw;
  sw.total = state->subtree_count();
  sw.old_upstream = state->upstream;
  // Zero Count to the old upstream, current Count to the new.
  if (old_upstream_is_router && state->advertised_upstream > 0) {
    sw.prune_old = true;
    ++stats_->prunes_sent;
  }
  state->upstream = new_upstream;
  if (new_rpf_iface) state->rpf_iface = *new_rpf_iface;
  state->advertised_upstream = 0;
  return sw;
}

std::vector<std::pair<ip::ChannelId, net::NodeId>>
SubscriptionTable::collect_dead_children(const net::Topology& topology,
                                         net::NodeId self) const {
  std::vector<std::pair<ip::ChannelId, net::NodeId>> dead;
  // The caller replays `dead` as zero-count leaves, so its order is
  // protocol-visible.
  for (const auto& [channel, state] : channels_) {
    for (const auto& [neighbor, entry] : state.downstream) {
      if (!topology.reach(self, neighbor).up) {
        dead.emplace_back(channel, neighbor);
      }
    }
  }
  return dead;
}

std::vector<UdpAction> SubscriptionTable::udp_refresh_actions(
    const net::Topology& topology, net::NodeId self, sim::Time now,
    sim::Duration lifetime,
    const std::function<bool(std::uint32_t)>& iface_is_udp) const {
  std::vector<UdpAction> actions;
  std::vector<UdpAction> expired;
  std::set<std::pair<ip::ChannelId, std::uint32_t>> lan_queried;
  // Queries/expirations execute in the returned order and the LAN-query
  // dedup keeps only the first hit per (channel, wire): both follow the
  // channel/neighbor order of the tables.
  for (const auto& [channel, state] : channels_) {
    for (const auto& [neighbor, entry] : state.downstream) {
      const auto iface = topology.reach(self, neighbor).iface;
      if (!iface || !iface_is_udp(*iface)) continue;
      UdpAction action;
      action.channel = channel;
      action.neighbor = neighbor;
      action.iface = *iface;
      if (now - entry.last_refresh > lifetime) {
        action.kind = UdpAction::Kind::kExpire;
        expired.push_back(action);
        continue;
      }
      if (topology.node(topology.neighbor_via(self, *iface)).kind ==
          net::NodeKind::kLanHub) {
        // One LAN-wide general query per (channel, wire) covers every
        // member on the segment (§3.2: all UDP neighbors respond).
        if (!lan_queried.insert({channel, *iface}).second) continue;
        action.kind = UdpAction::Kind::kLanQuery;
      } else {
        action.kind = UdpAction::Kind::kUnicastQuery;
      }
      actions.push_back(action);
    }
  }
  actions.insert(actions.end(), expired.begin(), expired.end());
  return actions;
}

std::int64_t SubscriptionTable::local_contribution(
    const Channel& state, ecmp::CountId count_id,
    const net::Topology& topology, net::NodeId self) const {
  switch (count_id) {
    case ecmp::kLinkCountId: {
      std::int64_t links = 0;
      for (const auto& [neighbor, entry] : state.downstream) {
        if (entry.count > 0) ++links;
      }
      return links;
    }
    case ecmp::kDomainLinkCountId: {
      // Only tree links whose far end stays inside our domain count
      // toward that domain's settlement.
      const std::uint16_t my_domain = topology.node(self).domain;
      std::int64_t links = 0;
      for (const auto& [neighbor, entry] : state.downstream) {
        if (entry.count > 0 && topology.node(neighbor).domain == my_domain) {
          ++links;
        }
      }
      return links;
    }
    case ecmp::kRouterCountId:
      return 1;
    case ecmp::kWeightedTreeSizeId: {
      std::int64_t weight = 0;
      for (const auto& [neighbor, entry] : state.downstream) {
        if (entry.count <= 0) continue;
        if (auto iface = topology.reach(self, neighbor).iface) {
          weight += topology.link(topology.port(self, *iface).link).cost;
        }
      }
      return weight;
    }
    default:
      return 0;  // subscriber and app-defined counts live at the hosts
  }
}

std::vector<net::NodeId> SubscriptionTable::query_children(
    const Channel& state, ecmp::CountId count_id,
    const net::Topology& topology, net::NodeId self) const {
  // Children: downstream tree neighbors. Network-layer counts stop at
  // routers (§3.1 footnote 3); subscriber/app counts reach leaf hosts;
  // domain-scoped counts never cross a domain boundary.
  const std::uint16_t my_domain = topology.node(self).domain;
  std::vector<net::NodeId> children;
  for (const auto& [neighbor, entry] : state.downstream) {
    if (entry.count <= 0) continue;
    const auto& info = topology.node(neighbor);
    if (info.kind == net::NodeKind::kHost &&
        !ecmp::forwarded_to_hosts(count_id)) {
      continue;
    }
    if (count_id == ecmp::kDomainLinkCountId && info.domain != my_domain) {
      continue;
    }
    children.push_back(neighbor);
  }
  return children;
}

std::size_t SubscriptionTable::management_state_bytes() const {
  // §5.2 model: ~32 bytes per count record, one record per downstream
  // neighbor plus one upstream record per channel, plus 8 bytes for a
  // cached key; the key registry costs 8 bytes per source.
  std::size_t bytes = 0;
  for (const auto& [channel, state] : channels_) {
    bytes += 32 * (state.downstream.size() + 1);
    if (state.cached_key) bytes += 8;
  }
  bytes += 8 * key_registry_.size();
  return bytes;
}

}  // namespace express
