// Hard-state channel membership (paper §3.2, §3.5).
//
// SubscriptionTable is the authoritative store of everything a router
// knows about its channels: per-neighbor downstream subscriber counts,
// the upstream (RPF) relationship, and the authentication cache — the
// validated K(S,E) per channel plus the authoritative key registry for
// directly attached sources. Its methods are the *state transitions* of
// the ECMP subscription machine: join, leave, refresh, upstream
// join/prune planning, and the validation-verdict bookkeeping.
//
// Module seam: the table is pure hard state. It sends no messages,
// arms no timers, and installs no FIB entries. Each Channel carries the
// router's per-channel timer handles (the §3.2 route-switch hysteresis
// and the §6 drift recheck) so one record holds one channel's whole
// control state, but only the router arms them; erasing a channel from
// the table cancels them (Channel::teardown). Each mutating method
// instead returns an effect description (who to acknowledge, who to
// reject, whether to rejoin upstream) that the router turns into ECMP
// messages, FIB refreshes, and observer callbacks. Topology queries it
// needs (the interface toward a neighbor, node kinds, domains, link
// costs) are answered by the const net::Topology& passed per call; it
// never mutates the topology. This is what makes the subscription
// logic unit-testable without a simulation running (see
// tests/test_subscription.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "counting/error_curve.hpp"
#include "ecmp/count_id.hpp"
#include "ip/channel.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace express {

struct SubscriptionStats {
  std::uint64_t subscribe_events = 0;    ///< downstream entries created
  std::uint64_t unsubscribe_events = 0;  ///< downstream entries removed
  std::uint64_t joins_sent = 0;          ///< 0 -> non-zero Counts planned upstream
  std::uint64_t prunes_sent = 0;         ///< non-zero -> 0 Counts planned upstream
  std::uint64_t auth_rejects = 0;
  std::uint64_t key_registrations = 0;
};

struct DownstreamEntry {
  std::int64_t count = 0;
  ip::ChannelKey key = ip::kNoKey;
  bool validated = false;     ///< accepted (locally or by upstream)
  sim::Time last_refresh{0};  ///< UDP-mode soft-state timestamp
};

/// One channel's control state at this router: its hard state plus the
/// router's timer handles for it. Move-only: a copy would share the
/// timers of the record it came from.
struct Channel {
  /// §6 proactive-count record: the error-tolerance curve deciding when
  /// drift goes upstream, and the timer re-evaluating it.
  struct Proactive {
    counting::ProactiveState state;
    sim::EventHandle recheck;

    explicit Proactive(const counting::CurveParams& params) : state(params) {}
  };

  /// Ordered by neighbor id: downstream sweeps emit messages and pick
  /// retry keys, so iteration order is protocol-visible — a hash map
  /// here would make accept/reject/rejoin behaviour depend on the hash
  /// seed and insertion history (the nondeterminism class PR 3's
  /// flush_all fix addressed dynamically; DESIGN.md §7 bans statically).
  std::map<net::NodeId, DownstreamEntry> downstream;
  std::optional<ip::ChannelKey> cached_key;  ///< validated K(S,E)
  /// Key carried in our not-yet-validated upstream join: the upstream
  /// verdict applies to exactly this key, so concurrently accepted
  /// joins that presented a different key are re-validated separately.
  std::optional<ip::ChannelKey> pending_sent_key;
  bool validated_upstream = false;
  std::int64_t advertised_upstream = 0;  ///< last Count sent up (0 = off-tree)
  net::NodeId upstream = net::kInvalidNode;
  std::uint32_t rpf_iface = 0;
  /// Hysteresis timer of a held-back upstream switch (§3.2).
  sim::EventHandle route_switch;
  /// Null unless the router counts proactively (§6).
  std::unique_ptr<Proactive> proactive;

  [[nodiscard]] std::int64_t subtree_count() const {
    std::int64_t total = 0;
    for (const auto& [neighbor, entry] : downstream) total += entry.count;
    return total;
  }

  /// Cancel the channel's pending timers; the table calls this on every
  /// channel it drops.
  void teardown() {
    route_switch.cancel();
    if (proactive) proactive->recheck.cancel();
  }
};

/// What the router must transmit after plan_upstream_update().
enum class UpstreamSend : std::uint8_t {
  kNone,
  kJoin,   ///< send Count(total, key) to the upstream
  kPrune,  ///< send Count(0) to the upstream
  kDrift,  ///< aggregate changed: let the proactive engine decide
};

struct [[nodiscard]] UpstreamPlan {
  UpstreamSend send = UpstreamSend::kNone;
  std::int64_t total = 0;
  std::optional<ip::ChannelKey> key;  ///< key to carry on a join
  bool remove_channel = false;        ///< channel emptied: tear it down
};

/// Effects of an upstream validation verdict (CountResponse).
struct [[nodiscard]] VerdictEffects {
  std::vector<net::NodeId> accept;  ///< send kOk downstream
  std::vector<net::NodeId> reject;  ///< send kInvalidKey (entries erased)
  bool membership_changed = false;  ///< refresh FIB + notify observer
  bool channel_gone = false;        ///< no subscribers remain: tear down
  bool rejoin = false;              ///< re-run the upstream update
  std::optional<ip::ChannelKey> rejoin_key;
};

struct [[nodiscard]] RouteSwitch {
  bool prune_old = false;  ///< send Count(0) to the previous upstream
  net::NodeId old_upstream = net::kInvalidNode;
  std::int64_t total = 0;
};

/// One action of a UDP soft-state refresh round, in execution order.
struct UdpAction {
  enum class Kind : std::uint8_t { kUnicastQuery, kLanQuery, kExpire };
  Kind kind = Kind::kUnicastQuery;
  ip::ChannelId channel;
  net::NodeId neighbor = net::kInvalidNode;
  std::uint32_t iface = 0;
};

class SubscriptionTable {
 public:
  /// `scope` binds the table's counters (express.sub.*) to an
  /// observability plane; the default resolves to the global plane
  /// under a fresh anonymous entity.
  explicit SubscriptionTable(obs::Scope scope = {})
      : stats_(scope.bind<SubscriptionStats>({
            {&SubscriptionStats::subscribe_events,
             "express.sub.subscribe_events"},
            {&SubscriptionStats::unsubscribe_events,
             "express.sub.unsubscribe_events"},
            {&SubscriptionStats::joins_sent, "express.sub.joins_sent"},
            {&SubscriptionStats::prunes_sent, "express.sub.prunes_sent"},
            {&SubscriptionStats::auth_rejects, "express.sub.auth_rejects"},
            {&SubscriptionStats::key_registrations,
             "express.sub.key_registrations"},
        })) {}
  /// Tears down every channel still held.
  ~SubscriptionTable();

  SubscriptionTable(const SubscriptionTable&) = delete;
  SubscriptionTable& operator=(const SubscriptionTable&) = delete;

  // --- storage -------------------------------------------------------
  [[nodiscard]] Channel* find(const ip::ChannelId& channel);
  [[nodiscard]] const Channel* find(const ip::ChannelId& channel) const;
  Channel& get_or_create(const ip::ChannelId& channel, bool& created);
  /// Tear the channel down and drop it. False when the channel was not
  /// in the table. Erases through the found node: `map::erase(key)`
  /// walks the tree again for the range.
  bool erase(const ip::ChannelId& channel) {
    auto it = channels_.find(channel);
    if (it == channels_.end()) return false;
    it->second.teardown();
    channels_.erase(it);
    return true;
  }
  [[nodiscard]] bool contains(const ip::ChannelId& channel) const {
    return channels_.contains(channel);
  }
  [[nodiscard]] std::map<ip::ChannelId, Channel>& channels() {
    return channels_;
  }
  [[nodiscard]] const std::map<ip::ChannelId, Channel>& channels() const {
    return channels_;
  }
  [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }
  [[nodiscard]] std::int64_t subtree_count(const ip::ChannelId& channel) const;

  // --- authentication (§3.5) -----------------------------------------
  /// Record the authoritative K(S,E) a directly attached source
  /// registered here (§2.1).
  void register_key(const ip::ChannelId& channel, ip::ChannelKey key);
  /// Is `key` acceptable for a join? `at_root` is the router-computed
  /// "we are the first hop / validation authority" predicate;
  /// `locally_decidable` reports whether the answer is final or the
  /// join must be validated upstream.
  [[nodiscard]] bool key_acceptable(const ip::ChannelId& channel,
                                    const Channel& state,
                                    std::optional<ip::ChannelKey> key,
                                    bool at_root,
                                    bool& locally_decidable) const;
  /// A locally decided rejection: count it, and drop the channel again
  /// if this join had just created it.
  void reject_join(const ip::ChannelId& channel, bool created);

  // --- membership transitions (§3.2) ---------------------------------
  /// Leave: drop `from`'s downstream entry. False when nothing changed.
  bool remove_downstream(Channel& state, net::NodeId from);
  /// Count refresh over an already-validated session: no re-validation
  /// (§3.5). False when the fast path does not apply.
  bool refresh_existing(Channel& state, net::NodeId from, std::int64_t count,
                        sim::Time now);
  /// Join or update `from`'s entry; `is_new` reports a 0 -> non-zero
  /// transition (a subscribe event).
  DownstreamEntry& apply_join(Channel& state, net::NodeId from,
                              std::int64_t count,
                              std::optional<ip::ChannelKey> key,
                              bool locally_decidable, sim::Time now,
                              bool& is_new);

  /// Decide what (if anything) to send upstream after a membership
  /// change, mutating advertised/pending-key state accordingly.
  UpstreamPlan plan_upstream_update(Channel& state,
                                    std::optional<ip::ChannelKey> key_to_forward,
                                    bool upstream_is_router);

  /// Apply an upstream CountResponse verdict (§3.2): cache the
  /// validated key, accept/reject pending joins, plan the rejoin.
  VerdictEffects apply_upstream_verdict(const ip::ChannelId& channel,
                                        bool accepted);

  /// Route change (§3.2): move the channel to a new upstream after the
  /// hysteresis delay; the old advertisement becomes a prune.
  RouteSwitch apply_route_switch(const ip::ChannelId& channel,
                                 net::NodeId new_upstream,
                                 std::optional<std::uint32_t> new_rpf_iface,
                                 bool old_upstream_is_router);

  /// Downstream entries `self` can no longer reach (connection reset):
  /// net::Topology::reach says the way to them is down.
  [[nodiscard]] std::vector<std::pair<ip::ChannelId, net::NodeId>>
  collect_dead_children(const net::Topology& topology, net::NodeId self) const;

  /// One UDP soft-state round (§3.2): refresh queries for live entries
  /// (one LAN-wide general query per multi-access interface), then the
  /// expirations, in legacy execution order.
  [[nodiscard]] std::vector<UdpAction> udp_refresh_actions(
      const net::Topology& topology, net::NodeId self, sim::Time now,
      sim::Duration lifetime,
      const std::function<bool(std::uint32_t)>& iface_is_udp) const;

  // --- counting support (§3.1) ---------------------------------------
  /// This router's own contribution to a network-layer count.
  [[nodiscard]] std::int64_t local_contribution(const Channel& state,
                                                ecmp::CountId count_id,
                                                const net::Topology& topology,
                                                net::NodeId self) const;
  /// Downstream tree neighbors a CountQuery fans out to: hosts only for
  /// host-visible ids; domain-scoped counts stay inside the domain.
  [[nodiscard]] std::vector<net::NodeId> query_children(
      const Channel& state, ecmp::CountId count_id,
      const net::Topology& topology, net::NodeId self) const;

  // --- introspection -------------------------------------------------
  /// §5.2 management-state estimate for channels + key registry.
  [[nodiscard]] std::size_t management_state_bytes() const;

  /// Copy of the registry-bound block (see DESIGN.md §11).
  [[nodiscard]] SubscriptionStats stats() const { return *stats_; }

 private:
  /// Ordered by channel: router sweeps (re-announce, neighbor death,
  /// route change, UDP refresh) emit messages in iteration order.
  std::map<ip::ChannelId, Channel> channels_;
  /// Authoritative keys registered by directly attached sources.
  std::unordered_map<ip::ChannelId, ip::ChannelKey> key_registry_;
  SubscriptionStats* stats_;  ///< registry-owned block
};

}  // namespace express
