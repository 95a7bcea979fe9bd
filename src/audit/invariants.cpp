#include "audit/invariants.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "express/host.hpp"
#include "express/router.hpp"
#include "express/subscription.hpp"
#include "net/adjacency.hpp"
#include "net/network.hpp"

namespace express::audit {

namespace {

/// One on-tree (router, channel) pair, as the loop pass consumes them.
struct OnTree {
  ip::ChannelId channel;
  net::NodeId router = net::kInvalidNode;
  const Channel* state = nullptr;
};

enum class Color : std::uint8_t { kWhite, kGray, kDone };

/// Per-call scratch of one audit. Everything is sized once per call: a
/// NodeId-indexed view of the EXPRESS nodes, then buffers that are
/// refilled per router or per channel rather than reallocated.
struct Walk {
  const net::Network* network = nullptr;
  std::vector<const ExpressRouter*> routers;  ///< by NodeId; nullptr if none
  std::vector<const ExpressHost*> hosts;      ///< by NodeId; nullptr if none
  /// Ascending: violations are appended in walk order, and a
  /// reproducible report is itself one of the guarantees under test.
  std::vector<net::NodeId> router_ids;
  net::InterfaceSet expected;          ///< one pair's member interfaces
  std::vector<ip::ChannelId> orphans;  ///< one router's FIB orphans
  std::vector<OnTree> on_tree;         ///< every pair, for the loop pass
  std::vector<Color> color;            ///< by NodeId, loop pass
  std::vector<net::NodeId> touched;    ///< nodes coloured this channel
  AuditReport report;

  [[nodiscard]] const ExpressRouter* router(net::NodeId id) const {
    return id < routers.size() ? routers[id] : nullptr;
  }
  [[nodiscard]] const ExpressHost* host(net::NodeId id) const {
    return id < hosts.size() ? hosts[id] : nullptr;
  }

  void flag(Check check, net::NodeId router, const ip::ChannelId& channel,
            std::string detail) {
    report.violations.push_back(Violation{check, router, channel,
                                          std::move(detail),
                                          network->obs().trace.next_index()});
  }
};

/// This router's RPF neighbour toward the channel's source; nullopt
/// when the source is unresolvable or unreachable. Resolved once per
/// (router, channel) and shared by checks (a) and (b).
std::optional<net::NodeId> resolve_rpf(const net::Network& network,
                                       net::NodeId self,
                                       const ip::ChannelId& channel) {
  const auto source = network.node_of(channel.source);
  if (!source) return std::nullopt;
  return network.routing().rpf_neighbor(self, *source);
}

bool is_router_node(const net::Network& network, net::NodeId id) {
  return network.topology().node(id).kind == net::NodeKind::kRouter;
}

// --- (a) count conservation ------------------------------------------

void check_conservation(Walk& w, net::NodeId self, const ExpressRouter& router,
                        const ip::ChannelId& channel, const Channel& state,
                        std::optional<net::NodeId> rpf) {
  // Parent side: each downstream entry must restate what the child
  // itself currently claims.
  for (const auto& [neighbor, entry] : state.downstream) {
    ++w.report.edges_checked;
    if (const ExpressRouter* child_router = w.router(neighbor)) {
      const Channel* child = child_router->subscriptions().find(channel);
      if (child == nullptr) {
        w.flag(Check::kCountConservation, self, channel,
               "downstream entry for router " + std::to_string(neighbor) +
                   " (count " + std::to_string(entry.count) +
                   ") but the child is off-tree");
        continue;
      }
      if (child->upstream != self) {
        w.flag(Check::kCountConservation, self, channel,
               "downstream entry for router " + std::to_string(neighbor) +
                   " whose upstream is " + std::to_string(child->upstream) +
                   ", not this router");
        continue;
      }
      if (child->advertised_upstream != entry.count) {
        w.flag(Check::kCountConservation, self, channel,
               "recorded count " + std::to_string(entry.count) +
                   " for router " + std::to_string(neighbor) +
                   " != child's advertised " +
                   std::to_string(child->advertised_upstream));
      }
    } else if (const ExpressHost* host = w.host(neighbor)) {
      const std::int64_t local = host->local_count(channel);
      if (local != entry.count) {
        w.flag(Check::kCountConservation, self, channel,
               "recorded count " + std::to_string(entry.count) + " for host " +
                   std::to_string(neighbor) + " != host's local count " +
                   std::to_string(local));
      }
    }
  }

  // Child side: what this router advertised upstream must be recorded
  // there (a stale parent entry is caught above; a *missing* one here).
  const bool upstream_is_router = state.upstream != net::kInvalidNode &&
                                  is_router_node(*w.network, state.upstream);
  if (upstream_is_router && state.advertised_upstream > 0) {
    if (const ExpressRouter* parent_router = w.router(state.upstream)) {
      const Channel* parent = parent_router->subscriptions().find(channel);
      if (parent == nullptr || !parent->downstream.contains(self)) {
        w.flag(Check::kCountConservation, self, channel,
               "advertised " + std::to_string(state.advertised_upstream) +
                   " to router " + std::to_string(state.upstream) +
                   " which has no matching downstream entry");
      }
    }
  }

  // The advertisement itself: sign-consistent with the subtree sum
  // always; exactly equal when drift is pushed proactively (§6) —
  // without proactive counting, non-zero -> non-zero drift is
  // legitimately never sent (§3.2 only signals 0 <-> non-zero). Mirror
  // of ExpressRouter::at_root: the router is the tree root when the
  // source is unresolvable or unroutable (no RPF neighbour), or directly
  // attached (which already fails upstream_is_router).
  if (rpf && upstream_is_router) {
    const std::int64_t subtree = state.subtree_count();
    if ((state.advertised_upstream > 0) != (subtree > 0)) {
      w.flag(Check::kCountConservation, self, channel,
             "advertised " + std::to_string(state.advertised_upstream) +
                 " upstream but subtree count is " + std::to_string(subtree));
    } else if (router.config().proactive &&
               state.advertised_upstream != subtree) {
      w.flag(Check::kCountConservation, self, channel,
             "proactive mode: advertised " +
                 std::to_string(state.advertised_upstream) +
                 " != subtree count " + std::to_string(subtree));
    }
  }
}

// --- (b) RPF consistency ---------------------------------------------

void check_rpf(Walk& w, net::NodeId self, const ExpressRouter& router,
               const ip::ChannelId& channel, const Channel& state,
               std::optional<net::NodeId> rpf) {
  // Hysteresis (§3.2) intentionally delays the switch; an unsettled
  // router is not in violation yet.
  if (router.pending_route_switches() > 0) return;
  if (!rpf) return;  // source unresolvable or unreachable
  if (state.upstream != net::kInvalidNode && state.upstream != *rpf) {
    w.flag(Check::kRpfConsistency, self, channel,
           "upstream is " + std::to_string(state.upstream) +
               " but RPF neighbor toward the source is " +
               std::to_string(*rpf));
  }
}

// --- (c) orphan forwarding state -------------------------------------

void check_orphans(Walk& w, net::NodeId self, const ExpressRouter& router) {
  std::size_t with_fib = 0;
  for (const auto& [channel, state] : router.subscriptions().channels()) {
    const std::int64_t subtree = state.subtree_count();
    if (subtree <= 0) {
      w.flag(Check::kOrphanState, self, channel,
             "on-tree with subtree count " + std::to_string(subtree) +
                 " (empty channels must be torn down)");
    }
    const FibEntry* fib = router.fib().find(channel);
    if (fib == nullptr) {
      w.flag(Check::kOrphanState, self, channel,
             "membership state without a FIB entry");
      continue;
    }
    ++with_fib;
    // Replication set: every member with a currently resolvable
    // interface must be covered, and no interface may linger with no
    // member behind it. Skipped when adjacency is in flux (an
    // unresolvable member means a partition is still healing).
    w.expected.reset();
    bool resolvable = true;
    for (const auto& [neighbor, entry] : state.downstream) {
      if (entry.count <= 0) continue;
      if (auto iface = net::iface_toward(*w.network, self, neighbor)) {
        w.expected.set(*iface);
      } else {
        resolvable = false;
      }
    }
    if (resolvable && !(fib->oifs == w.expected)) {
      w.flag(Check::kOrphanState, self, channel,
             "FIB replication set does not match the member interfaces");
    }
  }
  // Every member channel found its own FIB entry; when that covers the
  // whole FIB, no entry can lack membership state.
  if (with_fib == router.fib().size()) return;
  w.orphans.clear();
  for (const auto& [channel, entry] : router.fib().entries()) {  // lint: order-independent (orphans sorted below)
    if (!router.subscriptions().contains(channel)) {
      w.orphans.push_back(channel);
    }
  }
  std::sort(w.orphans.begin(), w.orphans.end());
  for (const ip::ChannelId& channel : w.orphans) {
    w.flag(Check::kOrphanState, self, channel,
           "FIB entry without membership state");
  }
}

// --- (d) forwarding loops --------------------------------------------

void check_loops(Walk& w) {
  // Per channel, upstream pointers must form a forest: walk from every
  // on-tree router toward the source; a revisit inside one walk is a
  // loop. Colours memoize finished walks so the pass stays linear; the
  // nodes a channel coloured are reset to white before the next one.
  std::sort(w.on_tree.begin(), w.on_tree.end(),
            [](const OnTree& a, const OnTree& b) {
              return a.channel != b.channel ? a.channel < b.channel
                                            : a.router < b.router;
            });
  w.color.assign(w.routers.size(), Color::kWhite);
  for (std::size_t i = 0; i < w.on_tree.size(); ++i) {
    const OnTree& start = w.on_tree[i];
    const ip::ChannelId& channel = start.channel;
    if (w.color[start.router] == Color::kWhite) {
      const std::size_t path = w.touched.size();
      net::NodeId at = start.router;
      const Channel* state = start.state;
      while (true) {
        w.touched.push_back(at);
        w.color[at] = Color::kGray;
        if (state == nullptr || state->upstream == net::kInvalidNode ||
            w.router(state->upstream) == nullptr) {
          break;  // reached the root / a detached head: no loop this way
        }
        const net::NodeId up = state->upstream;
        if (w.color[up] == Color::kGray) {
          w.flag(Check::kForwardingLoop, up, channel,
                 "upstream pointers revisit router " + std::to_string(up) +
                     " (walk started at " + std::to_string(start.router) +
                     ")");
          break;
        }
        if (w.color[up] == Color::kDone) break;
        at = up;
        state = w.routers[at]->subscriptions().find(channel);
      }
      for (std::size_t k = path; k < w.touched.size(); ++k) {
        w.color[w.touched[k]] = Color::kDone;
      }
    }
    const bool last = i + 1 == w.on_tree.size() ||
                      w.on_tree[i + 1].channel != channel;
    if (last) {
      for (net::NodeId n : w.touched) w.color[n] = Color::kWhite;
      w.touched.clear();
    }
  }
}

}  // namespace

const char* check_name(Check check) {
  switch (check) {
    case Check::kCountConservation:
      return "count_conservation";
    case Check::kRpfConsistency:
      return "rpf_consistency";
    case Check::kOrphanState:
      return "orphan_state";
    case Check::kForwardingLoop:
      return "forwarding_loop";
  }
  return "unknown";
}

std::size_t AuditReport::count(Check check) const {
  std::size_t n = 0;
  for (const Violation& v : violations) {
    if (v.check == check) ++n;
  }
  return n;
}

std::string AuditReport::to_string() const {
  std::string out;
  for (const Violation& v : violations) {
    out += std::string(check_name(v.check)) + " @router " +
           std::to_string(v.router) + " " + v.channel.to_string() + ": " +
           v.detail + "\n";
  }
  return out;
}

AuditReport InvariantAuditor::run() const {
  Walk w;
  w.network = network_;
  const std::size_t n = network_->topology().node_count();
  w.routers.assign(n, nullptr);
  w.hosts.assign(n, nullptr);
  // Both classes are final, so an exact typeid match is what a
  // dynamic_cast would decide, without its walk of the class hierarchy.
  static_assert(std::is_final_v<ExpressRouter> && std::is_final_v<ExpressHost>);
  for (net::NodeId id = 0; id < n; ++id) {
    const net::Node* node = network_->node(id);
    if (node == nullptr) continue;
    if (typeid(*node) == typeid(ExpressRouter)) {
      w.routers[id] = static_cast<const ExpressRouter*>(node);
      w.router_ids.push_back(id);
    } else if (typeid(*node) == typeid(ExpressHost)) {
      w.hosts[id] = static_cast<const ExpressHost*>(node);
    }
  }

  for (const net::NodeId id : w.router_ids) {
    const ExpressRouter& router = *w.routers[id];
    ++w.report.routers_audited;
    for (const auto& [channel, state] : router.subscriptions().channels()) {
      ++w.report.channels_audited;
      const auto rpf = resolve_rpf(*network_, id, channel);
      check_conservation(w, id, router, channel, state, rpf);
      check_rpf(w, id, router, channel, state, rpf);
      w.on_tree.push_back(OnTree{channel, id, &state});
    }
    check_orphans(w, id, router);
  }
  check_loops(w);
  return std::move(w.report);
}

}  // namespace express::audit
