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
#include "net/network.hpp"

namespace express::audit {

namespace {

enum class Color : std::uint8_t { kWhite, kGray, kDone };

/// One on-tree (router, channel) pair: found by the router pass, which
/// also records what the orphan check reports after the router's other
/// checks, and coloured by the loop pass.
struct OnTree {
  ip::ChannelId channel;
  net::NodeId router = net::kInvalidNode;
  const Channel* state = nullptr;
  std::int64_t subtree = 0;     ///< sum of the downstream counts
  bool has_fib = false;         ///< the router holds an FIB entry for it
  bool replication_ok = true;   ///< FIB oifs match the member interfaces
  Color color = Color::kWhite;
};

/// Per-call scratch of one audit: buffers sized by the on-tree state
/// and refilled per router or per channel rather than reallocated.
/// Nothing is indexed by NodeId; a node's type is resolved when a
/// check names it.
struct Walk {
  const net::Network* network = nullptr;
  net::InterfaceSet expected;          ///< one pair's member interfaces
  std::vector<ip::ChannelId> orphans;  ///< one router's FIB orphans
  /// Every pair, appended router by router in ascending id and channel
  /// order: violations are appended in walk order, and a reproducible
  /// report is itself one of the guarantees under test.
  std::vector<OnTree> on_tree;
  std::vector<std::size_t> path;  ///< one loop-pass walk, as on_tree indices
  AuditReport report;

  /// The EXPRESS router attached at `id`, or nullptr. The node kind is
  /// an exact pre-filter: ExpressRouter only attaches to router nodes.
  [[nodiscard]] const ExpressRouter* router(net::NodeId id) const {
    return attached_as<ExpressRouter>(id, net::NodeKind::kRouter);
  }
  /// Likewise for EXPRESS hosts, which only attach to host nodes.
  [[nodiscard]] const ExpressHost* host(net::NodeId id) const {
    return attached_as<ExpressHost>(id, net::NodeKind::kHost);
  }

  void flag(Check check, net::NodeId router, const ip::ChannelId& channel,
            std::string detail) {
    report.violations.push_back(Violation{check, router, channel,
                                          std::move(detail),
                                          network->obs().trace.next_index()});
  }

 private:
  template <typename T>
  [[nodiscard]] const T* attached_as(net::NodeId id, net::NodeKind kind) const {
    // T is final, so an exact typeid match is what a dynamic_cast would
    // decide, without its walk of the class hierarchy.
    static_assert(std::is_final_v<T>);
    const net::Topology& topology = network->topology();
    if (id >= topology.node_count() || topology.node(id).kind != kind) {
      return nullptr;
    }
    const net::Node* node = network->node(id);
    if (node == nullptr || typeid(*node) != typeid(T)) return nullptr;
    return static_cast<const T*>(node);
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

/// Also fills `pair`'s subtree count and replication verdict from the
/// same walk over the downstream entries.
void check_conservation(Walk& w, net::NodeId self, const ExpressRouter& router,
                        const ip::ChannelId& channel, const Channel& state,
                        std::optional<net::NodeId> rpf, OnTree& pair) {
  // Replication set, for (c): every member with a currently resolvable
  // interface must be covered, and no interface may linger with no
  // member behind it. Skipped when adjacency is in flux (an
  // unresolvable member means a partition is still healing).
  const FibEntry* fib = router.fib().find(channel);
  w.expected.reset();
  bool resolvable = true;
  std::int64_t subtree = 0;
  // Parent side: each downstream entry must restate what the child
  // itself currently claims.
  for (const auto& [neighbor, entry] : state.downstream) {
    ++w.report.edges_checked;
    subtree += entry.count;
    if (fib != nullptr && entry.count > 0) {
      if (auto iface = w.network->topology().reach(self, neighbor).iface) {
        w.expected.set(*iface);
      } else {
        resolvable = false;
      }
    }
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

  pair.subtree = subtree;
  pair.has_fib = fib != nullptr;
  pair.replication_ok = fib == nullptr || !resolvable || fib->oifs == w.expected;

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
    if ((state.advertised_upstream > 0) != (subtree > 0)) {
      w.flag(Check::kCountConservation, self, channel,
             "advertised " + std::to_string(state.advertised_upstream) +
                 " upstream but subtree count is " + std::to_string(subtree));
    } else if (router.proactive() &&
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

/// Reports the router's pairs on_tree[first..], those the router pass
/// has just appended, in the router's channel order.
void check_orphans(Walk& w, net::NodeId self, const ExpressRouter& router,
                   std::size_t first) {
  std::size_t with_fib = 0;
  for (std::size_t i = first; i < w.on_tree.size(); ++i) {
    const OnTree& pair = w.on_tree[i];
    const ip::ChannelId& channel = pair.channel;
    if (pair.subtree <= 0) {
      w.flag(Check::kOrphanState, self, channel,
             "on-tree with subtree count " + std::to_string(pair.subtree) +
                 " (empty channels must be torn down)");
    }
    if (!pair.has_fib) {
      w.flag(Check::kOrphanState, self, channel,
             "membership state without a FIB entry");
      continue;
    }
    ++with_fib;
    if (!pair.replication_ok) {
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
  // loop. Colours live on the pairs and memoize finished walks, so the
  // pass stays linear in the pairs plus one binary search per step.
  // Pairs arrive router-major; with one channel that is already the
  // channel-major order the pass needs.
  const auto channel_major = [](const OnTree& a, const OnTree& b) {
    return a.channel != b.channel ? a.channel < b.channel
                                  : a.router < b.router;
  };
  std::vector<OnTree>& pairs = w.on_tree;
  if (!std::is_sorted(pairs.begin(), pairs.end(), channel_major)) {
    std::sort(pairs.begin(), pairs.end(), channel_major);
  }
  for (std::size_t begin = 0; begin < pairs.size();) {
    const ip::ChannelId& channel = pairs[begin].channel;
    std::size_t end = begin + 1;
    while (end < pairs.size() && pairs[end].channel == channel) ++end;
    // The channel's pair at router `id`, or nullptr when `id` holds no
    // state for it (the root's upstream, a host, a detached head).
    const auto pair_at = [&](net::NodeId id) -> OnTree* {
      const auto it = std::lower_bound(
          pairs.begin() + static_cast<std::ptrdiff_t>(begin),
          pairs.begin() + static_cast<std::ptrdiff_t>(end), id,
          [](const OnTree& pair, net::NodeId r) { return pair.router < r; });
      return it != pairs.begin() + static_cast<std::ptrdiff_t>(end) &&
                     it->router == id
                 ? &*it
                 : nullptr;
    };
    for (std::size_t i = begin; i < end; ++i) {
      if (pairs[i].color != Color::kWhite) continue;
      OnTree* at = &pairs[i];
      while (true) {
        w.path.push_back(static_cast<std::size_t>(at - pairs.data()));
        at->color = Color::kGray;
        const net::NodeId up = at->state->upstream;
        OnTree* next = up == net::kInvalidNode ? nullptr : pair_at(up);
        if (next == nullptr) break;  // reached the root / a detached head
        if (next->color == Color::kGray) {
          w.flag(Check::kForwardingLoop, up, channel,
                 "upstream pointers revisit router " + std::to_string(up) +
                     " (walk started at " + std::to_string(pairs[i].router) +
                     ")");
          break;
        }
        if (next->color == Color::kDone) break;
        at = next;
      }
      for (const std::size_t k : w.path) pairs[k].color = Color::kDone;
      w.path.clear();
    }
    begin = end;
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
  for (net::NodeId id = 0; id < n; ++id) {
    const ExpressRouter* router = w.router(id);
    if (router == nullptr) continue;
    ++w.report.routers_audited;
    const std::size_t first = w.on_tree.size();
    for (const auto& [channel, state] : router->subscriptions().channels()) {
      ++w.report.channels_audited;
      OnTree pair{channel, id, &state};
      const auto rpf = resolve_rpf(*network_, id, channel);
      check_conservation(w, id, *router, channel, state, rpf, pair);
      check_rpf(w, id, *router, channel, state, rpf);
      w.on_tree.push_back(pair);
    }
    check_orphans(w, id, *router, first);
  }
  check_loops(w);
  return std::move(w.report);
}

}  // namespace express::audit
