#include "audit/invariants.hpp"

#include <algorithm>
#include <memory>
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

/// One on-tree (router, channel) pair as the loop pass colours it.
struct LoopPair {
  ip::ChannelId channel;
  net::NodeId router = net::kInvalidNode;
  net::NodeId upstream = net::kInvalidNode;
  Color color = Color::kWhite;
};

/// What the orphan check reports for one of a router's pairs, recorded
/// by the conservation walk over the pair's downstream entries.
struct PairVerdict {
  ip::ChannelId channel;
  std::int64_t subtree = 0;    ///< sum of the downstream counts
  bool has_fib = false;        ///< the router holds an FIB entry for it
  bool replication_ok = true;  ///< FIB oifs match the member interfaces
};

/// What a check found. The memo keeps findings as numbers and formats
/// a violation's detail only when a report is assembled, so a router's
/// share holds no strings.
enum class Finding : std::uint8_t {
  kChildOffTree,      ///< a: child router, b: recorded count
  kChildUpstream,     ///< a: child router, b: the child's upstream
  kChildAdvertised,   ///< a: recorded count, b: child, c: its advertised
  kHostCount,         ///< a: recorded count, b: host, c: its local count
  kParentMissing,     ///< a: advertised, b: upstream router
  kAdvertisedSign,    ///< a: advertised, b: subtree count
  kProactiveDrift,    ///< a: advertised, b: subtree count
  kRpfMismatch,       ///< a: upstream, b: RPF neighbour
  kNonPositiveTree,   ///< a: subtree count
  kMissingFib,
  kReplication,
  kFibOrphan,
  kLoop,              ///< a: revisited router, b: where the walk started
};

struct Record {
  Finding finding = Finding::kChildOffTree;
  net::NodeId router = net::kInvalidNode;
  ip::ChannelId channel;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
};

/// The violation `r` reports, with the detail text the checks define.
Violation describe(const Record& r, std::uint64_t trace_index) {
  const auto n = [](std::int64_t v) { return std::to_string(v); };
  Check check = Check::kCountConservation;
  std::string detail;
  switch (r.finding) {
    case Finding::kChildOffTree:
      detail = "downstream entry for router " + n(r.a) + " (count " + n(r.b) +
               ") but the child is off-tree";
      break;
    case Finding::kChildUpstream:
      detail = "downstream entry for router " + n(r.a) + " whose upstream is " +
               n(r.b) + ", not this router";
      break;
    case Finding::kChildAdvertised:
      detail = "recorded count " + n(r.a) + " for router " + n(r.b) +
               " != child's advertised " + n(r.c);
      break;
    case Finding::kHostCount:
      detail = "recorded count " + n(r.a) + " for host " + n(r.b) +
               " != host's local count " + n(r.c);
      break;
    case Finding::kParentMissing:
      detail = "advertised " + n(r.a) + " to router " + n(r.b) +
               " which has no matching downstream entry";
      break;
    case Finding::kAdvertisedSign:
      detail = "advertised " + n(r.a) + " upstream but subtree count is " +
               n(r.b);
      break;
    case Finding::kProactiveDrift:
      detail = "proactive mode: advertised " + n(r.a) + " != subtree count " +
               n(r.b);
      break;
    case Finding::kRpfMismatch:
      check = Check::kRpfConsistency;
      detail = "upstream is " + n(r.a) + " but RPF neighbor toward the source is " +
               n(r.b);
      break;
    case Finding::kNonPositiveTree:
      check = Check::kOrphanState;
      detail = "on-tree with subtree count " + n(r.a) +
               " (empty channels must be torn down)";
      break;
    case Finding::kMissingFib:
      check = Check::kOrphanState;
      detail = "membership state without a FIB entry";
      break;
    case Finding::kReplication:
      check = Check::kOrphanState;
      detail = "FIB replication set does not match the member interfaces";
      break;
    case Finding::kFibOrphan:
      check = Check::kOrphanState;
      detail = "FIB entry without membership state";
      break;
    case Finding::kLoop:
      check = Check::kForwardingLoop;
      detail = "upstream pointers revisit router " + n(r.a) +
               " (walk started at " + n(r.b) + ")";
      break;
  }
  return Violation{check, r.router, r.channel, std::move(detail), trace_index};
}

/// One router's share of the report, as its per-router pass left it.
struct RouterShare {
  net::NodeId router = net::kInvalidNode;
  std::uint32_t pairs = 0;  ///< (router, channel) pairs audited
  std::size_t edges = 0;    ///< parent/child count agreements checked
  /// In walk order: channels ascending, conservation and RPF first per
  /// channel, then orphan state.
  std::vector<Record> findings;
};

/// Scratch of the per-router pass: buffers sized by one router's pairs
/// and refilled per router rather than reallocated. Nothing is indexed
/// by NodeId; a node's type is resolved when a check names it.
struct Walk {
  const net::Network* network = nullptr;
  net::InterfaceSet expected;          ///< one pair's member interfaces
  std::vector<ip::ChannelId> orphans;  ///< one router's FIB orphans
  std::vector<PairVerdict> verdicts;   ///< one router's pairs
  RouterShare* share = nullptr;        ///< the router being walked

  /// The EXPRESS router attached at `id`, or nullptr. The node kind is
  /// an exact pre-filter: ExpressRouter only attaches to router nodes.
  [[nodiscard]] const ExpressRouter* router(net::NodeId id) const {
    return attached_as<ExpressRouter>(id, net::NodeKind::kRouter);
  }
  /// Likewise for EXPRESS hosts, which only attach to host nodes.
  [[nodiscard]] const ExpressHost* host(net::NodeId id) const {
    return attached_as<ExpressHost>(id, net::NodeKind::kHost);
  }

  void flag(Finding finding, net::NodeId router, const ip::ChannelId& channel,
            std::int64_t a = 0, std::int64_t b = 0, std::int64_t c = 0) {
    share->findings.push_back(Record{finding, router, channel, a, b, c});
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

/// Also records the pair's subtree count and replication verdict, from
/// the same walk over the downstream entries, as w.verdicts' next entry.
void check_conservation(Walk& w, net::NodeId self, const ExpressRouter& router,
                        const ip::ChannelId& channel, const Channel& state,
                        std::optional<net::NodeId> rpf) {
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
    ++w.share->edges;
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
        w.flag(Finding::kChildOffTree, self, channel, neighbor, entry.count);
        continue;
      }
      if (child->upstream != self) {
        w.flag(Finding::kChildUpstream, self, channel, neighbor,
               child->upstream);
        continue;
      }
      if (child->advertised_upstream != entry.count) {
        w.flag(Finding::kChildAdvertised, self, channel, entry.count, neighbor,
               child->advertised_upstream);
      }
    } else if (const ExpressHost* host = w.host(neighbor)) {
      const std::int64_t local = host->local_count(channel);
      if (local != entry.count) {
        w.flag(Finding::kHostCount, self, channel, entry.count, neighbor,
               local);
      }
    }
  }

  w.verdicts.push_back(PairVerdict{
      channel, subtree, fib != nullptr,
      fib == nullptr || !resolvable || fib->oifs == w.expected});

  // Child side: what this router advertised upstream must be recorded
  // there (a stale parent entry is caught above; a *missing* one here).
  const bool upstream_is_router = state.upstream != net::kInvalidNode &&
                                  is_router_node(*w.network, state.upstream);
  if (upstream_is_router && state.advertised_upstream > 0) {
    if (const ExpressRouter* parent_router = w.router(state.upstream)) {
      const Channel* parent = parent_router->subscriptions().find(channel);
      if (parent == nullptr || !parent->downstream.contains(self)) {
        w.flag(Finding::kParentMissing, self, channel,
               state.advertised_upstream, state.upstream);
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
      w.flag(Finding::kAdvertisedSign, self, channel,
             state.advertised_upstream, subtree);
    } else if (router.proactive() &&
               state.advertised_upstream != subtree) {
      w.flag(Finding::kProactiveDrift, self, channel,
             state.advertised_upstream, subtree);
    }
  }
}

// --- (b) RPF consistency ---------------------------------------------

/// `settling`: the router holds a route switch back (§3.2 hysteresis)
/// and so is not in violation yet.
void check_rpf(Walk& w, net::NodeId self, bool settling,
               const ip::ChannelId& channel, const Channel& state,
               std::optional<net::NodeId> rpf) {
  if (settling) return;
  if (!rpf) return;  // source unresolvable or unreachable
  if (state.upstream != net::kInvalidNode && state.upstream != *rpf) {
    w.flag(Finding::kRpfMismatch, self, channel, state.upstream, *rpf);
  }
}

// --- (c) orphan forwarding state -------------------------------------

/// Reports what the router pass recorded for the router's pairs, in its
/// channel order.
void check_orphans(Walk& w, net::NodeId self, const ExpressRouter& router) {
  std::size_t with_fib = 0;
  for (const PairVerdict& pair : w.verdicts) {
    const ip::ChannelId& channel = pair.channel;
    if (pair.subtree <= 0) {
      w.flag(Finding::kNonPositiveTree, self, channel, pair.subtree);
    }
    if (!pair.has_fib) {
      w.flag(Finding::kMissingFib, self, channel);
      continue;
    }
    ++with_fib;
    if (!pair.replication_ok) {
      w.flag(Finding::kReplication, self, channel);
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
    w.flag(Finding::kFibOrphan, self, channel);
  }
}

// --- the per-router pass: (a)-(c) -------------------------------------

/// Rebuilds `share` from the router's hard state and the neighbours its
/// checks name.
void walk_router(Walk& w, net::NodeId self, const ExpressRouter& router,
                 RouterShare& share) {
  share.findings.clear();
  share.pairs = 0;
  share.edges = 0;
  w.share = &share;
  w.verdicts.clear();
  const bool settling = router.pending_route_switches() > 0;
  for (const auto& [channel, state] : router.subscriptions().channels()) {
    const auto rpf = resolve_rpf(*w.network, self, channel);
    check_conservation(w, self, router, channel, state, rpf);
    check_rpf(w, self, settling, channel, state, rpf);
    ++share.pairs;
  }
  check_orphans(w, self, router);
}

// --- (d) forwarding loops --------------------------------------------

/// Records every revisit in `loops`; `path` is one walk's scratch.
void check_loops(std::vector<LoopPair>& pairs, std::vector<std::size_t>& path,
                 std::vector<Record>& loops) {
  // Per channel, upstream pointers must form a forest: walk from every
  // on-tree router toward the source; a revisit inside one walk is a
  // loop. Colours live on the pairs and memoize finished walks, so the
  // pass stays linear in the pairs plus one binary search per step.
  // Pairs arrive router-major; with one channel that is already the
  // channel-major order the pass needs.
  const auto channel_major = [](const LoopPair& a, const LoopPair& b) {
    return a.channel != b.channel ? a.channel < b.channel
                                  : a.router < b.router;
  };
  if (!std::is_sorted(pairs.begin(), pairs.end(), channel_major)) {
    std::sort(pairs.begin(), pairs.end(), channel_major);
  }
  for (std::size_t begin = 0; begin < pairs.size();) {
    const ip::ChannelId& channel = pairs[begin].channel;
    std::size_t end = begin + 1;
    while (end < pairs.size() && pairs[end].channel == channel) ++end;
    // The channel's pair at router `id`, or nullptr when `id` holds no
    // state for it (the root's upstream, a host, a detached head).
    const auto pair_at = [&](net::NodeId id) -> LoopPair* {
      const auto it = std::lower_bound(
          pairs.begin() + static_cast<std::ptrdiff_t>(begin),
          pairs.begin() + static_cast<std::ptrdiff_t>(end), id,
          [](const LoopPair& pair, net::NodeId r) { return pair.router < r; });
      return it != pairs.begin() + static_cast<std::ptrdiff_t>(end) &&
                     it->router == id
                 ? &*it
                 : nullptr;
    };
    for (std::size_t i = begin; i < end; ++i) {
      if (pairs[i].color != Color::kWhite) continue;
      LoopPair* at = &pairs[i];
      while (true) {
        path.push_back(static_cast<std::size_t>(at - pairs.data()));
        at->color = Color::kGray;
        const net::NodeId up = at->upstream;
        LoopPair* next = up == net::kInvalidNode ? nullptr : pair_at(up);
        if (next == nullptr) break;  // reached the root / a detached head
        if (next->color == Color::kGray) {
          loops.push_back(
              Record{Finding::kLoop, up, channel, up, pairs[i].router});
          break;
        }
        if (next->color == Color::kDone) break;
        at = next;
      }
      for (const std::size_t k : path) pairs[k].color = Color::kDone;
      path.clear();
    }
    begin = end;
  }
}

/// The audit's memory between samples. The first run() installs one as
/// the network's state observer; routers and hosts note every change of
/// the hard state the checks read. A router's share of the report
/// depends only on its own state, its neighbours' (the parent and child
/// cross-checks name only reach()-adjacent nodes) and unicast routing,
/// so a sample re-walks each noted router and each router adjacent to a
/// noted node, directly or across a LAN hub, that holds any state: a
/// router holding no channel and no FIB entry is clean whatever its
/// neighbours hold. A routing change re-walks every router holding
/// state. The loop pass re-runs only when a pair's upstream pointer
/// changed or a pair came or went. Fault injection can name a distant
/// router in a table; such a share is re-walked when its own router is
/// noted, not when the distant one changes.
class Memo final : public net::StateObserver {
 public:
  explicit Memo(const net::Network& network)
      : network_(&network),
        noted_(network.topology().node_count()),
        counted_(network.topology().node_count()) {
    walk_.network = &network;
  }

  void on_state_change(net::NodeId id) override {
    if (id < noted_.size() && !noted_[id]) {
      noted_[id] = true;
      dirty_.push_back(id);
    }
  }

  AuditReport run();

 private:
  /// The first share at or after router `id`.
  [[nodiscard]] std::vector<RouterShare>::iterator share_at(net::NodeId id) {
    return std::lower_bound(
        shares_.begin(), shares_.end(), id,
        [](const RouterShare& share, net::NodeId r) { return share.router < r; });
  }
  [[nodiscard]] bool holds_state(net::NodeId id) {
    const auto it = share_at(id);
    return it != shares_.end() && it->router == id;
  }
  /// Queue `id` (when a router node) and the routers holding state that
  /// read it as a parent or child: adjacent, or across a LAN hub.
  void queue_readers(net::NodeId id);
  /// Re-walk router `id`, keeping the totals in step with its share.
  void refresh(net::NodeId id, const ExpressRouter& router);
  /// Whether `router`'s pairs differ from those the last loop pass saw.
  [[nodiscard]] bool pairs_moved(net::NodeId id, const ExpressRouter& router,
                                 std::uint32_t pairs_before) const;
  void add_totals(const RouterShare& share, int sign);
  void run_loop_pass();

  const net::Network* network_;
  Walk walk_;
  std::vector<bool> noted_;    ///< per node: in dirty_
  std::vector<bool> counted_;  ///< per node: an EXPRESS router, counted
  std::vector<net::NodeId> dirty_;  ///< noted since the last sample
  std::vector<net::NodeId> queue_;  ///< this sample's routers to re-walk
  /// Sorted by router id, the order the report lists violations in:
  /// exactly the routers with a channel or an FIB entry.
  std::vector<RouterShare> shares_;
  /// Every pair with its upstream pointer as the last loop pass saw it,
  /// channel-major: the memory the pass is re-run against.
  std::vector<LoopPair> loop_pairs_;
  std::vector<std::size_t> path_;
  std::vector<Record> loops_;  ///< the last loop pass's findings
  bool loops_stale_ = true;
  bool cold_ = true;
  std::uint64_t routing_version_ = 0;
  std::size_t routers_ = 0;
  std::size_t channels_ = 0;
  std::size_t edges_ = 0;
  std::size_t findings_ = 0;
};

void Memo::queue_readers(net::NodeId id) {
  const net::Topology& topology = network_->topology();
  if (topology.node(id).kind == net::NodeKind::kRouter) queue_.push_back(id);
  for (const net::Port& port : topology.node(id).ports) {
    switch (topology.node(port.peer).kind) {
      case net::NodeKind::kRouter:
        if (holds_state(port.peer)) queue_.push_back(port.peer);
        break;
      case net::NodeKind::kLanHub:
        for (const net::Port& across : topology.node(port.peer).ports) {
          if (across.peer != id && holds_state(across.peer)) {
            queue_.push_back(across.peer);
          }
        }
        break;
      case net::NodeKind::kHost:
        break;
    }
  }
}

void Memo::add_totals(const RouterShare& share, int sign) {
  const auto step = [sign](std::size_t& total, std::size_t n) {
    total = sign > 0 ? total + n : total - n;
  };
  step(channels_, share.pairs);
  step(edges_, share.edges);
  step(findings_, share.findings.size());
}

bool Memo::pairs_moved(net::NodeId id, const ExpressRouter& router,
                       std::uint32_t pairs_before) const {
  if (router.subscriptions().channel_count() != pairs_before) return true;
  for (const auto& [channel, state] : router.subscriptions().channels()) {
    const auto it = std::lower_bound(
        loop_pairs_.begin(), loop_pairs_.end(), std::pair(channel, id),
        [](const LoopPair& pair, const std::pair<ip::ChannelId, net::NodeId>& key) {
          return pair.channel != key.first ? pair.channel < key.first
                                           : pair.router < key.second;
        });
    if (it == loop_pairs_.end() || it->channel != channel || it->router != id ||
        it->upstream != state.upstream) {
      return true;
    }
  }
  return false;
}

void Memo::refresh(net::NodeId id, const ExpressRouter& router) {
  if (!counted_[id]) {
    counted_[id] = true;
    ++routers_;
  }
  auto it = share_at(id);
  const bool known = it != shares_.end() && it->router == id;
  if (router.subscriptions().channel_count() == 0 && router.fib().size() == 0) {
    if (!known) return;
    add_totals(*it, -1);
    if (it->pairs > 0) loops_stale_ = true;
    shares_.erase(it);
    return;
  }
  if (!known) it = shares_.insert(it, RouterShare{id, 0, 0, {}});
  add_totals(*it, -1);
  const std::uint32_t pairs_before = it->pairs;
  walk_router(walk_, id, router, *it);
  if (!loops_stale_ && pairs_moved(id, router, pairs_before)) {
    loops_stale_ = true;
  }
  add_totals(*it, +1);
}

void Memo::run_loop_pass() {
  // Read from the tables: a router not re-walked this sample has not
  // changed since its share was made.
  loop_pairs_.clear();
  for (const RouterShare& share : shares_) {
    const ExpressRouter* router = walk_.router(share.router);
    for (const auto& [channel, state] : router->subscriptions().channels()) {
      loop_pairs_.push_back(LoopPair{channel, share.router, state.upstream});
    }
  }
  loops_.clear();
  check_loops(loop_pairs_, path_, loops_);
  loops_stale_ = false;
}

AuditReport Memo::run() {
  AuditReport report;
  queue_.clear();
  for (const net::NodeId id : dirty_) {
    noted_[id] = false;
    if (!cold_) queue_readers(id);
  }
  dirty_.clear();
  const std::uint64_t version = network_->routing().version();
  if (cold_) {
    // The first sample walks every node: it counts the EXPRESS routers,
    // which later samples learn of from attach notes alone.
    const std::size_t n = network_->topology().node_count();
    for (net::NodeId id = 0; id < n; ++id) {
      if (const ExpressRouter* router = walk_.router(id)) {
        refresh(id, *router);
        ++report.routers_walked;
      }
    }
    cold_ = false;
  } else {
    if (version != routing_version_) {
      for (const RouterShare& share : shares_) queue_.push_back(share.router);
    }
    std::sort(queue_.begin(), queue_.end());
    queue_.erase(std::unique(queue_.begin(), queue_.end()), queue_.end());
    for (const net::NodeId id : queue_) {
      if (const ExpressRouter* router = walk_.router(id)) {
        refresh(id, *router);
        ++report.routers_walked;
      }
    }
  }
  routing_version_ = version;
  if (loops_stale_) run_loop_pass();

  report.routers_audited = routers_;
  report.channels_audited = channels_;
  report.edges_checked = edges_;
  if (findings_ + loops_.size() == 0) return report;
  // The audit emits no trace records, so every violation of one sample
  // shares the trace position the sample was taken at.
  const std::uint64_t trace_index = network_->obs().trace.next_index();
  report.violations.reserve(findings_ + loops_.size());
  const auto append = [&](const std::vector<Record>& from) {
    for (const Record& r : from) {
      report.violations.push_back(describe(r, trace_index));
    }
  };
  for (const RouterShare& share : shares_) append(share.findings);
  append(loops_);
  return report;
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
  net::StateObserver* slot = network_->state_observer();
  if (slot == nullptr) {
    auto memo = std::make_unique<Memo>(*network_);
    slot = memo.get();
    network_->set_state_observer(std::move(memo));
  } else if (typeid(*slot) != typeid(Memo)) {
    return full_walk();  // the slot serves another reader
  }
  return static_cast<Memo*>(slot)->run();
}

AuditReport InvariantAuditor::full_walk() const {
  Memo scratch(*network_);
  return scratch.run();
}

}  // namespace express::audit
