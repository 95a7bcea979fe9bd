// InvariantAuditor (src/audit): a quiescent EXPRESS network passes all
// four tree invariants; an in-flight control message is visible as a
// transient disagreement; and each class of deliberately injected
// corruption is caught by exactly the check built for it, by a cold
// audit and by an incremental one whose memo was warmed first.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "audit/invariants.hpp"
#include "audit_match.hpp"
#include "baseline/dvmrp.hpp"
#include "express/host.hpp"
#include "express/router.hpp"
#include "helpers.hpp"
#include "net/lan.hpp"
#include "net/network.hpp"
#include "testbed/scenario.hpp"
#include "workload/churn.hpp"
#include "workload/topo_gen.hpp"

namespace express::test {
namespace {

using audit::AuditReport;
using audit::Check;
using audit::InvariantAuditor;

AuditReport run_audit(Testbed& sim) {
  return InvariantAuditor(sim.net()).run();
}

/// A settled tree with every receiver subscribed — the fixture the
/// corruption tests start from.
struct SettledTree {
  SettledTree() : sim(workload::make_kary_tree(2, 2)) {
    ch = sim.source().allocate_channel();
    for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
      sim.receiver(i).new_subscription(ch);
    }
    sim.run_for(sim::seconds(2));
  }

  /// First on-tree router whose upstream is another router (a mid/leaf
  /// router, never the tree root).
  ExpressRouter& interior_router() {
    for (std::size_t i = 0; i < sim.router_count(); ++i) {
      ExpressRouter& r = sim.router(i);
      const Channel* state = r.subscriptions().find(ch);
      if (state == nullptr || state->upstream == net::kInvalidNode) continue;
      if (sim.net().topology().node(state->upstream).kind ==
          net::NodeKind::kRouter) {
        return r;
      }
    }
    ADD_FAILURE() << "no interior on-tree router";
    return sim.router(0);
  }

  /// An on-tree router with a *host* downstream entry (a leaf router).
  ExpressRouter& leaf_router() {
    for (std::size_t i = 0; i < sim.router_count(); ++i) {
      ExpressRouter& r = sim.router(i);
      const Channel* state = r.subscriptions().find(ch);
      if (state == nullptr) continue;
      for (const auto& [neighbor, entry] : state->downstream) {
        if (sim.net().topology().node(neighbor).kind == net::NodeKind::kHost) {
          return r;
        }
      }
    }
    ADD_FAILURE() << "no on-tree leaf router";
    return sim.router(0);
  }

  Testbed sim;
  ip::ChannelId ch;
};

TEST(Audit, CleanAtQuiescence) {
  SettledTree t;
  const AuditReport report = run_audit(t.sim);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.routers_audited, t.sim.router_count());
  EXPECT_GT(report.channels_audited, 0u);
  EXPECT_GT(report.edges_checked, 0u);
}

TEST(Audit, CleanAfterChurnSettles) {
  sim::Rng rng(7);
  Testbed sim(workload::make_transit_stub(4, 2, 2, rng));
  const ip::ChannelId ch = sim.source().allocate_channel();
  scenario::replay_churn(
      sim, ch,
      workload::poisson_churn(static_cast<std::uint32_t>(sim.receiver_count()),
                              sim::seconds(20), sim::seconds(6),
                              sim::seconds(3), rng));
  sim.run_for(sim::seconds(25));
  const AuditReport report = run_audit(sim);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

// The auditor is only meaningful between events; sampled *mid-join*, the
// leaf has advertised a count the parent has not yet received, and the
// conservation check reports exactly that disagreement.
TEST(Audit, SeesInFlightJoinAsDisagreement) {
  Testbed sim(workload::make_kary_tree(2, 2));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  // Edge (host->leaf) links are 1 ms, core links 5 ms: at t = 2 ms the
  // leaf router has processed the join, its Count to the parent is
  // still on the wire.
  sim.run_for(sim::milliseconds(2));
  const AuditReport mid = run_audit(sim);
  EXPECT_FALSE(mid.clean());
  EXPECT_GE(mid.count(Check::kCountConservation), 1u);

  sim.run_for(sim::seconds(1));
  EXPECT_TRUE(run_audit(sim).clean());
}

// Each corruption below breaks a settled tree and hands back the edit
// that undoes it. Both go through corrupt_subscriptions_for_test(),
// which notes the router for the audit's memo, so the same cases serve
// a cold audit (a fresh network) and a warm one (after a clean audit).
using Revert = std::function<void()>;

void corrupt_advertised_count(SettledTree& t, Revert& revert) {
  ExpressRouter& router = t.interior_router();
  Channel* state = router.corrupt_subscriptions_for_test().find(t.ch);
  ASSERT_NE(state, nullptr);
  state->advertised_upstream += 3;
  revert = [&router, ch = t.ch] {
    router.corrupt_subscriptions_for_test().find(ch)->advertised_upstream -= 3;
  };
}

void corrupt_host_count(SettledTree& t, Revert& revert) {
  ExpressRouter& leaf = t.leaf_router();
  Channel* state = leaf.corrupt_subscriptions_for_test().find(t.ch);
  ASSERT_NE(state, nullptr);
  for (auto& [neighbor, entry] : state->downstream) {
    if (t.sim.net().topology().node(neighbor).kind == net::NodeKind::kHost) {
      entry.count += 1;  // claims 2 apps; the host has 1
      revert = [&leaf, ch = t.ch, host = neighbor] {
        leaf.corrupt_subscriptions_for_test()
            .find(ch)
            ->downstream.at(host)
            .count -= 1;
      };
      return;
    }
  }
  FAIL() << "the leaf has no host entry";
}

void corrupt_rpf(SettledTree& t, Revert& revert) {
  ExpressRouter& victim = t.interior_router();
  Channel* state = victim.corrupt_subscriptions_for_test().find(t.ch);
  ASSERT_NE(state, nullptr);
  // Point the upstream at some other router that is not the RPF
  // neighbor toward the source.
  const net::NodeId real_upstream = state->upstream;
  std::optional<net::NodeId> wrong;
  for (std::size_t i = 0; i < t.sim.router_count(); ++i) {
    const net::NodeId id = t.sim.roles().routers[i];
    if (id != real_upstream && &t.sim.router(i) != &victim) {
      wrong = id;
      break;
    }
  }
  ASSERT_TRUE(wrong.has_value());
  state->upstream = *wrong;
  revert = [&victim, ch = t.ch, real_upstream] {
    victim.corrupt_subscriptions_for_test().find(ch)->upstream = real_upstream;
  };
}

void corrupt_zero_subtree(SettledTree& t, Revert& revert) {
  ExpressRouter& leaf = t.leaf_router();
  Channel* state = leaf.corrupt_subscriptions_for_test().find(t.ch);
  ASSERT_NE(state, nullptr);
  const std::map<net::NodeId, DownstreamEntry> saved = state->downstream;
  for (auto& [neighbor, entry] : state->downstream) entry.count = 0;
  revert = [&leaf, ch = t.ch, saved] {
    leaf.corrupt_subscriptions_for_test().find(ch)->downstream = saved;
  };
}

void corrupt_orphan_fib(SettledTree& t, Revert& revert) {
  ExpressRouter& leaf = t.leaf_router();
  ASSERT_NE(leaf.fib().find(t.ch), nullptr);
  // A Channel is move-only; the revert keeps it behind a shared pointer.
  auto saved = std::make_shared<Channel>(
      std::move(*leaf.corrupt_subscriptions_for_test().find(t.ch)));
  // Membership evaporates; the FIB entry lingers.
  leaf.corrupt_subscriptions_for_test().erase(t.ch);
  revert = [&leaf, ch = t.ch, saved] {
    bool created = false;
    leaf.corrupt_subscriptions_for_test().get_or_create(ch, created) =
        std::move(*saved);
  };
}

void corrupt_loop(SettledTree& t, Revert& revert) {
  // Make an interior router and its (router) upstream point at each
  // other: a two-node cycle no walk toward the source can escape.
  ExpressRouter& child = t.interior_router();
  const Channel* child_state = child.subscriptions().find(t.ch);
  ASSERT_NE(child_state, nullptr);
  const net::NodeId parent_id = child_state->upstream;
  std::optional<net::NodeId> child_id;
  ExpressRouter* parent = nullptr;
  for (std::size_t i = 0; i < t.sim.router_count(); ++i) {
    if (&t.sim.router(i) == &child) child_id = t.sim.roles().routers[i];
    if (t.sim.roles().routers[i] == parent_id) parent = &t.sim.router(i);
  }
  ASSERT_NE(parent, nullptr);
  ASSERT_TRUE(child_id.has_value());
  Channel* parent_state = parent->corrupt_subscriptions_for_test().find(t.ch);
  ASSERT_NE(parent_state, nullptr);
  const net::NodeId real_upstream = parent_state->upstream;
  parent_state->upstream = *child_id;
  revert = [parent, ch = t.ch, real_upstream] {
    parent->corrupt_subscriptions_for_test().find(ch)->upstream = real_upstream;
  };
}

struct CorruptionCase {
  const char* name;
  Check check;  ///< the check built to catch it
  void (*corrupt)(SettledTree&, Revert&);
};

constexpr CorruptionCase kCorruptions[] = {
    {"advertised count", Check::kCountConservation, corrupt_advertised_count},
    {"host count", Check::kCountConservation, corrupt_host_count},
    {"rpf", Check::kRpfConsistency, corrupt_rpf},
    {"zero subtree", Check::kOrphanState, corrupt_zero_subtree},
    {"orphan fib", Check::kOrphanState, corrupt_orphan_fib},
    {"loop", Check::kForwardingLoop, corrupt_loop},
};

/// A cold audit (the first on a fresh network) catches `c`.
void expect_caught_cold(const CorruptionCase& c) {
  SettledTree t;
  Revert revert;
  c.corrupt(t, revert);
  const AuditReport report = run_audit(t.sim);
  EXPECT_GE(report.count(c.check), 1u) << report.to_string();
}

TEST(Audit, DetectsAdvertisedCountMismatch) {
  expect_caught_cold(kCorruptions[0]);
}

TEST(Audit, DetectsHostCountMismatch) { expect_caught_cold(kCorruptions[1]); }

TEST(Audit, DetectsRpfViolation) { expect_caught_cold(kCorruptions[2]); }

TEST(Audit, DetectsZeroSubtreeOrphan) { expect_caught_cold(kCorruptions[3]); }

TEST(Audit, DetectsOrphanFibEntry) { expect_caught_cold(kCorruptions[4]); }

TEST(Audit, DetectsForwardingLoop) { expect_caught_cold(kCorruptions[5]); }

// The same corruptions after a clean audit has warmed the memo: each is
// caught by the check built for it, with the full walk's exact report,
// by a sample that re-walks only a few routers; and each violation
// clears on the first sample after the revert, so the memo never keeps
// a stale one.
TEST(Audit, WarmMemoCatchesEachCorruptionAndClearsOnRevert) {
  for (const CorruptionCase& c : kCorruptions) {
    SCOPED_TRACE(c.name);
    SettledTree t;
    const InvariantAuditor auditor(t.sim.net());
    const AuditReport warm = auditor.run();
    ASSERT_TRUE(warm.clean()) << warm.to_string();
    EXPECT_EQ(warm.routers_walked, t.sim.router_count());

    Revert revert;
    c.corrupt(t, revert);
    ASSERT_TRUE(revert);
    const AuditReport caught = auditor.run();
    EXPECT_GE(caught.count(c.check), 1u) << caught.to_string();
    EXPECT_TRUE(same_verdict(caught, auditor.full_walk()));
    EXPECT_LT(caught.routers_walked, t.sim.router_count());

    revert();
    const AuditReport cleared = auditor.run();
    EXPECT_TRUE(cleared.clean()) << cleared.to_string();
    EXPECT_TRUE(same_verdict(cleared, auditor.full_walk()));
  }
}

// Between a host's change and its router's reaction the host's own note
// is what re-walks the router: the warm audit sees the in-flight leave
// as the full walk does. Then the router drops the entry but keeps the
// channel (its other host stays), which only its FIB refresh notes.
TEST(Audit, WarmMemoFollowsAHostLeaveThatKeepsTheChannel) {
  Testbed sim(workload::make_kary_tree(2, 2, {}, 2));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.receiver(1).new_subscription(ch);  // same leaf as receiver 0
  sim.run_for(sim::seconds(2));
  const InvariantAuditor auditor(sim.net());
  const AuditReport warm = auditor.run();
  ASSERT_TRUE(warm.clean()) << warm.to_string();

  sim.receiver(0).delete_subscription(ch);
  const AuditReport in_flight = auditor.run();
  EXPECT_EQ(in_flight.count(Check::kCountConservation), 1u)
      << in_flight.to_string();
  EXPECT_TRUE(same_verdict(in_flight, auditor.full_walk()));

  sim.run_for(sim::seconds(1));
  const AuditReport settled = auditor.run();
  EXPECT_TRUE(settled.clean()) << settled.to_string();
  EXPECT_EQ(settled.edges_checked, warm.edges_checked - 1);
  EXPECT_TRUE(same_verdict(settled, auditor.full_walk()));
}

// A pending route switch suspends the RPF check at its router (§3.2
// hysteresis); scheduling one is noted, so the warm audit drops the
// router's RPF violation exactly when the full walk does, with no
// routing change to force a wider walk.
TEST(Audit, WarmMemoSeesAPendingRouteSwitch) {
  SettledTree t;
  const InvariantAuditor auditor(t.sim.net());
  ASSERT_TRUE(auditor.run().clean());

  // Point an interior router's upstream at one of its own children, a
  // neighbour that is not its RPF neighbour toward the source.
  ExpressRouter& victim = t.interior_router();
  Channel* state = victim.corrupt_subscriptions_for_test().find(t.ch);
  ASSERT_NE(state, nullptr);
  std::optional<net::NodeId> child;
  for (const auto& [neighbor, entry] : state->downstream) {
    if (t.sim.net().topology().node(neighbor).kind == net::NodeKind::kRouter) {
      child = neighbor;
    }
  }
  ASSERT_TRUE(child.has_value());
  state->upstream = *child;
  const AuditReport corrupted = auditor.run();
  EXPECT_EQ(corrupted.count(Check::kRpfConsistency), 1u)
      << corrupted.to_string();
  EXPECT_TRUE(same_verdict(corrupted, auditor.full_walk()));

  // The router finds its RPF neighbour differs and holds the switch.
  victim.on_routing_change();
  ASSERT_EQ(victim.pending_route_switches(), 1u);
  const AuditReport pending = auditor.run();
  EXPECT_EQ(pending.count(Check::kRpfConsistency), 0u) << pending.to_string();
  EXPECT_TRUE(same_verdict(pending, auditor.full_walk()));

  // The switch back to the RPF neighbour repairs the tree.
  t.sim.run_for(sim::seconds(3));
  EXPECT_EQ(victim.pending_route_switches(), 0u);
  const AuditReport repaired = auditor.run();
  EXPECT_TRUE(repaired.clean()) << repaired.to_string();
  EXPECT_TRUE(same_verdict(repaired, auditor.full_walk()));
}

// Pins the whole report, not just per-check counts: violations come out
// router by router in ascending id, channels ascending within a router
// (conservation and RPF first, then orphan state, then orphan FIB
// entries), and forwarding loops last, per channel. A reordered,
// duplicated or dropped violation changes the text.
TEST(Audit, ReportIsExactAndOrdered) {
  // Routers: root 0 (source host 1), d1 = 2..3, d2 = 4..7, leaves 8..15;
  // receiver i hangs off leaf 8 + i.
  Testbed sim(workload::make_kary_tree(2, 3));
  const ip::ChannelId ch1 = sim.source().allocate_channel();
  const ip::ChannelId ch2 = sim.source().allocate_channel();
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    sim.receiver(i).new_subscription(ch1);
    if (i < 4) sim.receiver(i).new_subscription(ch2);  // leaves 8..11
  }
  sim.run_for(sim::seconds(2));
  ASSERT_TRUE(run_audit(sim).clean());

  const auto router_at = [&sim](net::NodeId id) -> ExpressRouter& {
    for (std::size_t i = 0; i < sim.router_count(); ++i) {
      if (sim.roles().routers[i] == id) return sim.router(i);
    }
    ADD_FAILURE() << "no router " << id;
    return sim.router(0);
  };
  const auto state_at = [&](net::NodeId id,
                            const ip::ChannelId& ch) -> Channel& {
    Channel* state = router_at(id).corrupt_subscriptions_for_test().find(ch);
    EXPECT_NE(state, nullptr) << "router " << id << " off-tree";
    return *state;
  };

  // ch1: count mismatch (3), host-count mismatch (15), zero subtree (14).
  state_at(3, ch1).advertised_upstream += 3;
  state_at(15, ch1).downstream.begin()->second.count += 1;
  for (auto& [neighbor, entry] : state_at(14, ch1).downstream) entry.count = 0;
  // ch2: wrong RPF upstream (9), orphan FIB entry (10), two-router loop
  // 2 <-> 4.
  state_at(9, ch2).upstream = 5;
  router_at(10).corrupt_subscriptions_for_test().erase(ch2);
  state_at(2, ch2).upstream = 4;
  // Both channels: leaf 8 keeps two orphan FIB entries.
  router_at(8).corrupt_subscriptions_for_test().erase(ch1);
  router_at(8).corrupt_subscriptions_for_test().erase(ch2);

  const AuditReport report = run_audit(sim);
  std::string expected;
  const auto line = [&expected](const char* check, net::NodeId router,
                                const ip::ChannelId& ch, const char* detail) {
    expected += std::string(check) + " @router " + std::to_string(router) +
                " " + ch.to_string() + ": " + detail + "\n";
  };
  line("count_conservation", 0, ch1,
       "recorded count 1 for router 3 != child's advertised 4");
  line("count_conservation", 0, ch2,
       "downstream entry for router 2 whose upstream is 4, not this router");
  line("count_conservation", 2, ch2,
       "advertised 1 to router 4 which has no matching downstream entry");
  line("rpf_consistency", 2, ch2,
       "upstream is 4 but RPF neighbor toward the source is 0");
  line("count_conservation", 4, ch1,
       "downstream entry for router 8 (count 1) but the child is off-tree");
  line("count_conservation", 4, ch2,
       "downstream entry for router 8 (count 1) but the child is off-tree");
  line("count_conservation", 4, ch2,
       "downstream entry for router 9 whose upstream is 5, not this router");
  line("count_conservation", 5, ch2,
       "downstream entry for router 10 (count 1) but the child is off-tree");
  line("orphan_state", 8, ch1, "FIB entry without membership state");
  line("orphan_state", 8, ch2, "FIB entry without membership state");
  line("count_conservation", 9, ch2,
       "advertised 1 to router 5 which has no matching downstream entry");
  line("rpf_consistency", 9, ch2,
       "upstream is 5 but RPF neighbor toward the source is 4");
  line("orphan_state", 10, ch2, "FIB entry without membership state");
  line("count_conservation", 14, ch1,
       "recorded count 0 for host 22 != host's local count 1");
  line("count_conservation", 14, ch1,
       "advertised 1 upstream but subtree count is 0");
  line("orphan_state", 14, ch1,
       "on-tree with subtree count 0 (empty channels must be torn down)");
  line("orphan_state", 14, ch1,
       "FIB replication set does not match the member interfaces");
  line("count_conservation", 15, ch1,
       "recorded count 2 for host 23 != host's local count 1");
  line("forwarding_loop", 2, ch2,
       "upstream pointers revisit router 2 (walk started at 2)");
  EXPECT_EQ(report.to_string(), expected);
  EXPECT_EQ(report.routers_audited, 15u);
  EXPECT_EQ(report.channels_audited, 20u);  // 14 on ch1 + 6 on ch2
  EXPECT_EQ(report.edges_checked, 30u);
}

// The first run() counts the EXPRESS routers by walking every node;
// later ones learn of a router attached since from its attach note.
TEST(Audit, WarmMemoCountsARouterAttachedAfterTheFirstRun) {
  net::Topology topo;
  const net::NodeId r0 = topo.add_router();
  const net::NodeId r1 = topo.add_router();
  topo.add_link(r0, r1);
  net::Network network(std::move(topo));
  network.attach<ExpressRouter>(r0);
  const InvariantAuditor auditor(network);
  EXPECT_EQ(auditor.run().routers_audited, 1u);

  network.attach<ExpressRouter>(r1);
  const AuditReport report = auditor.run();
  EXPECT_EQ(report.routers_audited, 2u);
  EXPECT_EQ(report.routers_walked, 1u);
  EXPECT_TRUE(same_verdict(report, auditor.full_walk()));
}

TEST(Audit, ReportFormattingNamesEveryCheck) {
  EXPECT_STREQ(audit::check_name(Check::kCountConservation),
               "count_conservation");
  EXPECT_STREQ(audit::check_name(Check::kRpfConsistency), "rpf_consistency");
  EXPECT_STREQ(audit::check_name(Check::kOrphanState), "orphan_state");
  EXPECT_STREQ(audit::check_name(Check::kForwardingLoop), "forwarding_loop");

  AuditReport report;
  report.violations.push_back(audit::Violation{
      Check::kRpfConsistency, 3, ip::ChannelId{}, "wrong upstream"});
  const std::string text = report.to_string();
  EXPECT_NE(text.find("rpf_consistency"), std::string::npos);
  EXPECT_NE(text.find("wrong upstream"), std::string::npos);
  EXPECT_EQ(report.count(Check::kRpfConsistency), 1u);
  EXPECT_EQ(report.count(Check::kOrphanState), 0u);
}

TEST(Audit, ExpressNodesAttachOnlyToTheirOwnKind) {
  // The auditor pre-filters nodes by kind before resolving their type;
  // that is exact only because EXPRESS nodes refuse any other kind.
  net::Topology topo;
  const net::NodeId router = topo.add_router();
  const net::NodeId host = topo.add_host();
  topo.add_link(router, host);
  const net::LanSegment lan = net::add_lan_segment(topo, router, 1);
  net::Network network(std::move(topo));
  EXPECT_THROW(network.attach<ExpressRouter>(host), std::logic_error);
  EXPECT_THROW(network.attach<ExpressRouter>(lan.hub), std::logic_error);
  EXPECT_THROW(network.attach<ExpressHost>(router), std::logic_error);
  EXPECT_THROW(network.attach<ExpressHost>(lan.hub), std::logic_error);
  // A refused attach leaves the slot free for the right kind.
  EXPECT_NO_THROW(network.attach<ExpressRouter>(router));
  EXPECT_NO_THROW(network.attach<ExpressHost>(host));
  EXPECT_NO_THROW(network.attach<net::LanHub>(lan.hub));
  EXPECT_NO_THROW(network.attach<ExpressHost>(lan.hosts[0]));
}

TEST(Audit, CountersMatchADynamicCastScanOnAMixedTopology) {
  //   src - r0 - r1 - h1          r1 - d (router, detached)
  //         |    |                r1 - dh (host, detached)
  //         |    r3 (off-tree)
  //         r2 = [hub] - lh0 lh1
  //         b (DVMRP router)
  net::Topology topo;
  const net::NodeId r0 = topo.add_router();
  const net::NodeId src = topo.add_host();
  const net::NodeId r1 = topo.add_router();
  const net::NodeId r2 = topo.add_router();
  const net::NodeId r3 = topo.add_router();
  const net::NodeId b = topo.add_router();
  const net::NodeId d = topo.add_router();
  const net::NodeId h1 = topo.add_host();
  const net::NodeId dh = topo.add_host();
  topo.add_link(r0, src);
  topo.add_link(r0, r1);
  topo.add_link(r0, r2);
  topo.add_link(r0, b);
  topo.add_link(r1, r3);
  topo.add_link(r1, h1);
  topo.add_link(r1, d);
  topo.add_link(r1, dh);
  const net::LanSegment lan = net::add_lan_segment(topo, r2, 2);
  net::Network network(std::move(topo));
  for (net::NodeId r : {r0, r1, r2, r3}) network.attach<ExpressRouter>(r);
  network.attach<baseline::DvmrpRouter>(b);
  network.attach<net::LanHub>(lan.hub);
  auto& source = network.attach<ExpressHost>(src);
  auto& receiver = network.attach<ExpressHost>(h1);
  auto& lan_receiver = network.attach<ExpressHost>(lan.hosts[0]);
  network.attach<ExpressHost>(lan.hosts[1]);
  const ip::ChannelId ch = source.allocate_channel();
  receiver.new_subscription(ch);
  lan_receiver.new_subscription(ch);
  network.run_until(sim::seconds(2));
  ASSERT_TRUE(InvariantAuditor(network).run().clean());

  // Zero-count downstream entries naming every kind of node: only an
  // EXPRESS child can disagree with one (an off-tree router, or a host
  // whose local count is not 0); the rest are counted and ignored.
  const auto add_entries = [&](net::NodeId at,
                               std::initializer_list<net::NodeId> children) {
    auto& router = static_cast<ExpressRouter&>(*network.node(at));
    Channel* state = router.corrupt_subscriptions_for_test().find(ch);
    ASSERT_NE(state, nullptr) << "router " << at << " off-tree";
    for (net::NodeId child : children) {
      ASSERT_TRUE(state->downstream.try_emplace(child).second) << child;
    }
  };
  add_entries(r1, {b, d, dh, lan.hub, r3, src});
  add_entries(r2, {h1, lan.hosts[1], 9999});

  // The reference resolves every node by dynamic_cast, as the auditor
  // once did, and predicts the parent-side count checks it decides.
  std::size_t routers = 0;
  std::size_t channels = 0;
  std::size_t edges = 0;
  std::string expected;
  for (net::NodeId id = 0; id < network.topology().node_count(); ++id) {
    const auto* router = dynamic_cast<const ExpressRouter*>(network.node(id));
    if (router == nullptr) continue;
    ++routers;
    for (const auto& [channel, state] : router->subscriptions().channels()) {
      ++channels;
      for (const auto& [child, entry] : state.downstream) {
        ++edges;
        const std::string head = "count_conservation @router " +
                                 std::to_string(id) + " " +
                                 channel.to_string() + ": ";
        const net::Node* node = network.node(child);
        if (const auto* r = dynamic_cast<const ExpressRouter*>(node)) {
          if (!r->on_tree(channel)) {
            expected += head + "downstream entry for router " +
                        std::to_string(child) + " (count " +
                        std::to_string(entry.count) +
                        ") but the child is off-tree\n";
          }
        } else if (const auto* h = dynamic_cast<const ExpressHost*>(node)) {
          if (h->local_count(channel) != entry.count) {
            expected += head + "recorded count " +
                        std::to_string(entry.count) + " for host " +
                        std::to_string(child) + " != host's local count " +
                        std::to_string(h->local_count(channel));
            expected += "\n";
          }
        }
      }
    }
  }
  const AuditReport report = InvariantAuditor(network).run();
  EXPECT_EQ(report.routers_audited, routers);
  EXPECT_EQ(report.channels_audited, channels);
  EXPECT_EQ(report.edges_checked, edges);
  EXPECT_EQ(report.to_string(), expected);
  // Not vacuous: four EXPRESS routers among six router nodes, and the
  // off-tree router and the subscribed host were both flagged.
  EXPECT_EQ(routers, 4u);
  EXPECT_EQ(report.violations.size(), 2u) << report.to_string();
}

}  // namespace
}  // namespace express::test
