// Unit tests for topology bookkeeping and unicast (RPF) routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/lan.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "workload/topo_gen.hpp"

namespace express::net {
namespace {

TEST(Topology, NodesGetDistinctAddresses) {
  Topology t;
  const NodeId a = t.add_router();
  const NodeId b = t.add_host();
  EXPECT_NE(t.address(a), t.address(b));
  EXPECT_EQ(t.node(a).kind, NodeKind::kRouter);
  EXPECT_EQ(t.node(b).kind, NodeKind::kHost);
}

TEST(Topology, LinkCreatesInterfacesOnBothEnds) {
  Topology t;
  const NodeId a = t.add_router();
  const NodeId b = t.add_router();
  const LinkId l = t.add_link(a, b);
  EXPECT_EQ(t.interface_count(a), 1u);
  EXPECT_EQ(t.interface_count(b), 1u);
  EXPECT_EQ(t.peer(l, a), b);
  EXPECT_EQ(t.peer(l, b), a);
  EXPECT_EQ(t.interface_on(a, l), 0u);
  EXPECT_EQ(t.interface_to(a, b), 0u);
  EXPECT_EQ(t.neighbor_via(a, 0), b);
}

TEST(Topology, InterfaceIndicesAreSequential) {
  Topology t;
  const NodeId hub = t.add_router();
  for (int i = 0; i < 5; ++i) {
    const NodeId spoke = t.add_router();
    t.add_link(hub, spoke);
    EXPECT_EQ(t.interface_to(hub, spoke), static_cast<std::uint32_t>(i));
  }
}

TEST(Topology, InterfaceToPrefersUpThenCheaperThenLowerIndex) {
  Topology t;
  const NodeId a = t.add_router();
  const NodeId b = t.add_router();
  const LinkId l0 = t.add_link(a, b, sim::milliseconds(1), 3);
  const LinkId l1 = t.add_link(a, b, sim::milliseconds(1), 2);
  const LinkId l2 = t.add_link(a, b, sim::milliseconds(1), 2);
  EXPECT_EQ(t.interface_to(a, b), 1u);  // cheaper, then lower index
  t.set_link_up(l1, false);
  EXPECT_EQ(t.interface_to(a, b), 2u);  // an up link beats a cheaper down one
  t.set_link_up(l2, false);
  EXPECT_EQ(t.interface_to(a, b), 0u);
  t.set_link_up(l0, false);
  EXPECT_EQ(t.interface_to(b, a), 1u);  // all down: cost, then index
}

TEST(Topology, AddLinkRejectsUnknownEndpointWithoutMutating) {
  Topology t;
  const NodeId a = t.add_router();
  EXPECT_THROW(t.add_link(a, 7), std::invalid_argument);
  EXPECT_THROW(t.add_link(7, a), std::invalid_argument);
  EXPECT_EQ(t.link_count(), 0u);
  EXPECT_EQ(t.interface_count(a), 0u);
}

TEST(Topology, AddLinkRejectsSelfLoop) {
  Topology t;
  const NodeId a = t.add_router();
  EXPECT_THROW(t.add_link(a, a), std::invalid_argument);
  EXPECT_EQ(t.link_count(), 0u);
  EXPECT_EQ(t.interface_count(a), 0u);
}

TEST(Topology, AddLinkRejectsZeroCost) {
  Topology t;
  const NodeId a = t.add_router();
  const NodeId b = t.add_router();
  EXPECT_THROW(t.add_link(a, b, sim::milliseconds(1), 0),
               std::invalid_argument);
  EXPECT_EQ(t.link_count(), 0u);
  EXPECT_EQ(t.interface_count(a), 0u);
  EXPECT_EQ(t.interface_count(b), 0u);
}

TEST(Topology, NeighborsSkipDownLinks) {
  Topology t;
  const NodeId a = t.add_router();
  const NodeId b = t.add_router();
  const NodeId c = t.add_router();
  const LinkId ab = t.add_link(a, b);
  t.add_link(a, c);
  EXPECT_EQ(t.neighbors(a).size(), 2u);
  t.set_link_up(ab, false);
  const auto n = t.neighbors(a);
  ASSERT_EQ(n.size(), 1u);
  EXPECT_EQ(n[0], c);
}

TEST(Topology, FindByAddress) {
  // Oracle for the id-derived address plan: on each generator's graph,
  // Network::node_of inverts every node's address, and addresses outside
  // the assigned block (its two neighbors, the extremes, multicast and
  // channel addresses) resolve to nothing.
  sim::Rng rng(7);
  std::vector<Topology> graphs;
  graphs.push_back(workload::make_kary_tree(3, 3).topology);
  graphs.push_back(workload::make_transit_stub(4, 3, 2, rng).topology);
  auto lan = workload::make_kary_tree(2, 2);
  add_lan_segment(lan.topology, lan.routers.back(), 5);
  graphs.push_back(std::move(lan.topology));

  for (Topology& graph : graphs) {
    const Network net(std::move(graph));
    const auto n = static_cast<std::uint32_t>(net.topology().node_count());
    for (NodeId i = 0; i < n; ++i) {
      EXPECT_EQ(net.node_of(net.topology().address(i)), i);
    }
    EXPECT_EQ(net.topology().address(0), ip::Address(10, 0, 0, 1));
    for (const ip::Address outside :
         {ip::Address(10, 0, 0, 0), ip::Address{kNodeAddressBase + n},
          ip::Address(0, 0, 0, 0), ip::Address(255, 255, 255, 255),
          ip::Address(1, 2, 3, 4), ip::Address::single_source(42),
          ip::kEcmpAllRouters}) {
      EXPECT_FALSE(net.node_of(outside).has_value()) << outside.to_string();
    }
  }
}

/// Graphs where a node has several links to one neighbour or many
/// neighbours: a k-ary tree, a transit-stub graph, a line with two LAN
/// hubs and doubled links, and a random multigraph with parallel links.
std::vector<Topology> oracle_topologies(sim::Rng& rng) {
  std::vector<Topology> topologies;
  topologies.push_back(workload::make_kary_tree(3, 3, {}, 2).topology);
  topologies.push_back(workload::make_transit_stub(6, 3, 2, rng).topology);
  Topology lan = workload::make_line(4).topology;
  add_lan_segment(lan, 1, 5);
  add_lan_segment(lan, 2, 3);
  lan.add_link(0, 1);
  lan.add_link(1, 0);
  topologies.push_back(std::move(lan));
  Topology multigraph;
  for (int i = 0; i < 12; ++i) multigraph.add_router();
  for (int i = 0; i < 80; ++i) {
    const NodeId a = rng.below(12);
    const NodeId b = rng.below(12);
    if (a != b) multigraph.add_link(a, b);
  }
  topologies.push_back(std::move(multigraph));
  return topologies;
}

/// Per node, its links in interface order, rebuilt from the link table
/// alone: add_link gives each endpoint the next interface slot, so a
/// node's interfaces are its incident links in ascending id.
std::vector<std::vector<LinkId>> incident_links(const Topology& t) {
  std::vector<std::vector<LinkId>> incident(t.node_count());
  for (LinkId l = 0; l < t.link_count(); ++l) {
    incident[t.link(l).a].push_back(l);
    incident[t.link(l).b].push_back(l);
  }
  return incident;
}

TEST(Topology, InterfaceOnMatchesALinearScanOfEveryNode) {
  // The oracle is a scan of each node's incident links, rebuilt from
  // the link table without the port records interface_on reads.
  sim::Rng rng(11);
  for (const Topology& t : oracle_topologies(rng)) {
    const auto links = static_cast<LinkId>(t.link_count());
    const auto incident = incident_links(t);
    for (NodeId n = 0; n < t.node_count(); ++n) {
      const std::vector<LinkId>& ifaces = incident[n];
      for (LinkId l = 0; l < links; ++l) {
        std::optional<std::uint32_t> scan;
        if (const auto it = std::find(ifaces.begin(), ifaces.end(), l);
            it != ifaces.end()) {
          scan = static_cast<std::uint32_t>(it - ifaces.begin());
        }
        EXPECT_EQ(t.interface_on(n, l), scan) << "node " << n << " link " << l;
      }
      EXPECT_EQ(t.interface_on(n, links), std::nullopt);
    }
  }
}

/// A copy of `t` whose link costs are a random permutation of its own
/// costs widened to 1..4, so parallel links tie and differ at random.
Topology with_permuted_costs(const Topology& t, sim::Rng& rng) {
  std::vector<std::uint32_t> costs;
  for (LinkId l = 0; l < t.link_count(); ++l) costs.push_back(1 + l % 4);
  for (std::size_t i = costs.size(); i > 1; --i) {
    std::swap(costs[i - 1], costs[rng.below(static_cast<std::uint32_t>(i))]);
  }
  Topology out;
  for (NodeId n = 0; n < t.node_count(); ++n) {
    out.add_node(t.node(n).kind);
  }
  for (LinkId l = 0; l < t.link_count(); ++l) {
    const LinkInfo& info = t.link(l);
    out.add_link(info.a, info.b, info.delay, costs[l], info.bandwidth_bps);
  }
  return out;
}

TEST(Topology, InterfaceToMatchesALinearScan) {
  // The oracle is the interface_to of a topology without port records:
  // a scan of the node's links that asks the link table for each one's
  // far end, keeping the up, then cheaper, then lower-index match.
  const auto scan_interface_to =
      [](const Topology& t, const std::vector<LinkId>& ifaces, NodeId node,
         NodeId neighbor) -> std::optional<std::uint32_t> {
    const auto rank = [&](std::uint32_t i) {
      return std::pair(!t.link(ifaces[i]).up, t.link(ifaces[i]).cost);
    };
    std::optional<std::uint32_t> best;
    for (std::uint32_t i = 0; i < ifaces.size(); ++i) {
      if (t.peer(ifaces[i], node) != neighbor) continue;
      if (!best || rank(i) < rank(*best)) best = i;
    }
    return best;
  };
  sim::Rng rng(23);
  std::size_t compared = 0;
  std::size_t parallel_choices = 0;
  for (const Topology& base : oracle_topologies(rng)) {
    Topology t = with_permuted_costs(base, rng);
    const auto incident = incident_links(t);
    // Every port record names its link and that link's far end.
    for (NodeId n = 0; n < t.node_count(); ++n) {
      ASSERT_EQ(t.interface_count(n), incident[n].size());
      for (std::uint32_t i = 0; i < t.interface_count(n); ++i) {
        const Port& port = t.port(n, i);
        EXPECT_EQ(port.link, incident[n][i]) << "node " << n << " iface " << i;
        EXPECT_EQ(port.peer, t.peer(port.link, n));
        EXPECT_EQ(port.peer_iface, t.interface_on(port.peer, port.link));
        EXPECT_EQ(t.neighbor_via(n, i), port.peer);
      }
    }
    for (int round = 0; round < 4; ++round) {
      for (LinkId l = 0; l < t.link_count(); ++l) {
        if (rng.chance(0.3)) t.set_link_up(l, !t.link(l).up);
      }
      for (NodeId n = 0; n < t.node_count(); ++n) {
        std::vector<NodeId> neighbors;
        for (LinkId l : incident[n]) neighbors.push_back(t.peer(l, n));
        neighbors.push_back(n);  // never a neighbour of itself
        neighbors.push_back(static_cast<NodeId>(t.node_count()));
        for (NodeId m : neighbors) {
          const auto expected = scan_interface_to(t, incident[n], n, m);
          EXPECT_EQ(t.interface_to(n, m), expected)
              << "node " << n << " neighbour " << m << " round " << round;
          ++compared;
          const auto links_to_m = std::count_if(
              incident[n].begin(), incident[n].end(),
              [&](LinkId l) { return t.peer(l, n) == m; });
          if (links_to_m > 1) ++parallel_choices;
        }
      }
    }
  }
  EXPECT_GT(compared, 1000u);
  EXPECT_GT(parallel_choices, 100u);  // the ranking was exercised
}

TEST(Topology, ReachMatchesInterfaceTowardAndNeighborReachable) {
  // The oracle is how the control planes resolved a neighbour before
  // Topology::reach: interface_to, else the RPF interface of a unicast
  // route toward the neighbour; reachable while the direct link is up,
  // else while a route exists. The routing fallback only ever served
  // LAN hosts, which reach resolves from the port records alone.
  const auto iface_toward = [](const Topology& t, const UnicastRouting& r,
                               NodeId self, NodeId neighbor) {
    if (auto direct = t.interface_to(self, neighbor)) return direct;
    return r.rpf_interface(self, neighbor);
  };
  const auto neighbor_reachable = [](const Topology& t,
                                     const UnicastRouting& r, NodeId self,
                                     NodeId neighbor) {
    const auto iface = t.interface_to(self, neighbor);
    if (!iface) return r.next_hop(self, neighbor).has_value();
    return t.link(t.port(self, *iface).link).up;
  };
  sim::Rng rng(31);
  std::vector<Topology> graphs = oracle_topologies(rng);
  // test_lan's shape: core -- edge -- [hub] -- 4 hosts, a source on core.
  Topology lan;
  const NodeId core = lan.add_router();
  const NodeId edge = lan.add_router();
  lan.add_link(core, edge);
  lan.add_link(core, lan.add_host());
  add_lan_segment(lan, edge, 4);
  graphs.push_back(std::move(lan));
  // The LAN shape of FindByAddress: a segment on a k-ary tree's leaf.
  auto tree = workload::make_kary_tree(2, 2);
  add_lan_segment(tree.topology, tree.routers.back(), 5);
  graphs.push_back(std::move(tree.topology));

  std::size_t compared = 0;
  std::size_t lan_hosts = 0;
  std::size_t wire_down_hub_up = 0;  // the hub-host link alone is down
  for (Topology& t : graphs) {
    // Every router's adjacent nodes, and the hosts on its adjacent hubs.
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (NodeId n = 0; n < t.node_count(); ++n) {
      if (t.node(n).kind != NodeKind::kRouter) continue;
      for (std::uint32_t i = 0; i < t.interface_count(n); ++i) {
        const NodeId m = t.neighbor_via(n, i);
        pairs.emplace_back(n, m);
        if (t.node(m).kind != NodeKind::kLanHub) continue;
        for (std::uint32_t j = 0; j < t.interface_count(m); ++j) {
          const NodeId h = t.neighbor_via(m, j);
          if (t.node(h).kind == NodeKind::kHost) pairs.emplace_back(n, h);
        }
      }
    }
    for (int round = 0; round < 8; ++round) {
      const UnicastRouting routing(t);
      for (const auto& [n, m] : pairs) {
        const Reach reach = t.reach(n, m);
        EXPECT_EQ(reach.iface, iface_toward(t, routing, n, m))
            << "router " << n << " neighbour " << m << " round " << round;
        EXPECT_EQ(reach.up, neighbor_reachable(t, routing, n, m))
            << "router " << n << " neighbour " << m << " round " << round;
        ++compared;
        if (t.node(m).kind != NodeKind::kHost || t.interface_to(n, m)) {
          continue;
        }
        ++lan_hosts;
        const Port& wire = t.port(m, 0);
        const auto to_hub = t.interface_to(n, wire.peer);
        if (!t.link(wire.link).up && t.link(t.port(n, *to_hub).link).up) {
          ++wire_down_hub_up;
        }
      }
      for (LinkId l = 0; l < t.link_count(); ++l) {
        if (rng.chance(0.3)) t.set_link_up(l, !t.link(l).up);
      }
    }
  }
  EXPECT_GT(compared, 1000u);
  EXPECT_GT(lan_hosts, 50u);
  EXPECT_GT(wire_down_hub_up, 10u);  // the hub-host check was exercised
}

class LineRouting : public ::testing::Test {
 protected:
  //  0 -- 1 -- 2 -- 3 -- 4
  LineRouting() {
    for (int i = 0; i < 5; ++i) ids_.push_back(topo_.add_router());
    for (int i = 0; i < 4; ++i) {
      links_.push_back(topo_.add_link(ids_[static_cast<std::size_t>(i)],
                                      ids_[static_cast<std::size_t>(i + 1)],
                                      sim::milliseconds(i + 1)));
    }
  }
  Topology topo_;
  std::vector<NodeId> ids_;
  std::vector<LinkId> links_;
};

TEST_F(LineRouting, ShortestPathAlongLine) {
  UnicastRouting r(topo_);
  EXPECT_EQ(r.next_hop(0, 4), 1u);
  EXPECT_EQ(r.next_hop(4, 0), 3u);
  EXPECT_EQ(r.cost(0, 4), 4u);
  EXPECT_EQ(r.hop_count(0, 4), 4u);
  const auto p = r.path(0, 4);
  EXPECT_EQ(p, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST_F(LineRouting, PathDelaySumsLinkDelays) {
  UnicastRouting r(topo_);
  // 1 + 2 + 3 + 4 ms.
  EXPECT_EQ(r.path_delay(0, 4), sim::milliseconds(10));
}

TEST_F(LineRouting, SelfRouting) {
  UnicastRouting r(topo_);
  EXPECT_FALSE(r.next_hop(2, 2).has_value());
  EXPECT_EQ(r.cost(2, 2), 0u);
  EXPECT_EQ(r.path(2, 2), std::vector<NodeId>{2});
}

TEST_F(LineRouting, LinkFailurePartitions) {
  topo_.set_link_up(links_[1], false);  // cut 1--2
  UnicastRouting r(topo_);
  EXPECT_FALSE(r.next_hop(0, 4).has_value());
  EXPECT_FALSE(r.cost(0, 4).has_value());
  EXPECT_TRUE(r.path(0, 4).empty());
  EXPECT_EQ(r.cost(0, 1), 1u);  // near side still works
  EXPECT_EQ(r.cost(2, 4), 2u);  // far side still works
}

TEST_F(LineRouting, RecomputeBumpsVersion) {
  UnicastRouting r(topo_);
  const auto v = r.version();
  r.recompute();
  EXPECT_GT(r.version(), v);
}

TEST_F(LineRouting, QueryBeforeLinkDownLeavesNoStaleHop) {
  UnicastRouting r(topo_);
  EXPECT_EQ(r.next_hop(0, 4), 1u);
  EXPECT_EQ(r.next_hop(1, 4), 2u);
  topo_.set_link_up(links_[1], false);  // cut 1--2
  r.recompute();
  EXPECT_FALSE(r.next_hop(0, 4).has_value());
  EXPECT_FALSE(r.next_hop(1, 4).has_value());
  EXPECT_EQ(r.next_hop(0, 1), 1u);
  topo_.set_link_up(links_[1], true);
  r.recompute();
  EXPECT_EQ(r.next_hop(1, 4), 2u);
}

TEST_F(LineRouting, NodesAddedWithoutRecomputeThrow) {
  UnicastRouting r(topo_);
  const NodeId extra = topo_.add_router();
  topo_.add_link(ids_[4], extra);
  EXPECT_THROW((void)r.next_hop(0, 4), std::logic_error);
  r.recompute();
  EXPECT_EQ(r.next_hop(0, extra), 1u);
}

TEST(Routing, PrefersLowerCostOverFewerHops) {
  // 0 --(cost 10)-- 1 ;  0 -- 2 -- 1 with cost 1 each.
  Topology t;
  const NodeId n0 = t.add_router();
  const NodeId n1 = t.add_router();
  const NodeId n2 = t.add_router();
  t.add_link(n0, n1, sim::milliseconds(1), /*cost=*/10);
  t.add_link(n0, n2, sim::milliseconds(1), 1);
  t.add_link(n2, n1, sim::milliseconds(1), 1);
  UnicastRouting r(t);
  EXPECT_EQ(r.next_hop(n0, n1), n2);
  EXPECT_EQ(r.cost(n0, n1), 2u);
  EXPECT_EQ(r.hop_count(n0, n1), 2u);
}

TEST(Routing, EqualCostTieBreaksDeterministically) {
  // Diamond: 0 -- {1, 2} -- 3, all cost 1. Both runs must agree.
  Topology t;
  const NodeId n0 = t.add_router();
  const NodeId n1 = t.add_router();
  const NodeId n2 = t.add_router();
  const NodeId n3 = t.add_router();
  t.add_link(n0, n1);
  t.add_link(n0, n2);
  t.add_link(n1, n3);
  t.add_link(n2, n3);
  UnicastRouting a(t);
  UnicastRouting b(t);
  EXPECT_EQ(a.next_hop(n0, n3), b.next_hop(n0, n3));
  // Tie-break prefers the numerically smaller first hop.
  EXPECT_EQ(a.next_hop(n0, n3), n1);
}

TEST(Routing, RpfInterfaceMatchesNextHop) {
  Topology t;
  const NodeId r0 = t.add_router();
  const NodeId r1 = t.add_router();
  const NodeId src = t.add_host();
  t.add_link(r0, r1);
  t.add_link(r1, src);
  UnicastRouting r(t);
  EXPECT_EQ(r.rpf_neighbor(r0, src), r1);
  EXPECT_EQ(r.rpf_interface(r0, src), t.interface_to(r0, r1));
  EXPECT_EQ(r.rpf_neighbor(r1, src), src);
}

TEST(Routing, MatchesFloydWarshallOracleOnRandomGraphs) {
  // Property over ~200 seeded graphs (6-25 routers, costs 1-4, parallel
  // links, about 1 link in 8 down), against distances computed here:
  // next_hop is the smallest-id live neighbor on some shortest path,
  // cost() is the distance, and remaining cost strictly decreases along
  // path().
  constexpr std::uint64_t kFar = std::numeric_limits<std::uint64_t>::max() / 4;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Rng rng(seed);
    Topology t;
    const auto n = static_cast<NodeId>(rng.between(6, 25));
    for (NodeId i = 0; i < n; ++i) t.add_router();
    const auto cost = [&] {
      return static_cast<std::uint32_t>(rng.between(1, 4));
    };
    for (NodeId i = 1; i < n; ++i) {
      t.add_link(rng.below(i), i, sim::milliseconds(1), cost());
    }
    for (std::uint32_t c = rng.below(2 * n); c > 0; --c) {
      const NodeId a = rng.below(n);
      const NodeId b = rng.below(n);
      if (a != b) t.add_link(a, b, sim::milliseconds(1), cost());
    }
    for (LinkId l = 0; l < t.link_count(); ++l) {
      if (rng.below(8) == 0) t.set_link_up(l, false);
    }

    // w: cheapest live link per neighbor pair; d: Floyd-Warshall over w.
    std::vector<std::vector<std::uint64_t>> w(
        n, std::vector<std::uint64_t>(n, kFar));
    for (LinkId l = 0; l < t.link_count(); ++l) {
      const LinkInfo& info = t.link(l);
      if (!info.up) continue;
      w[info.a][info.b] = std::min<std::uint64_t>(w[info.a][info.b], info.cost);
      w[info.b][info.a] = w[info.a][info.b];
    }
    auto d = w;
    for (NodeId i = 0; i < n; ++i) d[i][i] = 0;
    for (NodeId k = 0; k < n; ++k) {
      for (NodeId i = 0; i < n; ++i) {
        for (NodeId j = 0; j < n; ++j) {
          d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
        }
      }
    }

    const UnicastRouting r(t);
    for (NodeId from = 0; from < n; ++from) {
      for (NodeId to = 0; to < n; ++to) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " " << from
                                          << "->" << to);
        std::optional<NodeId> want;
        for (NodeId v = 0; from != to && v < n && !want; ++v) {
          if (w[from][v] < kFar && w[from][v] + d[v][to] == d[from][to]) {
            want = v;
          }
        }
        EXPECT_EQ(r.next_hop(from, to), want);
        if (d[from][to] >= kFar) {
          EXPECT_FALSE(r.cost(from, to).has_value());
          EXPECT_TRUE(r.path(from, to).empty());
          continue;
        }
        EXPECT_EQ(r.cost(from, to), d[from][to]);
        const auto p = r.path(from, to);
        ASSERT_FALSE(p.empty());
        EXPECT_EQ(p.back(), to);
        for (std::size_t i = 0; i + 1 < p.size(); ++i) {
          EXPECT_GT(d[p[i]][to], d[p[i + 1]][to]);
        }
      }
    }
  }
}

/// Every next_hop() and cost() answer of `r` against Floyd-Warshall
/// distances over the live links of `t` as it stands now.
void expect_matches_oracle(const Topology& t, const UnicastRouting& r) {
  constexpr std::uint64_t kFar = std::numeric_limits<std::uint64_t>::max() / 4;
  const auto n = static_cast<NodeId>(t.node_count());
  std::vector<std::vector<std::uint64_t>> d(
      n, std::vector<std::uint64_t>(n, kFar));
  for (LinkId l = 0; l < t.link_count(); ++l) {
    const LinkInfo& info = t.link(l);
    if (!info.up) continue;
    d[info.a][info.b] = std::min<std::uint64_t>(d[info.a][info.b], info.cost);
    d[info.b][info.a] = d[info.a][info.b];
  }
  const auto w = d;
  for (NodeId i = 0; i < n; ++i) d[i][i] = 0;
  for (NodeId k = 0; k < n; ++k) {
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  for (NodeId from = 0; from < n; ++from) {
    for (NodeId to = 0; to < n; ++to) {
      SCOPED_TRACE(::testing::Message() << from << "->" << to);
      std::optional<NodeId> want;
      for (NodeId v = 0; from != to && v < n && !want; ++v) {
        if (w[from][v] < kFar && w[from][v] + d[v][to] == d[from][to]) {
          want = v;
        }
      }
      EXPECT_EQ(r.next_hop(from, to), want);
      if (d[from][to] < kFar) {
        EXPECT_EQ(r.cost(from, to), d[from][to]);
      } else {
        EXPECT_FALSE(r.cost(from, to).has_value());
      }
    }
  }
}

TEST(Routing, RecomputeDropsEveryCachedTree) {
  // One UnicastRouting lives through rounds of link flips: each round
  // queries every pair (so every tree is cached), flips about a quarter
  // of the links, recomputes, and must then agree with a fresh oracle.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    sim::Rng rng(seed);
    Topology t;
    const auto n = static_cast<NodeId>(rng.between(6, 16));
    for (NodeId i = 0; i < n; ++i) t.add_router();
    const auto cost = [&] {
      return static_cast<std::uint32_t>(rng.between(1, 4));
    };
    for (NodeId i = 1; i < n; ++i) {
      t.add_link(rng.below(i), i, sim::milliseconds(1), cost());
    }
    for (std::uint32_t c = rng.below(2 * n); c > 0; --c) {
      const NodeId a = rng.below(n);
      const NodeId b = rng.below(n);
      if (a != b) t.add_link(a, b, sim::milliseconds(1), cost());
    }
    UnicastRouting r(t);
    for (int round = 0; round < 4; ++round) {
      expect_matches_oracle(t, r);
      for (LinkId l = 0; l < t.link_count(); ++l) {
        if (rng.below(4) == 0) t.set_link_up(l, !t.link(l).up);
      }
      r.recompute();
    }
    expect_matches_oracle(t, r);
  }
}

TEST(Routing, ScalesToTreesTheAllPairsTableCouldNotHold) {
  // ~46k nodes: an N x N next-hop table would need about 8 GB; one tree
  // toward the source is 46k entries. Every node's next hop toward the
  // source host is its parent in the k-ary tree.
  const auto g = workload::make_kary_tree(4, 6, {}, 10);
  const Topology& t = g.topology;
  ASSERT_GT(t.node_count(), 46000u);
  std::vector<NodeId> parent(t.node_count(), kInvalidNode);
  parent[g.source_router] = g.source_host;
  for (LinkId l = 0; l < t.link_count(); ++l) {
    const LinkInfo& info = t.link(l);
    if (info.b != g.source_host) parent[info.b] = info.a;  // a: nearer root
  }
  const UnicastRouting r(t);
  for (NodeId v = 0; v < t.node_count(); ++v) {
    const auto hop = r.next_hop(v, g.source_host);
    if (v == g.source_host) {
      EXPECT_FALSE(hop.has_value());
    } else {
      ASSERT_EQ(hop, parent[v]) << "node " << v;
    }
  }
  EXPECT_EQ(r.hop_count(g.receiver_hosts.back(), g.source_host), 8u);
}

}  // namespace
}  // namespace express::net
