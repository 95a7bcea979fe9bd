#include "workload/topo_gen.hpp"

#include <utility>

namespace express::workload {

namespace {

net::NodeId add_receiver(GeneratedTopology& g, net::NodeId router,
                         const LinkParams& links) {
  const net::NodeId host = g.topology.add_host();
  g.topology.add_link(router, host, links.edge_delay, 1,
                      links.edge_bandwidth_bps);
  g.receiver_hosts.push_back(host);
  return host;
}

}  // namespace

GeneratedTopology make_star(std::uint32_t receivers, std::uint32_t hops,
                            const LinkParams& links) {
  GeneratedTopology g;
  g.source_router = g.topology.add_router();
  g.routers.push_back(g.source_router);
  g.source_host = g.topology.add_host();
  g.topology.add_link(g.source_router, g.source_host, links.edge_delay, 1,
                      links.edge_bandwidth_bps);

  for (std::uint32_t r = 0; r < receivers; ++r) {
    net::NodeId prev = g.source_router;
    for (std::uint32_t h = 0; h < hops; ++h) {
      const net::NodeId router = g.topology.add_router();
      g.topology.add_link(prev, router, links.core_delay, 1,
                          links.core_bandwidth_bps);
      g.routers.push_back(router);
      prev = router;
    }
    add_receiver(g, prev, links);
  }
  return g;
}

GeneratedTopology make_kary_tree(std::uint32_t arity, std::uint32_t depth,
                                 const LinkParams& links,
                                 std::uint32_t hosts_per_leaf) {
  GeneratedTopology g;
  g.source_router = g.topology.add_router();
  g.routers.push_back(g.source_router);
  g.source_host = g.topology.add_host();
  g.topology.add_link(g.source_router, g.source_host, links.edge_delay, 1,
                      links.edge_bandwidth_bps);

  std::vector<net::NodeId> level{g.source_router};
  for (std::uint32_t d = 1; d <= depth; ++d) {
    std::vector<net::NodeId> next;
    next.reserve(level.size() * arity);
    for (net::NodeId parent : level) {
      for (std::uint32_t a = 0; a < arity; ++a) {
        const net::NodeId child = g.topology.add_router();
        g.topology.add_link(parent, child, links.core_delay, 1,
                            links.core_bandwidth_bps);
        g.routers.push_back(child);
        next.push_back(child);
      }
    }
    level = std::move(next);
  }
  for (net::NodeId leaf : level) {
    for (std::uint32_t h = 0; h < hosts_per_leaf; ++h) {
      add_receiver(g, leaf, links);
    }
  }
  return g;
}

GeneratedTopology make_line(std::uint32_t routers, const LinkParams& links) {
  GeneratedTopology g;
  net::NodeId prev = net::kInvalidNode;
  for (std::uint32_t i = 0; i < routers; ++i) {
    const net::NodeId router = g.topology.add_router();
    g.routers.push_back(router);
    if (i == 0) {
      g.source_router = router;
      g.source_host = g.topology.add_host();
      g.topology.add_link(router, g.source_host, links.edge_delay, 1,
                          links.edge_bandwidth_bps);
    } else {
      g.topology.add_link(prev, router, links.core_delay, 1,
                          links.core_bandwidth_bps);
    }
    prev = router;
  }
  add_receiver(g, prev, links);
  return g;
}

GeneratedTopology make_transit_stub(std::uint32_t transit,
                                    std::uint32_t stubs_per_transit,
                                    std::uint32_t hosts_per_stub,
                                    sim::Rng& rng, const LinkParams& links) {
  GeneratedTopology g;
  std::vector<net::NodeId> core;
  core.reserve(transit);
  for (std::uint32_t t = 0; t < transit; ++t) {
    const net::NodeId router = g.topology.add_router();
    core.push_back(router);
    g.routers.push_back(router);
    if (t > 0) {
      g.topology.add_link(core[t - 1], router, links.core_delay, 1,
                          links.core_bandwidth_bps);
    }
  }
  if (transit > 2) {
    // Close the ring and add a few random chords for path diversity.
    g.topology.add_link(core.back(), core.front(), links.core_delay, 1,
                        links.core_bandwidth_bps);
    const std::uint32_t chords = transit / 3;
    for (std::uint32_t c = 0; c < chords; ++c) {
      const auto a = rng.below(transit);
      const auto b = rng.below(transit);
      if (a == b || (a + 1) % transit == b || (b + 1) % transit == a) continue;
      g.topology.add_link(core[a], core[b], links.core_delay, 1,
                          links.core_bandwidth_bps);
    }
  }

  for (std::uint32_t t = 0; t < transit; ++t) {
    for (std::uint32_t s = 0; s < stubs_per_transit; ++s) {
      const net::NodeId stub = g.topology.add_router();
      g.routers.push_back(stub);
      g.topology.add_link(core[t], stub, links.core_delay, 1,
                          links.core_bandwidth_bps);
      for (std::uint32_t h = 0; h < hosts_per_stub; ++h) {
        add_receiver(g, stub, links);
      }
      if (g.source_router == net::kInvalidNode) {
        g.source_router = stub;
        g.source_host = g.topology.add_host();
        g.topology.add_link(stub, g.source_host, links.edge_delay, 1,
                            links.edge_bandwidth_bps);
      }
    }
  }
  return g;
}

}  // namespace express::workload
