// Group-model test scaffolding shared by the baseline, observability
// and allocation suites: a network of baseline routers with a GroupHost
// on every host node, and one scenario that drives every code path of
// the three protocols.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "baseline/group_host.hpp"
#include "net/network.hpp"
#include "sim/time.hpp"
#include "workload/topo_gen.hpp"

namespace express::test {

/// A group-model network: baseline routers of type R and a GroupHost on
/// every host node.
template <class R>
struct GroupNet {
  template <class... Args>
  explicit GroupNet(workload::GeneratedTopology generated, Args... args)
      : roles(std::move(generated)), net(std::move(roles.topology)) {
    for (net::NodeId r : roles.routers) {
      routers.push_back(&net.template attach<R>(r, args...));
    }
    source = &net.template attach<baseline::GroupHost>(roles.source_host);
    for (net::NodeId h : roles.receiver_hosts) {
      receivers.push_back(&net.template attach<baseline::GroupHost>(h));
    }
  }

  void run_for(sim::Duration d) { net.run_until(net.now() + d); }

  workload::GeneratedTopology roles;
  net::Network net;
  std::vector<R*> routers;
  baseline::GroupHost* source = nullptr;
  std::vector<baseline::GroupHost*> receivers;
};

/// Joins on several branches (one member filtering the source out), a
/// packet train, a member sender, a leave and a late join, then group
/// data injected where no protocol expects it: from a child router into
/// its parent and from a router into a host that never joined.
template <class R>
void run_group_scenario(GroupNet<R>& g, ip::Protocol control) {
  const ip::Address group(225, 1, 2, 3);
  g.receivers[0]->join_group(group, control);
  g.receivers[3]->join_group(group, control);
  g.receivers[2]->join_group(group, control);
  g.receivers[2]->set_include_filter(group, {g.receivers[0]->address()});
  g.run_for(sim::seconds(1));
  for (std::uint32_t i = 1; i <= 6; ++i) {
    g.source->send_to_group(group, 100 * i, i);
    g.run_for(sim::seconds(1));
  }
  g.receivers[0]->send_to_group(group, 40, 7);
  g.receivers[3]->leave_group(group, control);
  g.run_for(sim::seconds(1));
  g.receivers[1]->join_group(group, control);
  g.run_for(sim::seconds(1));
  for (std::uint32_t i = 8; i <= 9; ++i) {
    g.source->send_to_group(group, 100, i);
    g.run_for(sim::seconds(1));
  }
  net::Packet stray;
  stray.src = g.source->address();
  stray.dst = group;
  stray.data_bytes = 64;
  const net::NodeId root = g.roles.source_router;
  for (int i = 0; i < 3; ++i) {
    g.net.send_to_neighbor(g.roles.routers.at(1), root, stray);
  }
  stray.dst = ip::Address(225, 9, 9, 9);
  g.net.send_to_neighbor(g.roles.routers.at(1), root, stray);
  const net::NodeId bystander = g.roles.receiver_hosts.at(3);
  g.net.send_to_neighbor(g.net.topology().neighbor_via(bystander, 0),
                         bystander, stray);
  g.run_for(sim::seconds(1));
}

}  // namespace express::test
