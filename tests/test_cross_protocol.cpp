// Cross-protocol data-plane equivalence: EXPRESS and PIM-SM both route
// their replication through the shared net::replicate, so on the same
// topology with the same membership they must deliver exactly the same
// packet sets to the same receivers (the protocols differ in control
// cost and state, §4 — not in who gets the data).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "baseline/group_host.hpp"
#include "baseline/pim_sm.hpp"
#include "helpers.hpp"
#include "testbed/delivery_log.hpp"
#include "workload/topo_gen.hpp"

namespace express::test {
namespace {

using baseline::GroupHost;
using baseline::PimConfig;
using baseline::PimSmRouter;

constexpr std::size_t kReceiverCount = 4;
const std::set<std::size_t> kMembers = {0, 2, 3};
constexpr std::uint64_t kPackets = 5;

/// Delivered sequence sets per receiver index.
using DeliveryMatrix = std::vector<std::set<std::uint64_t>>;

DeliveryMatrix run_express() {
  ExpressNetwork sim(workload::make_kary_tree(2, 2));
  const ip::ChannelId ch = sim.source().allocate_channel();
  std::vector<DeliveryLog> logs(kReceiverCount);
  for (std::size_t i = 0; i < kReceiverCount; ++i) {
    sim.receiver(i).set_data_handler(logs[i].handler());
  }
  for (std::size_t i : kMembers) sim.receiver(i).new_subscription(ch);
  sim.run_for(sim::seconds(1));
  for (std::uint64_t seq = 1; seq <= kPackets; ++seq) {
    sim.source().send(ch, 200, seq);
  }
  sim.run_for(sim::seconds(1));

  DeliveryMatrix delivered(kReceiverCount);
  for (std::size_t i = 0; i < kReceiverCount; ++i) {
    for (const auto& d : logs[i]) {
      delivered[i].insert(d.sequence);
    }
  }
  return delivered;
}

DeliveryMatrix run_pim() {
  auto topo = workload::make_kary_tree(2, 2);
  PimConfig config;
  config.rp = topo.topology.address(topo.routers[0]);  // RP at the root
  const ip::Address group(225, 1, 2, 3);

  auto roles = std::move(topo);
  auto network = std::make_unique<net::Network>(std::move(roles.topology));
  std::vector<PimSmRouter*> routers;
  for (net::NodeId r : roles.routers) {
    routers.push_back(&network->attach<PimSmRouter>(r, config));
  }
  GroupHost& source = network->attach<GroupHost>(roles.source_host);
  std::vector<GroupHost*> receivers;
  for (net::NodeId h : roles.receiver_hosts) {
    receivers.push_back(&network->attach<GroupHost>(h));
  }

  std::vector<DeliveryLog> logs(kReceiverCount);
  for (std::size_t i = 0; i < kReceiverCount; ++i) {
    receivers[i]->set_data_handler(logs[i].handler());
  }
  for (std::size_t i : kMembers) {
    receivers[i]->join_group(group, ip::Protocol::kPim);
  }
  network->run_until(network->now() + sim::seconds(1));
  for (std::uint64_t seq = 1; seq <= kPackets; ++seq) {
    source.send_to_group(group, 200, seq);
  }
  network->run_until(network->now() + sim::seconds(1));

  DeliveryMatrix delivered(kReceiverCount);
  for (std::size_t i = 0; i < kReceiverCount; ++i) {
    for (const auto& d : logs[i]) {
      delivered[i].insert(d.sequence);
    }
  }
  return delivered;
}

TEST(CrossProtocol, ExpressAndPimDeliverIdenticalPacketSets) {
  const DeliveryMatrix express = run_express();
  const DeliveryMatrix pim = run_pim();

  std::set<std::uint64_t> all;
  for (std::uint64_t seq = 1; seq <= kPackets; ++seq) all.insert(seq);

  for (std::size_t i = 0; i < kReceiverCount; ++i) {
    EXPECT_EQ(express[i], pim[i]) << "receiver " << i;
    if (kMembers.contains(i)) {
      EXPECT_EQ(express[i], all) << "receiver " << i;
    } else {
      EXPECT_TRUE(express[i].empty()) << "receiver " << i;
    }
  }
}

}  // namespace
}  // namespace express::test
