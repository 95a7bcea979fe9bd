// Baseline group-model protocols: DVMRP broadcast-and-prune, PIM-SM
// rendezvous trees, CBT bidirectional cores — the comparison points the
// paper argues EXPRESS improves on.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/cbt.hpp"
#include "baseline/dvmrp.hpp"
#include "baseline/group_host.hpp"
#include "baseline/pim_sm.hpp"
#include "net/network.hpp"
#include "testbed/delivery_log.hpp"
#include "workload/topo_gen.hpp"

namespace express::test {
namespace {

using baseline::CbtConfig;
using baseline::CbtRouter;
using baseline::DvmrpRouter;
using baseline::GroupHost;
using baseline::PimConfig;
using baseline::PimSmRouter;

const ip::Address kGroup(225, 1, 2, 3);

/// Wire a generated topology with baseline routers of type R.
template <typename R, typename... Args>
struct BaselineNet {
  explicit BaselineNet(workload::GeneratedTopology generated, Args... args)
      : roles(std::move(generated)),
        network(std::make_unique<net::Network>(std::move(roles.topology))) {
    for (net::NodeId r : roles.routers) {
      routers.push_back(&network->attach<R>(r, args...));
    }
    source = &network->attach<GroupHost>(roles.source_host);
    for (net::NodeId h : roles.receiver_hosts) {
      receivers.push_back(&network->attach<GroupHost>(h));
    }
  }
  void run_for(sim::Duration d) { network->run_until(network->now() + d); }

  workload::GeneratedTopology roles;
  std::unique_ptr<net::Network> network;
  std::vector<R*> routers;
  GroupHost* source = nullptr;
  std::vector<GroupHost*> receivers;
};

// ---------------------------------------------------------------- DVMRP

TEST(Dvmrp, FloodsThenDelivers) {
  BaselineNet<DvmrpRouter> sim(workload::make_kary_tree(2, 2));
  sim.receivers[0]->join_group(kGroup);
  sim.receivers[3]->join_group(kGroup);
  sim.run_for(sim::seconds(1));
  sim.source->send_to_group(kGroup, 100, 1);
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sim.receivers[0]->stats().data_received, 1u);
  EXPECT_EQ(sim.receivers[3]->stats().data_received, 1u);
  EXPECT_EQ(sim.receivers[1]->stats().data_received, 0u);
  EXPECT_EQ(sim.receivers[2]->stats().data_received, 0u);
}

TEST(Dvmrp, EveryRouterHoldsStateAfterFlood) {
  // The scalability problem: even routers with zero subscribers hold
  // (S,G) state once the flood reaches them.
  BaselineNet<DvmrpRouter> sim(workload::make_kary_tree(2, 3));
  sim.receivers[0]->join_group(kGroup);
  sim.run_for(sim::seconds(1));
  sim.source->send_to_group(kGroup, 100, 1);
  sim.run_for(sim::seconds(1));
  std::size_t with_state = 0;
  for (auto* r : sim.routers) {
    if (r->state_entries() > 0) ++with_state;
  }
  // All 15 routers saw the flood; only 4 are on the useful path.
  EXPECT_EQ(with_state, sim.routers.size());
}

TEST(Dvmrp, PrunesStopOffTreeTraffic) {
  BaselineNet<DvmrpRouter> sim(workload::make_kary_tree(2, 2));
  sim.receivers[0]->join_group(kGroup);
  sim.run_for(sim::seconds(1));
  // First packet floods everywhere and triggers prunes.
  sim.source->send_to_group(kGroup, 100, 1);
  sim.run_for(sim::seconds(1));
  std::uint64_t flood_after_first = 0;
  for (auto* r : sim.routers) flood_after_first += r->stats().flood_copies;
  // Subsequent packets follow only the pruned tree.
  for (int i = 2; i <= 5; ++i) {
    sim.source->send_to_group(kGroup, 100, static_cast<std::uint64_t>(i));
    sim.run_for(sim::seconds(1));
  }
  std::uint64_t flood_total = 0;
  std::uint64_t prunes = 0;
  for (auto* r : sim.routers) {
    flood_total += r->stats().flood_copies;
    prunes += r->stats().prunes_sent;
  }
  EXPECT_GT(prunes, 0u);
  // Per-packet flood cost dropped sharply after pruning: each of the
  // four later packets costs fewer speculative copies than the first.
  const double per_packet_after =
      static_cast<double>(flood_total - flood_after_first) / 4.0;
  EXPECT_LT(per_packet_after, static_cast<double>(flood_after_first));
  EXPECT_EQ(sim.receivers[0]->stats().data_received, 5u);
}

TEST(Dvmrp, GraftRestoresPrunedBranch) {
  BaselineNet<DvmrpRouter> sim(workload::make_kary_tree(2, 2));
  sim.receivers[0]->join_group(kGroup);
  sim.run_for(sim::seconds(1));
  sim.source->send_to_group(kGroup, 100, 1);
  sim.run_for(sim::seconds(1));

  // A new member joins a pruned branch; the graft reconnects it.
  sim.receivers[3]->join_group(kGroup);
  sim.run_for(sim::seconds(1));
  sim.source->send_to_group(kGroup, 100, 2);
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sim.receivers[3]->stats().data_received, 1u);
}

TEST(Dvmrp, PruneExpiryRefloods) {
  // Broadcast-and-prune's standing cost: prunes are soft state, so the
  // flood resumes every prune lifetime even with zero membership change.
  baseline::DvmrpConfig config;
  config.prune_lifetime = sim::seconds(5);
  BaselineNet<DvmrpRouter, baseline::DvmrpConfig> sim(
      workload::make_kary_tree(2, 2), config);
  sim.receivers[0]->join_group(kGroup);
  sim.run_for(sim::seconds(1));

  auto prunes_total = [&sim]() {
    std::uint64_t n = 0;
    for (auto* r : sim.routers) n += r->stats().prunes_sent;
    return n;
  };

  // Settle: prune cascades take a couple of packets to quiesce (a
  // parent only notices an all-pruned child set on the next packet).
  for (int p = 1; p <= 3; ++p) {
    sim.source->send_to_group(kGroup, 100, static_cast<std::uint64_t>(p));
    sim.run_for(sim::milliseconds(300));
  }
  const auto settled = prunes_total();
  EXPECT_GT(settled, 0u);

  // Within the prune lifetime: no re-flood, no new prunes.
  sim.source->send_to_group(kGroup, 100, 4);
  sim.run_for(sim::milliseconds(300));
  EXPECT_EQ(prunes_total(), settled);

  // After expiry the next packet floods again and re-triggers prunes.
  sim.run_for(sim::seconds(7));
  sim.source->send_to_group(kGroup, 100, 5);
  sim.run_for(sim::milliseconds(300));
  EXPECT_GT(prunes_total(), settled);
  EXPECT_EQ(sim.receivers[0]->stats().data_received, 5u);
}

TEST(Dvmrp, AnySourceCanSend) {
  // The group model's property (and problem): receiver(1)'s host can
  // blast the group and members receive it.
  BaselineNet<DvmrpRouter> sim(workload::make_kary_tree(2, 2));
  DeliveryLog log;
  sim.receivers[0]->set_data_handler(log.handler());
  sim.receivers[0]->join_group(kGroup);
  sim.run_for(sim::seconds(1));
  sim.receivers[1]->send_to_group(kGroup, 4000, 666);
  sim.run_for(sim::seconds(1));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].channel.source, sim.receivers[1]->address());
}

// ---------------------------------------------------------------- PIM-SM

struct PimNet : BaselineNet<PimSmRouter, PimConfig> {
  explicit PimNet(workload::GeneratedTopology generated, PimConfig config)
      : BaselineNet<PimSmRouter, PimConfig>(std::move(generated), config) {}
};

TEST(PimSm, SharedTreeDeliversViaRp) {
  auto topo = workload::make_kary_tree(2, 2);
  // RP = the right depth-1 router (routers[2]).
  PimConfig config;
  config.rp = topo.topology.node(topo.routers[2]).address;
  PimNet sim(std::move(topo), config);

  sim.receivers[0]->join_group(kGroup, ip::Protocol::kPim);
  sim.run_for(sim::seconds(1));
  sim.source->send_to_group(kGroup, 100, 1);
  sim.run_for(sim::seconds(1));
  ASSERT_EQ(sim.receivers[0]->stats().data_received, 1u);
  // The register triangle ran: first hop encapsulated to the RP.
  std::uint64_t registers = 0, decaps = 0;
  for (auto* r : sim.routers) {
    registers += r->stats().registers_sent;
    decaps += r->stats().registers_decapsulated;
  }
  EXPECT_GE(registers, 1u);
  EXPECT_GE(decaps, 1u);
}

TEST(PimSm, RegisterStopSwitchesToNativeForwarding) {
  auto topo = workload::make_kary_tree(2, 2);
  PimConfig config;
  config.rp = topo.topology.node(topo.routers[2]).address;
  PimNet sim(std::move(topo), config);

  sim.receivers[0]->join_group(kGroup, ip::Protocol::kPim);
  sim.run_for(sim::seconds(1));
  for (int i = 1; i <= 5; ++i) {
    sim.source->send_to_group(kGroup, 100, static_cast<std::uint64_t>(i));
    sim.run_for(sim::seconds(1));
  }
  EXPECT_EQ(sim.receivers[0]->stats().data_received, 5u);
  std::uint64_t registers = 0, stops = 0;
  for (auto* r : sim.routers) {
    registers += r->stats().registers_sent;
    stops += r->stats().register_stops;
  }
  // After the RegisterStop, later packets flow natively: far fewer than
  // one register per packet.
  EXPECT_GE(stops, 1u);
  EXPECT_LT(registers, 5u);
}

TEST(PimSm, SptSwitchoverBuildsSourceTree) {
  auto topo = workload::make_kary_tree(2, 2);
  PimConfig config;
  config.rp = topo.topology.node(topo.routers[2]).address;
  config.spt_switchover = true;
  PimNet sim(std::move(topo), config);

  sim.receivers[0]->join_group(kGroup, ip::Protocol::kPim);
  sim.run_for(sim::seconds(1));
  for (int i = 1; i <= 6; ++i) {
    sim.source->send_to_group(kGroup, 100, static_cast<std::uint64_t>(i));
    sim.run_for(sim::seconds(1));
  }
  // The last-hop router switched: it holds (S,G) state now.
  const ip::ChannelId sg{sim.source->address(), kGroup};
  bool any_sg = false;
  for (auto* r : sim.routers) any_sg |= r->on_source_tree(sg);
  EXPECT_TRUE(any_sg);
  // Delivery continued throughout (shared tree, then SPT).
  EXPECT_GE(sim.receivers[0]->stats().data_received, 5u);
}

TEST(PimSm, LeavePrunesSharedTree) {
  auto topo = workload::make_kary_tree(2, 2);
  PimConfig config;
  config.rp = topo.topology.node(topo.routers[0]).address;  // RP at root
  PimNet sim(std::move(topo), config);

  sim.receivers[0]->join_group(kGroup, ip::Protocol::kPim);
  sim.run_for(sim::seconds(1));
  std::size_t on_tree_before = 0;
  for (auto* r : sim.routers) {
    if (r->on_shared_tree(kGroup)) ++on_tree_before;
  }
  EXPECT_GE(on_tree_before, 3u);

  sim.receivers[0]->leave_group(kGroup, ip::Protocol::kPim);
  sim.run_for(sim::seconds(1));
  for (auto* r : sim.routers) {
    if (r->is_rp()) continue;
    EXPECT_FALSE(r->on_shared_tree(kGroup));
  }
}

// ------------------------------------------------------------------ CBT

struct CbtNet : BaselineNet<CbtRouter, CbtConfig> {
  explicit CbtNet(workload::GeneratedTopology generated, CbtConfig config)
      : BaselineNet<CbtRouter, CbtConfig>(std::move(generated), config) {}
};

TEST(Cbt, BidirectionalTreeDeliversBothWays) {
  auto topo = workload::make_kary_tree(2, 2);
  CbtConfig config;
  config.core = topo.topology.node(topo.routers[0]).address;  // core at root
  CbtNet sim(std::move(topo), config);

  // Two members on opposite branches; both also send.
  sim.receivers[0]->join_group(kGroup, ip::Protocol::kCbt);
  sim.receivers[3]->join_group(kGroup, ip::Protocol::kCbt);
  sim.run_for(sim::seconds(1));

  sim.receivers[0]->send_to_group(kGroup, 100, 1);
  sim.run_for(sim::seconds(1));
  // Member-sender: data goes up its branch and down the other; the
  // sender itself does not hear its own packet back.
  ASSERT_EQ(sim.receivers[3]->stats().data_received, 1u);
  EXPECT_EQ(sim.receivers[0]->stats().data_received, 0u);

  sim.receivers[3]->send_to_group(kGroup, 100, 2);
  sim.run_for(sim::seconds(1));
  ASSERT_EQ(sim.receivers[0]->stats().data_received, 1u);
}

TEST(Cbt, OffTreeSenderTunnelsToCore) {
  auto topo = workload::make_kary_tree(2, 2);
  CbtConfig config;
  // Core away from the source's first hop, so the non-member source's
  // first-hop router must tunnel.
  config.core = topo.topology.node(topo.routers[2]).address;
  CbtNet sim(std::move(topo), config);

  sim.receivers[0]->join_group(kGroup, ip::Protocol::kCbt);
  sim.run_for(sim::seconds(1));
  // The source host never joined: its first hop encapsulates to the core.
  sim.source->send_to_group(kGroup, 100, 7);
  sim.run_for(sim::seconds(1));
  ASSERT_EQ(sim.receivers[0]->stats().data_received, 1u);
  std::uint64_t encaps = 0, decaps = 0;
  for (auto* r : sim.routers) {
    encaps += r->stats().encapsulated_to_core;
    decaps += r->stats().decapsulated_at_core;
  }
  EXPECT_EQ(encaps, 1u);
  EXPECT_EQ(decaps, 1u);
}

TEST(Cbt, OneStateEntryPerGroupRegardlessOfSenders) {
  auto topo = workload::make_kary_tree(2, 2);
  CbtConfig config;
  config.core = topo.topology.node(topo.routers[0]).address;
  CbtNet sim(std::move(topo), config);

  sim.receivers[0]->join_group(kGroup, ip::Protocol::kCbt);
  sim.receivers[1]->join_group(kGroup, ip::Protocol::kCbt);
  sim.run_for(sim::seconds(1));
  for (std::size_t s = 0; s < 4; ++s) {
    sim.receivers[s]->send_to_group(kGroup, 50, s);
  }
  sim.run_for(sim::seconds(1));
  for (auto* r : sim.routers) {
    EXPECT_LE(r->state_entries(), 1u);  // (*,G) only, never (S,G)
  }
}

TEST(Cbt, LeaveCascadesPrunes) {
  auto topo = workload::make_kary_tree(2, 2);
  CbtConfig config;
  config.core = topo.topology.node(topo.routers[0]).address;
  CbtNet sim(std::move(topo), config);

  sim.receivers[0]->join_group(kGroup, ip::Protocol::kCbt);
  sim.run_for(sim::seconds(1));
  sim.receivers[0]->leave_group(kGroup, ip::Protocol::kCbt);
  sim.run_for(sim::seconds(1));
  for (auto* r : sim.routers) {
    EXPECT_FALSE(r->on_tree(kGroup));
  }
}

}  // namespace
}  // namespace express::test
