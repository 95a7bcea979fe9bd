// ExpressHost service-interface tests: the §2.1 API surface, app
// unicast, handlers, silent-mode failure injection, and error paths.
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <vector>

#include "baseline/dvmrp.hpp"
#include "baseline/group_host.hpp"
#include "helpers.hpp"
#include "sim/random.hpp"
#include "testbed/delivery_log.hpp"
#include "workload/topo_gen.hpp"

namespace express::test {
namespace {

using workload::make_star;

TEST(Host, RejectsAttachingToRouterNode) {
  net::Topology topo;
  const auto r = topo.add_router();
  topo.add_link(r, topo.add_host());
  net::Network network(std::move(topo));
  EXPECT_THROW(network.attach<ExpressHost>(r), std::logic_error);
}

TEST(Host, RejectsMultihomedHosts) {
  net::Topology topo;
  const auto h = topo.add_host();
  topo.add_link(h, topo.add_router());
  topo.add_link(h, topo.add_router());
  net::Network network(std::move(topo));
  EXPECT_THROW(network.attach<ExpressHost>(h), std::logic_error);
}

TEST(Host, ChannelSpaceExhaustionThrows) {
  // Not by allocating 2^24 channels — by checking the guard directly
  // via a tight loop on a fresh host is too slow; instead confirm the
  // allocator hands out strictly increasing channel indices.
  ExpressNetwork sim(make_star(1, 1));
  std::uint32_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    const auto ch = sim.source().allocate_channel();
    EXPECT_GT(ch.dest.channel_index(), prev);
    prev = ch.dest.channel_index();
  }
}

TEST(Host, AppUnicastReachesHandler) {
  ExpressNetwork sim(make_star(2, 1));
  std::optional<std::uint64_t> got;
  sim.receiver(1).set_unicast_handler(
      [&](const net::Packet& packet, sim::Time) { got = packet.sequence; });
  sim.receiver(0).send_app_unicast(sim.receiver(1).address(), 300, 42);
  sim.run_for(sim::seconds(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 42u);
}

TEST(Host, DataHandlerSeesPayloadHeader) {
  ExpressNetwork sim(make_star(1, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.run_for(sim::seconds(1));
  std::vector<std::uint8_t> seen;
  sim.receiver(0).set_data_handler(
      [&](const net::Packet& packet, sim::Time) { seen = packet.payload; });
  sim.source().send(ch, 100, 1, {0xAB, 0xCD});
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(seen, (std::vector<std::uint8_t>{0xAB, 0xCD}));
}

TEST(Host, SilentHostDeliversNothingToApp) {
  ExpressNetwork sim(make_star(1, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.run_for(sim::seconds(1));
  DeliveryLog log;
  sim.receiver(0).set_data_handler(log.handler());
  sim.receiver(0).set_silent(true);
  sim.source().send(ch, 100, 1);
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sim.receiver(0).stats().data_received, 0u);
  EXPECT_TRUE(log.empty());
  sim.receiver(0).set_silent(false);
  sim.source().send(ch, 100, 2);
  sim.run_for(sim::seconds(1));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].sequence, 2u);
}

TEST(Host, DataHandlerSlotHasOneOwner) {
  // A second install would silently disconnect whoever holds the slot
  // (a relay participant, a reliable subscriber): it throws instead, and
  // the first handler keeps receiving.
  ExpressNetwork sim(make_star(1, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.run_for(sim::seconds(1));
  DeliveryLog owner;
  DeliveryLog intruder;
  sim.receiver(0).set_data_handler(owner.handler());
  EXPECT_THROW(sim.receiver(0).set_data_handler(intruder.handler()),
               std::logic_error);
  sim.source().send(ch, 100, 7);
  sim.run_for(sim::seconds(1));
  ASSERT_EQ(owner.size(), 1u);
  EXPECT_EQ(owner[0].sequence, 7u);
  EXPECT_TRUE(intruder.empty());

  auto topo = workload::make_star(1, 1);
  net::Network network(std::move(topo.topology));
  auto& group_host =
      network.attach<baseline::GroupHost>(topo.receiver_hosts[0]);
  group_host.set_data_handler(owner.handler());
  EXPECT_THROW(group_host.set_data_handler(intruder.handler()),
               std::logic_error);
}

/// A seeded multi-receiver channel run: random membership on a 2-ary
/// depth-3 tree, `packets` sends one second apart. With `logs`, a
/// DeliveryLog is attached to every receiver before anything happens.
struct LoggedRun {
  explicit LoggedRun(bool with_logs) : sim(workload::make_kary_tree(2, 3)) {
    if (with_logs) {
      for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
        sim.receiver(i).set_data_handler(logs.emplace_back().handler());
      }
    }
    sim::Rng rng(20260417);
    const ip::ChannelId ch = sim.source().allocate_channel();
    for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
      if (rng.chance(0.6)) sim.receiver(i).new_subscription(ch);
    }
    sim.run_for(sim::seconds(1));
    for (std::uint64_t seq = 1; seq <= kPackets; ++seq) {
      sim.source().send(ch, 200 + static_cast<std::uint32_t>(seq), seq);
      sim.run_for(sim::seconds(1));
    }
  }
  static constexpr std::uint64_t kPackets = 6;
  std::deque<DeliveryLog> logs;  ///< declared first: outlives the hosts
  ExpressNetwork sim;
};

TEST(Host, DeliveryLogHoldsExactlyTheReceivedPackets) {
  LoggedRun run(/*with_logs=*/true);
  std::size_t members = 0;
  for (std::size_t i = 0; i < run.sim.receiver_count(); ++i) {
    const DeliveryLog& log = run.logs[i];
    ASSERT_EQ(log.size(), run.sim.receiver(i).stats().data_received) << i;
    if (log.empty()) continue;
    ++members;
    ASSERT_EQ(log.size(), LoggedRun::kPackets) << i;
    for (std::size_t k = 0; k < log.size(); ++k) {
      EXPECT_EQ(log[k].sequence, k + 1) << "receiver " << i;
      EXPECT_EQ(log[k].bytes, 201 + k) << "receiver " << i;
      EXPECT_EQ(log[k].channel.source, run.sim.source().address());
      if (k > 0) {
        EXPECT_LT(log[k - 1].at, log[k].at) << "receiver " << i;
      }
    }
  }
  EXPECT_GT(members, 0u);
  EXPECT_LT(members, run.sim.receiver_count());
}

TEST(Host, DeliveryLogsDoNotPerturbTheRun) {
  LoggedRun bare(/*with_logs=*/false);
  LoggedRun logged(/*with_logs=*/true);
  EXPECT_EQ(bare.sim.net().stats().packets_sent,
            logged.sim.net().stats().packets_sent);
  EXPECT_EQ(bare.sim.net().scheduler().executed_events(),
            logged.sim.net().scheduler().executed_events());
  const sim::Time at = bare.sim.net().now();
  ASSERT_EQ(at, logged.sim.net().now());
  EXPECT_EQ(bare.sim.net().obs().registry.snapshot_json(at),
            logged.sim.net().obs().registry.snapshot_json(at));
}

TEST(Host, GroupHostDeliveryLogSkipsFilteredPackets) {
  // IGMPv3 include filter (§2.2.2): the unwanted sender's packets reach
  // the host and are dropped there, so the log never sees them.
  auto topo = workload::make_kary_tree(2, 2);
  const std::vector<net::NodeId> routers = topo.routers;
  const net::NodeId source_id = topo.source_host;
  const std::vector<net::NodeId> receiver_ids = topo.receiver_hosts;
  net::Network network(std::move(topo.topology));
  for (net::NodeId r : routers) network.attach<baseline::DvmrpRouter>(r);
  auto& wanted = network.attach<baseline::GroupHost>(source_id);
  std::vector<baseline::GroupHost*> hosts;
  for (net::NodeId h : receiver_ids) {
    hosts.push_back(&network.attach<baseline::GroupHost>(h));
  }
  baseline::GroupHost& member = *hosts[0];
  baseline::GroupHost& other = *hosts[3];
  const ip::Address group(225, 9, 9, 9);
  DeliveryLog log;
  member.set_data_handler(log.handler());
  member.join_group(group);
  member.set_include_filter(group, {wanted.address()});
  network.run_until(sim::seconds(1));
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    wanted.send_to_group(group, 100, seq);
    other.send_to_group(group, 100, 100 + seq);
    network.run_until(network.now() + sim::seconds(1));
  }
  const auto stats = member.stats();
  EXPECT_EQ(stats.data_received, 4u);
  EXPECT_EQ(stats.data_filtered, 4u);
  ASSERT_EQ(log.size(), stats.data_received);
  for (std::size_t k = 0; k < log.size(); ++k) {
    EXPECT_EQ(log[k].sequence, k + 1);
    EXPECT_EQ(log[k].channel.source, wanted.address());
    EXPECT_EQ(log[k].channel.dest, group);
  }
}

TEST(Host, UnsubscribedDeleteIsANoop) {
  ExpressNetwork sim(make_star(1, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  const auto counts_before = sim.receiver(0).stats().counts_sent;
  sim.receiver(0).delete_subscription(ch);  // never subscribed
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sim.receiver(0).stats().counts_sent, counts_before);
}

TEST(Host, CountQueryGuardResolvesOnDeadNetwork) {
  // The first-hop link dies right after the query: the local guard
  // timer must still resolve the callback (partial, zero).
  ExpressNetwork sim(make_star(1, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.run_for(sim::seconds(1));

  // Cut the source's access link so the reply can never arrive.
  const auto iface = sim.net().topology().node(sim.roles().source_host)
                         .interfaces.at(0);
  std::optional<CountResult> result;
  sim.source().count_query(ch, ecmp::kSubscriberId, sim::seconds(2),
                           [&](CountResult r) { result = r; });
  sim.net().set_link_up(iface, false);
  sim.run_for(sim::seconds(10));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->complete);
  EXPECT_EQ(result->count, 0);
}

TEST(Host, VoteHandlersReceiveDistinctCountIds) {
  ExpressNetwork sim(make_star(1, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.run_for(sim::seconds(1));
  sim.receiver(0).set_count_handler(ecmp::kAppRangeBegin + 1,
                                    [] { return std::int64_t{11}; });
  sim.receiver(0).set_count_handler(ecmp::kAppRangeBegin + 2,
                                    [] { return std::int64_t{22}; });
  std::optional<CountResult> a, b;
  sim.source().count_query(ch, ecmp::kAppRangeBegin + 1, sim::seconds(2),
                           [&](CountResult r) { a = r; });
  sim.run_for(sim::seconds(5));
  sim.source().count_query(ch, ecmp::kAppRangeBegin + 2, sim::seconds(2),
                           [&](CountResult r) { b = r; });
  sim.run_for(sim::seconds(5));
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->count, 11);
  EXPECT_EQ(b->count, 22);
}

TEST(Host, ResubscribeAfterUnsubscribeWorks) {
  ExpressNetwork sim(make_star(1, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  for (int round = 0; round < 3; ++round) {
    sim.receiver(0).new_subscription(ch);
    sim.run_for(sim::seconds(1));
    sim.source().send(ch, 100, static_cast<std::uint64_t>(round));
    sim.run_for(sim::seconds(1));
    sim.receiver(0).delete_subscription(ch);
    sim.run_for(sim::seconds(1));
  }
  EXPECT_EQ(sim.receiver(0).stats().data_received, 3u);
  EXPECT_EQ(sim.total_fib_entries(), 0u);
}

TEST(Host, GeneralQueryTriggersReannounce) {
  // §3.3: an all-channels CountQuery solicits Counts for everything the
  // host subscribes to — used after router restarts.
  ExpressNetwork sim(make_star(1, 1));
  const ip::ChannelId ch1 = sim.source().allocate_channel();
  const ip::ChannelId ch2 = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch1);
  sim.receiver(0).new_subscription(ch2);
  sim.run_for(sim::seconds(1));
  const auto sent_before = sim.receiver(0).stats().counts_sent;

  // Simulate the edge router's general query by having the router issue
  // a kAllChannelsId query on the host interface (UDP-mode machinery).
  ExpressRouter& edge = sim.router(1);
  (void)edge;
  // Craft it via the router's own interface-mode refresh is indirect;
  // instead verify the host's response logic directly through the wire:
  net::Packet packet;
  packet.src = sim.net().topology().node(edge.id()).address;
  packet.dst = sim.receiver(0).address();
  packet.protocol = ip::Protocol::kEcmp;
  ecmp::CountQuery general;
  general.channel = ch1;  // channel field unused for all-channels
  general.count_id = ecmp::kAllChannelsId;
  packet.payload = ecmp::encode(ecmp::Message{general});
  sim.net().send_to_neighbor(edge.id(), sim.roles().receiver_hosts[0],
                             std::move(packet));
  sim.run_for(sim::seconds(1));
  // One Count re-announced per subscribed channel.
  EXPECT_EQ(sim.receiver(0).stats().counts_sent, sent_before + 2);
}

}  // namespace
}  // namespace express::test
