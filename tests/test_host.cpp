// ExpressHost service-interface tests: the §2.1 API surface, app
// unicast, handlers, silent-mode failure injection, and error paths.
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <variant>
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
  Testbed sim(make_star(1, 1));
  std::uint32_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    const auto ch = sim.source().allocate_channel();
    EXPECT_GT(ch.dest.channel_index(), prev);
    prev = ch.dest.channel_index();
  }
}

TEST(Host, AppUnicastReachesHandler) {
  Testbed sim(make_star(2, 1));
  std::optional<std::uint64_t> got;
  sim.receiver(1).set_unicast_handler(
      [&](const net::Packet& packet, sim::Time) { got = packet.sequence; });
  sim.receiver(0).send_app_unicast(sim.receiver(1).address(), 300, 42);
  sim.run_for(sim::seconds(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 42u);
}

TEST(Host, DataHandlerSeesPayloadHeader) {
  Testbed sim(make_star(1, 1));
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
  Testbed sim(make_star(1, 1));
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
  Testbed sim(make_star(1, 1));
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
  Testbed sim;
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
  Testbed sim(make_star(1, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  const auto counts_before = sim.receiver(0).stats().counts_sent;
  sim.receiver(0).delete_subscription(ch);  // never subscribed
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sim.receiver(0).stats().counts_sent, counts_before);
}

TEST(Host, CountQueryGuardResolvesOnDeadNetwork) {
  // The first-hop link dies right after the query: the local guard
  // timer must still resolve the callback (partial, zero).
  Testbed sim(make_star(1, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.run_for(sim::seconds(1));

  // Cut the source's access link so the reply can never arrive.
  const auto iface =
      sim.net().topology().port(sim.roles().source_host, 0).link;
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
  Testbed sim(make_star(1, 1));
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
  Testbed sim(make_star(1, 1));
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

/// Stands in for the first-hop router: decodes and keeps every Count
/// the host sends it.
class CountSink : public net::Node {
 public:
  CountSink(net::Network& network, net::NodeId id) : Node(network, id) {}
  void handle_packet(const net::Packet& packet, std::uint32_t) override {
    for (const ecmp::Message& msg : ecmp::decode_all(packet.payload)) {
      if (const auto* count = std::get_if<ecmp::Count>(&msg)) {
        counts.push_back(*count);
      }
    }
  }
  std::vector<ecmp::Count> counts;
};

TEST(Host, GeneralQueryTriggersReannounce) {
  // §3.3: an all-channels CountQuery solicits Counts for everything the
  // host subscribes to — used after router restarts. The burst comes
  // out in ascending channel order, whatever the subscription order.
  net::Topology topo;
  const net::NodeId edge = topo.add_router();
  const net::NodeId host = topo.add_host();
  topo.add_link(edge, host);
  net::Network network(std::move(topo));
  auto& sink = network.attach<CountSink>(edge);
  auto& receiver = network.attach<ExpressHost>(host);
  const ip::Address source(10, 9, 9, 9);
  const ip::ChannelId ch1{source, ip::Address::single_source(1)};
  const ip::ChannelId ch2{source, ip::Address::single_source(2)};
  const ip::ChannelId ch3{source, ip::Address::single_source(3)};
  receiver.new_subscription(ch3);
  receiver.new_subscription(ch1);
  receiver.new_subscription(ch2);
  network.run();
  ASSERT_EQ(sink.counts.size(), 3u);
  sink.counts.clear();
  const auto sent_before = receiver.stats().counts_sent;

  net::Packet packet;
  packet.src = network.topology().address(edge);
  packet.dst = receiver.address();
  packet.protocol = ip::Protocol::kEcmp;
  ecmp::CountQuery general;
  general.channel = ch1;  // channel field unused for all-channels
  general.count_id = ecmp::kAllChannelsId;
  packet.payload = ecmp::encode(ecmp::Message{general});
  network.send_to_neighbor(edge, host, std::move(packet));
  network.run();
  // One Count re-announced per subscribed channel, in channel order.
  EXPECT_EQ(receiver.stats().counts_sent, sent_before + 3);
  ASSERT_EQ(sink.counts.size(), 3u);
  EXPECT_EQ(sink.counts[0].channel, ch1);
  EXPECT_EQ(sink.counts[1].channel, ch2);
  EXPECT_EQ(sink.counts[2].channel, ch3);
  for (const ecmp::Count& count : sink.counts) EXPECT_EQ(count.count, 1);
}

}  // namespace
}  // namespace express::test
