// Unit tests for the ECMP session transport (§3.2, §3.3, §5.3):
// message classification, interface modes, the UDP refresh clock,
// segment batching, partition behavior, and a TCP session torn down in
// the middle of a count collection.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "ecmp/transport.hpp"
#include "testbed/testbed.hpp"
#include "net/network.hpp"
#include "workload/topo_gen.hpp"

namespace express::ecmp {
namespace {

const ip::ChannelId kCh{ip::Address(10, 0, 0, 1),
                        ip::Address::single_source(1)};

/// A node that feeds every inbound packet to its Transport.
class EcmpNode : public net::Node {
 public:
  EcmpNode(net::Network& network, net::NodeId id,
           TransportPolicy policy = {}, TransportHooks hooks = {})
      : net::Node(network, id),
        transport(network, id, policy, std::move(hooks)) {}
  void handle_packet(const net::Packet& packet, std::uint32_t iface) override {
    deliveries.push_back(transport.receive(packet, iface));
  }
  Transport transport;
  std::vector<Delivery> deliveries;
};

struct Pair {
  explicit Pair(TransportPolicy policy = {}, TransportHooks hooks_a = {}) {
    net::Topology topo;
    const net::NodeId ia = topo.add_router();
    const net::NodeId ib = topo.add_router();
    topo.add_link(ia, ib, sim::milliseconds(1));
    network = std::make_unique<net::Network>(std::move(topo));
    a = &network->attach<EcmpNode>(ia, policy, std::move(hooks_a));
    b = &network->attach<EcmpNode>(ib);
  }
  std::unique_ptr<net::Network> network;
  EcmpNode* a = nullptr;
  EcmpNode* b = nullptr;
};

TEST(Transport, ClassifiesSentAndReceivedByType) {
  Pair pair;
  pair.a->transport.send(pair.b->id(), Count{kCh, kSubscriberId, 3, 0, {}});
  pair.a->transport.send(pair.b->id(),
                         CountQuery{kCh, kSubscriberId, sim::seconds(1), 7});
  pair.a->transport.send(pair.b->id(),
                         CountResponse{kCh, kSubscriberId, Status::kOk});
  pair.network->run();

  const TransportStats& sent = pair.a->transport.stats();
  EXPECT_EQ(sent.counts_sent, 1u);
  EXPECT_EQ(sent.queries_sent, 1u);
  EXPECT_EQ(sent.responses_sent, 1u);
  EXPECT_GT(sent.control_bytes_sent, 0u);

  const TransportStats& recv = pair.b->transport.stats();
  EXPECT_EQ(recv.counts_received, 1u);
  EXPECT_EQ(recv.queries_received, 1u);
  EXPECT_EQ(recv.responses_received, 1u);
  EXPECT_EQ(recv.control_bytes_received, sent.control_bytes_sent);

  ASSERT_EQ(pair.b->deliveries.size(), 3u);
  EXPECT_EQ(pair.b->deliveries[0].from, pair.a->id());
}

TEST(Transport, SharedSequenceCounterIsMonotonic) {
  Pair pair;
  EXPECT_EQ(pair.a->transport.next_seq(), 1u);
  EXPECT_EQ(pair.a->transport.next_seq(), 2u);
  EXPECT_EQ(pair.a->transport.next_seq(), 3u);
}

TEST(Transport, InterfacesDefaultToTcpMode) {
  Pair pair;
  EXPECT_EQ(pair.a->transport.mode(0), Mode::kTcp);
  EXPECT_EQ(pair.a->transport.mode(99), Mode::kTcp);
}

TEST(Transport, UdpModeStartsTheRefreshClock) {
  TransportPolicy policy;
  policy.udp_query_interval = sim::milliseconds(100);
  int rounds = 0;
  TransportHooks hooks;
  hooks.udp_refresh_round = [&]() {
    ++rounds;
    return true;  // soft state remains: keep the clock running
  };
  Pair pair(policy, std::move(hooks));

  pair.a->transport.set_mode(0, Mode::kUdp);
  EXPECT_EQ(pair.a->transport.mode(0), Mode::kUdp);
  pair.network->run_until(sim::milliseconds(350));
  EXPECT_EQ(rounds, 3);
  EXPECT_TRUE(pair.a->transport.udp_refresh_active());
}

TEST(Transport, UdpRefreshClockStopsWhenARoundRunsDry) {
  // Regression: the clock used to re-arm unconditionally, querying dead
  // neighbors forever. A round reporting no remaining UDP soft state
  // (return false) must stop the clock until ensure_udp_refresh().
  TransportPolicy policy;
  policy.udp_query_interval = sim::milliseconds(100);
  int rounds = 0;
  TransportHooks hooks;
  hooks.udp_refresh_round = [&]() { return ++rounds < 2; };
  Pair pair(policy, std::move(hooks));

  pair.a->transport.set_mode(0, Mode::kUdp);
  pair.network->run_until(sim::milliseconds(1000));
  EXPECT_EQ(rounds, 2);  // ran dry on the second tick, never re-armed
  EXPECT_FALSE(pair.a->transport.udp_refresh_active());

  // New UDP soft state re-arms the clock (subscription layer hook).
  pair.a->transport.ensure_udp_refresh();
  EXPECT_TRUE(pair.a->transport.udp_refresh_active());
  pair.network->run_until(sim::milliseconds(1400));
  EXPECT_EQ(rounds, 3);  // one more tick, dry again
  EXPECT_FALSE(pair.a->transport.udp_refresh_active());
}

TEST(Transport, BatchWindowCoalescesMessagesIntoOneSegment) {
  TransportPolicy policy;
  policy.batch_window = sim::milliseconds(5);
  Pair pair(policy);

  for (std::int64_t i = 0; i < 3; ++i) {
    pair.a->transport.send(pair.b->id(), Count{kCh, kSubscriberId, i, 0, {}});
  }
  pair.network->run();

  // §5.3: three messages, one wire segment, one delivery.
  EXPECT_EQ(pair.a->transport.segments_sent(), 1u);
  ASSERT_EQ(pair.b->deliveries.size(), 1u);
  EXPECT_EQ(pair.b->deliveries[0].messages.size(), 3u);
  EXPECT_EQ(pair.b->transport.stats().counts_received, 3u);
}

TEST(Batcher, FlushedPayloadNeverExceedsSegmentCap) {
  // §5.3: ~92 16-byte Counts per 1480-byte segment. Enqueue enough to
  // fill several segments and check no flushed payload ever exceeds the
  // cap — the pre-fix enqueue appended before checking, so the 93rd
  // Count produced a 1488-byte "segment".
  sim::Scheduler sched;
  std::vector<std::size_t> sizes;
  Batcher batcher(sched, sim::milliseconds(5),
                  [&](net::NodeId, std::vector<std::uint8_t> payload) {
                    sizes.push_back(payload.size());
                  });

  const Message msg = Count{kCh, kSubscriberId, 1, 0, {}};
  const std::size_t per = encoded_size(msg);
  ASSERT_NE(kMaxSegmentBytes % per, 0u);  // remainder is what overflowed
  const std::size_t per_segment = kMaxSegmentBytes / per;
  const std::size_t total = per_segment * 3 + 1;
  for (std::size_t i = 0; i < total; ++i) {
    batcher.enqueue(net::NodeId{1}, msg);
  }
  batcher.flush_all();

  ASSERT_EQ(sizes.size(), 4u);
  std::size_t bytes = 0;
  for (std::size_t s : sizes) {
    EXPECT_LE(s, kMaxSegmentBytes);
    bytes += s;
  }
  EXPECT_EQ(bytes, total * per);           // nothing lost at the split
  EXPECT_EQ(sizes[0], per_segment * per);  // full segments stay full
}

TEST(Batcher, FlushAllDrainsNeighborsInSortedOrder) {
  // flush_all used to iterate the unordered_map, making packet-emission
  // order hash-dependent; the order must be ascending NodeId.
  sim::Scheduler sched;
  std::vector<net::NodeId> order;
  Batcher batcher(sched, sim::milliseconds(5),
                  [&](net::NodeId neighbor, std::vector<std::uint8_t>) {
                    order.push_back(neighbor);
                  });

  const Message msg = Count{kCh, kSubscriberId, 1, 0, {}};
  for (std::uint32_t id = 64; id > 0; --id) {
    batcher.enqueue(net::NodeId{id}, msg);
  }
  batcher.flush_all();

  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], net::NodeId{static_cast<std::uint32_t>(i + 1)});
  }
}

TEST(Transport, UnreachableNeighborDropsAfterByteAccounting) {
  // Two routers with no connecting link: a partition. The send is
  // accounted (the bytes hit the failed TCP write) but nothing arrives.
  net::Topology topo;
  const net::NodeId ia = topo.add_router();
  const net::NodeId ib = topo.add_router();
  net::Network network(std::move(topo));
  auto& a = network.attach<EcmpNode>(ia);
  auto& b = network.attach<EcmpNode>(ib);

  a.transport.send(ib, Count{kCh, kSubscriberId, 1, 0, {}});
  network.run();
  EXPECT_EQ(a.transport.stats().counts_sent, 1u);
  EXPECT_GT(a.transport.stats().control_bytes_sent, 0u);
  EXPECT_TRUE(b.deliveries.empty());
}

TEST(Transport, TcpTeardownMidQueryYieldsPartialCount) {
  // Binary tree, one subscriber in each half. The root's count query
  // fans to both subtrees; the link to the right subtree dies before
  // the reply can return, so the root's round times out and reports a
  // partial (complete = false) result covering only the left half.
  Testbed bed(workload::make_kary_tree(2, 2));
  const ip::ChannelId ch = bed.source().allocate_channel();
  bed.receiver(0).new_subscription(ch);
  bed.receiver(3).new_subscription(ch);
  bed.run_for(sim::seconds(1));
  ASSERT_EQ(bed.source_router().subtree_count(ch), 2);

  const net::NodeId root = bed.roles().source_router;
  const net::NodeId right = bed.roles().routers[2];
  auto iface = bed.net().topology().interface_to(root, right);
  ASSERT_TRUE(iface.has_value());
  const net::LinkId link = bed.net().topology().port(root, *iface).link;

  std::optional<CountResult> result;
  bed.source_router().initiate_count(
      ch, kSubscriberId, sim::milliseconds(500),
      [&](CountResult r) { result = r; });
  bed.net().set_link_up(link, false);
  bed.run_for(sim::seconds(3));

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->complete);
  EXPECT_EQ(result->count, 1);
  EXPECT_GE(bed.source_router().counting_stats().rounds_timed_out, 1u);
}

}  // namespace
}  // namespace express::ecmp
