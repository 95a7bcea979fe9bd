// Network fabric tests: FIFO links, serialization + propagation timing,
// per-link accounting, unicast transit, drop counters.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "testbed/testbed.hpp"
#include "net/impairment.hpp"
#include "net/network.hpp"

namespace express::net {
namespace {

/// Records every delivery with its arrival time.
class Recorder : public Node {
 public:
  Recorder(Network& network, NodeId id) : Node(network, id) {}
  void handle_packet(const Packet& packet, std::uint32_t in_iface) override {
    arrivals.push_back({packet.sequence, network().now(), in_iface});
  }
  struct Arrival {
    std::uint64_t sequence;
    sim::Time at;
    std::uint32_t iface;
  };
  std::vector<Arrival> arrivals;
};

Packet data_packet(ip::Address src, ip::Address dst, std::uint32_t bytes,
                   std::uint64_t seq) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.protocol = ip::Protocol::kUdp;
  p.data_bytes = bytes;
  p.sequence = seq;
  return p;
}

TEST(Network, PropagationPlusSerializationDelay) {
  Topology topo;
  const NodeId a = topo.add_router();
  const NodeId b = topo.add_router();
  // 10 ms delay, 1 Mb/s: a 1000+20 byte packet serializes in 8.16 ms.
  topo.add_link(a, b, sim::milliseconds(10), 1, 1e6);
  Network network(std::move(topo));
  auto& recorder = network.attach<Recorder>(b);
  network.send_to_neighbor(a, b,
                           data_packet(ip::Address(1, 1, 1, 1),
                                       ip::Address(2, 2, 2, 2), 1000, 1));
  network.run();
  ASSERT_EQ(recorder.arrivals.size(), 1u);
  const double expected_s = 0.010 + (1020.0 * 8) / 1e6;
  EXPECT_NEAR(sim::to_seconds(recorder.arrivals[0].at), expected_s, 1e-6);
}

TEST(Network, LinksAreFifoPerDirection) {
  // A big packet followed by a tiny one on the same link: the tiny one
  // must NOT overtake (it was this bug that once reordered a PIM join
  // ahead of the data packet it raced).
  Topology topo;
  const NodeId a = topo.add_router();
  const NodeId b = topo.add_router();
  topo.add_link(a, b, sim::milliseconds(1), 1, 1e6);  // slow link
  Network network(std::move(topo));
  auto& recorder = network.attach<Recorder>(b);
  network.send_to_neighbor(a, b,
                           data_packet(ip::Address(1, 1, 1, 1),
                                       ip::Address(2, 2, 2, 2), 50'000, 1));
  network.send_to_neighbor(a, b,
                           data_packet(ip::Address(1, 1, 1, 1),
                                       ip::Address(2, 2, 2, 2), 10, 2));
  network.run();
  ASSERT_EQ(recorder.arrivals.size(), 2u);
  EXPECT_EQ(recorder.arrivals[0].sequence, 1u);
  EXPECT_EQ(recorder.arrivals[1].sequence, 2u);
  EXPECT_GT(recorder.arrivals[1].at, recorder.arrivals[0].at);
}

TEST(Network, OppositeDirectionsDoNotQueueOnEachOther) {
  Topology topo;
  const NodeId a = topo.add_router();
  const NodeId b = topo.add_router();
  topo.add_link(a, b, sim::milliseconds(1), 1, 1e6);
  Network network(std::move(topo));
  auto& ra = network.attach<Recorder>(a);
  auto& rb = network.attach<Recorder>(b);
  // Saturate a->b; a single b->a packet must be unaffected (full duplex).
  for (int i = 0; i < 10; ++i) {
    network.send_to_neighbor(a, b,
                             data_packet(ip::Address(1, 1, 1, 1),
                                         ip::Address(2, 2, 2, 2), 50'000,
                                         static_cast<std::uint64_t>(i)));
  }
  network.send_to_neighbor(b, a,
                           data_packet(ip::Address(2, 2, 2, 2),
                                       ip::Address(1, 1, 1, 1), 10, 99));
  network.run();
  ASSERT_EQ(ra.arrivals.size(), 1u);
  // ~1 ms + tiny serialization, far less than the a->b queue drain.
  EXPECT_LT(sim::to_seconds(ra.arrivals[0].at), 0.002);
  EXPECT_EQ(rb.arrivals.size(), 10u);
}

TEST(Network, LinkStatsCountPacketsAndBytes) {
  Topology topo;
  const NodeId a = topo.add_router();
  const NodeId b = topo.add_router();
  const LinkId l = topo.add_link(a, b);
  Network network(std::move(topo));
  network.attach<Recorder>(b);
  const Packet p = data_packet(ip::Address(1, 1, 1, 1),
                               ip::Address(2, 2, 2, 2), 100, 1);
  const std::uint32_t size = p.wire_size();
  for (int i = 0; i < 5; ++i) {
    Packet copy = p;
    network.send_to_neighbor(a, b, std::move(copy));
  }
  network.run();
  EXPECT_EQ(network.link_stats(l).packets, 5u);
  EXPECT_EQ(network.link_stats(l).bytes, 5u * size);
  EXPECT_EQ(network.total_link_bytes(), 5u * size);
  EXPECT_EQ(network.stats().packets_sent, 5u);
}

TEST(Network, DownLinkDropsAndCounts) {
  Topology topo;
  const NodeId a = topo.add_router();
  const NodeId b = topo.add_router();
  const LinkId l = topo.add_link(a, b);
  Network network(std::move(topo));
  auto& recorder = network.attach<Recorder>(b);
  network.attach<Recorder>(a);
  network.set_link_up(l, false);
  network.send_to_neighbor(a, b,
                           data_packet(ip::Address(1, 1, 1, 1),
                                       ip::Address(2, 2, 2, 2), 100, 1));
  network.run();
  EXPECT_TRUE(recorder.arrivals.empty());
  EXPECT_EQ(network.stats().packets_dropped_link_down, 1u);
}

TEST(Network, UnicastTransitsWithoutTouchingIntermediateNodes) {
  // a -- m -- b: unicast from a to b's address; m must never see it.
  Topology topo;
  const NodeId a = topo.add_router();
  const NodeId m = topo.add_router();
  const NodeId b = topo.add_router();
  const LinkId l1 = topo.add_link(a, m, sim::milliseconds(2));
  const LinkId l2 = topo.add_link(m, b, sim::milliseconds(3));
  Network network(std::move(topo));
  auto& rm = network.attach<Recorder>(m);
  auto& rb = network.attach<Recorder>(b);
  Packet p = data_packet(network.topology().address(a),
                         network.topology().address(b), 100, 1);
  network.send_unicast(a, std::move(p));
  network.run();
  EXPECT_TRUE(rm.arrivals.empty());
  ASSERT_EQ(rb.arrivals.size(), 1u);
  EXPECT_GT(sim::to_seconds(rb.arrivals[0].at), 0.005);  // 2+3 ms + ser
  // Both links were charged.
  EXPECT_EQ(network.link_stats(l1).packets, 1u);
  EXPECT_EQ(network.link_stats(l2).packets, 1u);
}

TEST(Network, UnicastToUnknownAddressIsCounted) {
  Topology topo;
  const NodeId a = topo.add_router();
  topo.add_link(a, topo.add_router());
  Network network(std::move(topo));
  Packet p = data_packet(ip::Address(9, 9, 9, 9), ip::Address(8, 8, 8, 8),
                         10, 1);
  network.send_unicast(a, std::move(p));
  network.run();
  EXPECT_EQ(network.stats().packets_dropped_no_route, 1u);
}

TEST(Network, UnicastLoopbackDelivers) {
  Topology topo;
  const NodeId a = topo.add_router();
  topo.add_link(a, topo.add_router());
  Network network(std::move(topo));
  auto& ra = network.attach<Recorder>(a);
  Packet p = data_packet(network.topology().address(a),
                         network.topology().address(a), 10, 7);
  network.send_unicast(a, std::move(p));
  network.run();
  ASSERT_EQ(ra.arrivals.size(), 1u);
  EXPECT_EQ(ra.arrivals[0].sequence, 7u);
}

TEST(Network, ParallelLinkCarriesTrafficWhenItsTwinIsDown) {
  // a == b -- h: two a-b links, the first one down. Routing, RPF,
  // unicast and neighbor sends must all use the live twin.
  Topology topo;
  const NodeId a = topo.add_router();
  const NodeId b = topo.add_router();
  const NodeId h = topo.add_host();
  const LinkId first = topo.add_link(a, b);
  topo.add_link(a, b);
  topo.add_link(b, h);
  Network network(std::move(topo));
  auto& rb = network.attach<Recorder>(b);
  auto& rh = network.attach<Recorder>(h);
  network.set_link_up(first, false);
  EXPECT_EQ(network.routing().next_hop(a, h), b);
  EXPECT_EQ(network.routing().rpf_interface(a, h), 1u);
  EXPECT_EQ(network.routing().cost(a, h), 2u);
  const ip::Address from = network.topology().address(a);
  network.send_unicast(
      a, data_packet(from, network.topology().address(h), 100, 1));
  network.send_to_neighbor(
      a, b, data_packet(from, network.topology().address(b), 100, 2));
  network.run();
  ASSERT_EQ(rh.arrivals.size(), 1u);
  ASSERT_EQ(rb.arrivals.size(), 1u);
  EXPECT_EQ(rb.arrivals[0].iface, 1u);
  EXPECT_EQ(network.stats().packets_dropped_link_down, 0u);
}

TEST(Network, SecondAttachOnANodeThrows) {
  Topology topo;
  const NodeId a = topo.add_router();
  topo.add_link(a, topo.add_router());
  Network network(std::move(topo));
  auto& first = network.attach<Recorder>(a);
  EXPECT_THROW(network.attach<Recorder>(a), std::logic_error);
  EXPECT_EQ(network.node(a), &first);
}

/// Records full packet copies so payload-sharing can be inspected.
class PacketRecorder : public Node {
 public:
  PacketRecorder(Network& network, NodeId id) : Node(network, id) {}
  void handle_packet(const Packet& packet, std::uint32_t) override {
    packets.push_back(packet);
  }
  std::vector<Packet> packets;
};

TEST(Packet, CopiesShareOnePayloadBuffer) {
  Packet p = data_packet(ip::Address(1, 1, 1, 1), ip::Address(2, 2, 2, 2), 0, 1);
  p.payload = std::vector<std::uint8_t>{1, 2, 3, 4};
  Packet q = p;
  Packet r = q;
  EXPECT_TRUE(q.payload.shares_buffer_with(p.payload));
  EXPECT_TRUE(r.payload.shares_buffer_with(p.payload));
  const std::vector<std::uint8_t>& bytes = q.payload;
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{1, 2, 3, 4}));
}

TEST(Packet, MutablePayloadWriteDoesNotAliasSiblings) {
  Packet p = data_packet(ip::Address(1, 1, 1, 1), ip::Address(2, 2, 2, 2), 0, 1);
  p.payload = std::vector<std::uint8_t>{1, 2, 3, 4};
  Packet q = p;  // replication: shares the buffer
  q.mutable_payload()[0] = 0xFF;
  EXPECT_FALSE(q.payload.shares_buffer_with(p.payload));
  EXPECT_EQ(p.payload.bytes()[0], 1u);  // sibling untouched
  EXPECT_EQ(q.payload.bytes()[0], 0xFFu);
}

TEST(Packet, UniquelyOwnedPayloadMutatesInPlace) {
  Packet p = data_packet(ip::Address(1, 1, 1, 1), ip::Address(2, 2, 2, 2), 0, 1);
  p.payload = std::vector<std::uint8_t>{1, 2, 3, 4};
  const std::uint8_t* before = p.payload.bytes().data();
  p.mutable_payload()[0] = 9;  // no other owner: no clone
  EXPECT_EQ(p.payload.bytes().data(), before);
  EXPECT_EQ(p.payload.bytes()[0], 9u);
}

TEST(Packet, EmptyPayloadsDoNotClaimSharing) {
  Packet p;
  Packet q;
  EXPECT_FALSE(p.payload.shares_buffer_with(q.payload));
  EXPECT_TRUE(p.payload.empty());
}

TEST(Network, FanOutDeliveriesShareOnePayloadBuffer) {
  // Replicating one packet to three neighbors (the router fan-out
  // pattern) must deliver three packets aliasing a single byte buffer —
  // replication cost is O(copies), not O(copies * payload bytes).
  Topology topo;
  const NodeId a = topo.add_router();
  const NodeId b = topo.add_router();
  const NodeId c = topo.add_router();
  const NodeId d = topo.add_router();
  for (NodeId n : {b, c, d}) topo.add_link(a, n, sim::milliseconds(1), 1, 1e9);
  Network network(std::move(topo));
  auto& rb = network.attach<PacketRecorder>(b);
  auto& rc = network.attach<PacketRecorder>(c);
  auto& rd = network.attach<PacketRecorder>(d);
  Packet p = data_packet(ip::Address(1, 1, 1, 1), ip::Address(2, 2, 2, 2), 0, 1);
  p.payload = std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE, 0xEF};
  for (NodeId n : {b, c, d}) network.send_to_neighbor(a, n, p);
  network.run();
  ASSERT_EQ(rb.packets.size(), 1u);
  ASSERT_EQ(rc.packets.size(), 1u);
  ASSERT_EQ(rd.packets.size(), 1u);
  // All three deliveries — and the original — alias the same bytes.
  EXPECT_TRUE(rb.packets[0].payload.shares_buffer_with(p.payload));
  EXPECT_TRUE(rc.packets[0].payload.shares_buffer_with(p.payload));
  EXPECT_TRUE(rd.packets[0].payload.shares_buffer_with(p.payload));
  // And a receiver that writes detaches only itself.
  rb.packets[0].mutable_payload()[0] = 0;
  EXPECT_FALSE(rb.packets[0].payload.shares_buffer_with(p.payload));
  EXPECT_TRUE(rc.packets[0].payload.shares_buffer_with(p.payload));
  EXPECT_EQ(p.payload.bytes()[0], 0xDEu);
}

TEST(Network, WireSizeIncludesEncapsulation) {
  Packet inner = data_packet(ip::Address(1, 1, 1, 1),
                             ip::Address(232, 0, 0, 1), 100, 1);
  const std::uint32_t inner_size = inner.wire_size();
  EXPECT_EQ(inner_size, 20u + 100u);
  Packet outer;
  outer.protocol = ip::Protocol::kIpInIp;
  outer.inner = std::make_shared<Packet>(inner);
  EXPECT_EQ(outer.wire_size(), 20u + inner_size);
}

// ---------------------------------------------------------------------
// Link impairment model
// ---------------------------------------------------------------------

namespace {

/// Two routers, one 1 ms / 1 Gb/s link, `count` UDP data packets a->b.
struct ImpairRig {
  explicit ImpairRig() {
    Topology topo;
    a = topo.add_router();
    b = topo.add_router();
    link = topo.add_link(a, b, sim::milliseconds(1), 1, 1e9);
    network = std::make_unique<Network>(std::move(topo));
    recorder = &network->attach<Recorder>(b);
  }
  void send(std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) {
      network->send_to_neighbor(a, b,
                                data_packet(ip::Address(1, 1, 1, 1),
                                            ip::Address(2, 2, 2, 2), 500, i));
    }
    network->run();
  }
  NodeId a, b;
  LinkId link;
  std::unique_ptr<Network> network;
  Recorder* recorder = nullptr;
};

ImpairmentConfig bernoulli(double p) {
  ImpairmentConfig config;
  config.loss.kind = LossModel::Kind::kBernoulli;
  config.loss.p = p;
  return config;
}

}  // namespace

TEST(Network, DisarmedImpairmentsLeaveTrafficUntouched) {
  // Seeding alone must not arm anything: zero random draws, identical
  // counters to a network that never heard of impairments (pinned
  // traces depend on this).
  ImpairRig plain;
  plain.send(50);
  ImpairRig seeded;
  seeded.network->seed_impairments(123);
  seeded.send(50);
  EXPECT_EQ(seeded.recorder->arrivals.size(), plain.recorder->arrivals.size());
  EXPECT_EQ(seeded.network->stats().bytes_sent, plain.network->stats().bytes_sent);
  EXPECT_EQ(seeded.network->stats().packets_dropped_loss, 0u);
  EXPECT_EQ(seeded.network->stats().packets_reordered, 0u);
}

TEST(Network, BernoulliLossIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    ImpairRig rig;
    rig.network->set_link_impairments(rig.link, bernoulli(0.3));
    rig.network->seed_impairments(seed);
    rig.send(200);
    return std::pair(rig.network->stats().packets_dropped_loss,
                     rig.recorder->arrivals.size());
  };
  const auto first = run(7);
  EXPECT_GT(first.first, 0u);
  EXPECT_EQ(first.first + first.second, 200u);  // every packet lands or drops
  EXPECT_EQ(run(7), first);  // same seed => identical loss pattern
}

TEST(Network, LostPacketsStillConsumeWireTime) {
  // Loss happens after the FIFO slot is reserved: a surviving packet
  // arrives at exactly the time it would have in a lossless run, so
  // arming loss cannot perturb the timing of what does get through.
  ImpairRig clean;
  clean.send(40);
  ImpairRig lossy;
  lossy.network->set_link_impairments(lossy.link, bernoulli(0.5));
  lossy.network->seed_impairments(99);
  lossy.send(40);
  ASSERT_GT(lossy.recorder->arrivals.size(), 0u);
  ASSERT_LT(lossy.recorder->arrivals.size(), 40u);
  for (const auto& arrival : lossy.recorder->arrivals) {
    EXPECT_EQ(arrival.at, clean.recorder->arrivals.at(arrival.sequence).at);
  }
}

TEST(Network, GilbertBurstLossDropsAndStaysDeterministic) {
  auto run = [] {
    ImpairRig rig;
    ImpairmentConfig config;
    config.loss.kind = LossModel::Kind::kGilbert;
    config.loss.gilbert_enter_bad = 0.2;
    config.loss.gilbert_exit_bad = 0.3;
    config.loss.gilbert_loss_bad = 1.0;
    rig.network->set_link_impairments(rig.link, config);
    rig.network->seed_impairments(5);
    rig.send(300);
    return rig.network->stats().packets_dropped_loss;
  };
  const std::uint64_t losses = run();
  EXPECT_GT(losses, 0u);
  EXPECT_EQ(run(), losses);
}

TEST(Network, ReorderDelaysByTheConfiguredWindow) {
  ImpairRig rig;
  ImpairmentConfig config;
  config.reorder_p = 1.0;  // every data packet takes the detour
  config.reorder_window = sim::milliseconds(5);
  rig.network->set_link_impairments(rig.link, config);
  rig.network->seed_impairments(11);
  ImpairRig clean;
  clean.send(10);
  rig.send(10);
  ASSERT_EQ(rig.recorder->arrivals.size(), 10u);
  EXPECT_EQ(rig.network->stats().packets_reordered, 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(rig.recorder->arrivals[i].at,
              clean.recorder->arrivals[i].at + sim::milliseconds(5));
  }
}

TEST(Network, DataOnlyImpairmentsSpareControlTraffic) {
  // data_only (the default) models §3.2: ECMP control runs over
  // TCP-mode connections, so the loss dice only touch channel data.
  ImpairRig rig;
  rig.network->set_link_impairments(rig.link, bernoulli(1.0));
  rig.network->seed_impairments(3);
  Packet control;
  control.src = ip::Address(1, 1, 1, 1);
  control.dst = ip::Address(2, 2, 2, 2);
  control.protocol = ip::Protocol::kEcmp;
  control.sequence = 77;
  rig.network->send_to_neighbor(rig.a, rig.b, control);
  rig.send(5);  // all five UDP data packets die
  ASSERT_EQ(rig.recorder->arrivals.size(), 1u);
  EXPECT_EQ(rig.recorder->arrivals[0].sequence, 77u);
  EXPECT_EQ(rig.network->stats().packets_dropped_loss, 5u);
}

}  // namespace
}  // namespace express::net
