// Batched delivery ≡ one delivery event per copy.
//
// The network delivers every copy due at one instant from one event as
// long as nothing was scheduled in between (see the net/network.hpp
// header). The contract is strict equivalence with one scheduler event
// per copy, which set_fanout_batching(false) restores: identical
// delivery order, identical arrival times, identical wire accounting and
// trace records — only the event count, and the kTimerFire records that
// count it, may differ. These tests run the same scenarios both ways and
// diff the full delivery traces.
#include <gtest/gtest.h>

#include <cstdint>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "net/lan.hpp"
#include "net/network.hpp"
#include "net/replicate.hpp"
#include "obs_scenarios.hpp"
#include "sim/random.hpp"
#include "testbed/testbed.hpp"
#include "workload/churn.hpp"
#include "workload/topo_gen.hpp"

namespace express::net {
namespace {

/// Records every delivery with node, arrival time, and packet id.
class Recorder : public Node {
 public:
  struct Arrival {
    NodeId node = 0;
    std::uint64_t sequence = 0;
    sim::Time at{};
    std::uint32_t iface = 0;
    bool operator==(const Arrival&) const = default;
  };

  Recorder(Network& network, NodeId id, std::vector<Arrival>& sink)
      : Node(network, id), sink_(sink) {}
  void handle_packet(const Packet& packet, std::uint32_t in_iface) override {
    sink_.push_back({id(), packet.sequence, network().now(), in_iface});
  }

 private:
  std::vector<Arrival>& sink_;
};

Packet data_packet(std::uint32_t bytes, std::uint64_t seq) {
  Packet p;
  p.src = ip::Address(1, 1, 1, 1);
  p.dst = ip::Address(232, 0, 0, 1);
  p.protocol = ip::Protocol::kUdp;
  p.data_bytes = bytes;
  p.sequence = seq;
  p.ttl = 32;
  return p;
}

/// The lines of a trace or snapshot export, minus the ones batching may
/// change: kTimerFire records (one per event) and the running `index`
/// that counts them, and the scheduler's event counters.
std::vector<std::string> comparable_lines(const std::string& text) {
  static const std::regex kIndex("\"index\":[0-9]+,");
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"type\":\"timer_fire\"") != std::string::npos ||
        line.find("\"sim.sched.scheduled\"") != std::string::npos ||
        line.find("\"sim.sched.executed\"") != std::string::npos ||
        line.find("\"sim.sched.peak_pending\"") != std::string::npos) {
      continue;
    }
    lines.push_back(std::regex_replace(line, kIndex, ""));
  }
  return lines;
}

void expect_same_lines(const std::vector<std::string>& batched,
                       const std::vector<std::string>& per_event) {
  ASSERT_EQ(batched.size(), per_event.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ASSERT_EQ(batched[i], per_event[i]) << "first divergence at line " << i;
  }
}

void expect_same_arrivals(const std::vector<Recorder::Arrival>& batched,
                          const std::vector<Recorder::Arrival>& per_event) {
  ASSERT_EQ(batched.size(), per_event.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ASSERT_TRUE(batched[i] == per_event[i])
        << "divergence at delivery " << i << ": batched node "
        << batched[i].node << " seq " << batched[i].sequence << " at "
        << batched[i].at.count() << " ns vs per-event node "
        << per_event[i].node << " seq " << per_event[i].sequence << " at "
        << per_event[i].at.count() << " ns";
  }
}

/// A star with heterogeneous links: some spokes share identical
/// (delay, bandwidth) so their copies arrive at the same instant and
/// coalesce; others differ so groups must split. Replicates a stream
/// of packets from the hub and returns the full delivery trace.
std::vector<Recorder::Arrival> run_star(bool batching) {
  Topology topo;
  const NodeId hub = topo.add_router();
  InterfaceSet oifs;
  constexpr std::uint32_t kSpokes = 24;
  for (std::uint32_t i = 0; i < kSpokes; ++i) {
    const NodeId spoke = topo.add_router();
    // Three blocks of identical links -> three coalescible groups per
    // wave, with splits at the block boundaries.
    const auto delay = sim::milliseconds(1 + (i / 8));
    topo.add_link(hub, spoke, delay, 1, 1e9);
    oifs.set(i);
  }
  Network network(std::move(topo));
  network.set_fanout_batching(batching);
  std::vector<Recorder::Arrival> trace;
  for (NodeId n = 1; n <= kSpokes; ++n) {
    network.attach<Recorder>(n, trace);
  }
  sim::Rng rng(5);
  for (std::uint64_t seq = 0; seq < 40; ++seq) {
    network.scheduler().schedule_at(
        sim::milliseconds(rng.below(20)), [&network, hub, &oifs, seq] {
          replicate(network, hub, data_packet(200, seq), oifs, {});
        });
  }
  network.run();
  return trace;
}

TEST(FanoutBatch, StarDeliveryTraceMatchesPerEventMode) {
  expect_same_arrivals(run_star(true), run_star(false));
}

TEST(FanoutBatch, DownLinksAreCountedNotDelivered) {
  Topology topo;
  const NodeId hub = topo.add_router();
  const NodeId a = topo.add_router();
  const NodeId b = topo.add_router();
  const NodeId c = topo.add_router();
  topo.add_link(hub, a, sim::milliseconds(1), 1, 1e9);
  const LinkId down = topo.add_link(hub, b, sim::milliseconds(1), 1, 1e9);
  topo.add_link(hub, c, sim::milliseconds(1), 1, 1e9);
  Network network(std::move(topo));
  std::vector<Recorder::Arrival> trace;
  network.attach<Recorder>(a, trace);
  network.attach<Recorder>(b, trace);
  network.attach<Recorder>(c, trace);
  network.set_link_up(down, false);
  InterfaceSet oifs;
  oifs.set(0);
  oifs.set(1);
  oifs.set(2);
  const std::size_t copies = replicate(network, hub, data_packet(100, 1), oifs, {});
  network.run();
  EXPECT_EQ(copies, 2u);
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(network.stats().packets_dropped_link_down, 1u);
  // The survivors around the dead middle interface still coalesce.
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].node, a);
  EXPECT_EQ(trace[1].node, c);
  EXPECT_EQ(trace[0].at, trace[1].at);
}

/// End-to-end equivalence on the full EXPRESS stack: the seeded-churn
/// scenario from the determinism pin, batching on vs off. Everything
/// the wire can observe must match; only the event count shrinks.
struct ChurnOutcome {
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t total_link_bytes = 0;
  std::uint64_t executed_events = 0;
  std::uint64_t data_delivered = 0;
};

ChurnOutcome run_seeded_churn(bool batching) {
  Testbed bed(workload::make_kary_tree(2, 3, {}, 2), RouterConfig{});
  bed.net().set_fanout_batching(batching);
  const ip::ChannelId channel = bed.source().allocate_channel();

  sim::Rng rng(7);
  const sim::Duration horizon = sim::seconds(10);
  const auto events = workload::poisson_churn(
      static_cast<std::uint32_t>(bed.receiver_count()), horizon,
      sim::seconds(5), sim::seconds(3), rng);
  auto& sched = bed.net().scheduler();
  for (const auto& ev : events) {
    sched.schedule_at(ev.at, [&bed, &channel, ev] {
      if (ev.join) {
        bed.receiver(ev.host_index).new_subscription(channel);
      } else {
        bed.receiver(ev.host_index).delete_subscription(channel);
      }
    });
  }
  const std::vector<std::uint8_t> header(32, 0x5A);
  std::uint64_t seq = 0;
  for (sim::Time at = sim::milliseconds(200); at < horizon;
       at += sim::milliseconds(200)) {
    sched.schedule_at(at, [&bed, &channel, &header, s = seq++] {
      bed.source().send(channel, 500, s, header);
    });
  }
  bed.net().run();

  ChurnOutcome out;
  out.packets_sent = bed.net().stats().packets_sent;
  out.bytes_sent = bed.net().stats().bytes_sent;
  out.total_link_bytes = bed.net().total_link_bytes();
  out.executed_events = sched.executed_events();
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    out.data_delivered += bed.receiver(i).stats().data_received;
  }
  return out;
}

TEST(FanoutBatch, SeededChurnMatchesPerEventMode) {
  const ChurnOutcome batched = run_seeded_churn(true);
  const ChurnOutcome per_event = run_seeded_churn(false);
  EXPECT_EQ(batched.packets_sent, per_event.packets_sent);
  EXPECT_EQ(batched.bytes_sent, per_event.bytes_sent);
  EXPECT_EQ(batched.total_link_bytes, per_event.total_link_bytes);
  EXPECT_EQ(batched.data_delivered, per_event.data_delivered);
  // Coalescing is the whole point: strictly fewer events when on.
  EXPECT_LT(batched.executed_events, per_event.executed_events);
}

/// A node that records each arrival and floods it on, out every other
/// interface: on a tree, every node of a level receives a packet at the
/// same instant from a different sender.
class Flooder : public Recorder {
 public:
  using Recorder::Recorder;
  void handle_packet(const Packet& packet, std::uint32_t in_iface) override {
    Recorder::handle_packet(packet, in_iface);
    ReplicateOptions opts;
    opts.exclude_iface = in_iface;
    replicate_all(network(), id(), packet, opts);
  }
};

struct FloodRun {
  std::vector<Recorder::Arrival> arrivals;
  std::vector<std::string> trace;
  std::uint64_t events = 0;
};

/// Floods `packets` packets, `gap` apart, from the source host of a
/// make_kary_tree(arity, depth) tree with every node a Flooder.
FloodRun run_kary_flood(bool batching, std::uint32_t arity,
                        std::uint32_t depth, std::uint64_t packets,
                        sim::Duration gap, bool impaired) {
  auto generated = workload::make_kary_tree(arity, depth, {}, 2);
  Network network(std::move(generated.topology));
  network.set_fanout_batching(batching);
  network.obs().trace.enable(std::size_t{1} << 20);
  if (impaired) {
    ImpairmentConfig cfg;
    cfg.loss.kind = LossModel::Kind::kBernoulli;
    cfg.loss.p = 0.05;
    cfg.reorder_p = 0.2;
    cfg.reorder_window = sim::microseconds(700);
    network.set_default_impairments(cfg);
    network.seed_impairments(11);
  }
  FloodRun run;
  for (NodeId n = 0; n < network.topology().node_count(); ++n) {
    network.attach<Flooder>(n, run.arrivals);
  }
  const NodeId source = generated.source_host;
  for (std::uint64_t seq = 0; seq < packets; ++seq) {
    network.scheduler().schedule_at(
        sim::Time{} + gap * static_cast<std::int64_t>(seq),
        [&network, source, seq] {
          network.send_on_interface(source, 0, data_packet(300, seq));
        });
  }
  network.run();
  run.trace = comparable_lines(network.obs().trace.to_jsonl());
  run.events = network.scheduler().executed_events();
  return run;
}

TEST(FanoutBatch, KaryTreeSendersOfOneLevelShareOneEvent) {
  // Each level of a packet lands at one instant from every sender. The
  // packets overlap in flight, 1 ms apart over 5 ms core links, so packet
  // k one level down and packet k + 5 land at the same instant too.
  const FloodRun batched =
      run_kary_flood(true, 3, 4, 12, sim::milliseconds(1), false);
  const FloodRun per_event =
      run_kary_flood(false, 3, 4, 12, sim::milliseconds(1), false);
  expect_same_arrivals(batched.arrivals, per_event.arrivals);
  expect_same_lines(batched.trace, per_event.trace);
  EXPECT_LT(batched.events, per_event.events);
}

TEST(FanoutBatch, ReorderAndLossImpairmentsMatchPerEventMode) {
  const FloodRun batched =
      run_kary_flood(true, 3, 3, 30, sim::microseconds(300), true);
  const FloodRun per_event =
      run_kary_flood(false, 3, 3, 30, sim::microseconds(300), true);
  expect_same_arrivals(batched.arrivals, per_event.arrivals);
  expect_same_lines(batched.trace, per_event.trace);
  EXPECT_LT(batched.events, per_event.events);
}

TEST(FanoutBatch, KaryBroadcastCostsOneEventPerLevelPlusTheHostHop) {
  // make_kary_tree(4, 3): the source host's hop to the root, three
  // router-to-router levels, and the leaf-to-host hop: five arrival
  // instants per packet, whatever the fan-out (85 routers, 128 hosts).
  constexpr std::uint64_t kPackets = 10;
  Testbed bed(workload::make_kary_tree(4, 3, {}, 2));
  const ip::ChannelId channel = bed.source().allocate_channel();
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    bed.receiver(i).new_subscription(channel);
  }
  bed.run_for(sim::seconds(2));
  auto& sched = bed.net().scheduler();
  const std::uint64_t before = sched.executed_events();
  for (std::uint64_t seq = 0; seq < kPackets; ++seq) {
    sched.schedule_at(bed.net().now() + sim::milliseconds(50) *
                                            static_cast<std::int64_t>(seq + 1),
                      [&bed, &channel, seq] {
                        bed.source().send(channel, 1000, seq);
                      });
  }
  bed.run_for(sim::seconds(2));
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    delivered += bed.receiver(i).stats().data_received;
  }
  EXPECT_EQ(delivered, kPackets * 128);
  // Each packet: its send event plus five delivery events.
  EXPECT_EQ(sched.executed_events() - before, kPackets * (1 + 5));
}

/// Two senders whose copies land at the same instant, with a timer due
/// at that instant scheduled between their sends when `timer_between`.
struct SplitRun {
  std::vector<Recorder::Arrival> arrivals;
  std::uint64_t events = 0;
};

SplitRun run_two_senders(bool batching, bool timer_between) {
  Topology topo;
  const NodeId s1 = topo.add_router();
  const NodeId s2 = topo.add_router();
  const NodeId r1 = topo.add_router();
  const NodeId r2 = topo.add_router();
  // Zero bandwidth: no serialization, so copies land exactly 2 ms on.
  topo.add_link(s1, r1, sim::milliseconds(2), 1, 0);
  topo.add_link(s2, r2, sim::milliseconds(2), 1, 0);
  Network network(std::move(topo));
  network.set_fanout_batching(batching);
  SplitRun run;
  network.attach<Recorder>(r1, run.arrivals);
  network.attach<Recorder>(r2, run.arrivals);
  network.scheduler().schedule_at(sim::Time{}, [&] {
    network.send_on_interface(s1, 0, data_packet(100, 1));
    if (timer_between) {
      network.scheduler().schedule_at(network.now() + sim::milliseconds(2),
                                      [&] {
        run.arrivals.push_back({kInvalidNode, 0, network.now(), 0});
      });
    }
    network.send_on_interface(s2, 0, data_packet(100, 2));
  });
  network.run();
  run.events = network.scheduler().executed_events();
  return run;
}

TEST(FanoutBatch, TimerScheduledBetweenTwoSendersSplitsTheBatch) {
  const SplitRun joined = run_two_senders(true, false);
  ASSERT_EQ(joined.arrivals.size(), 2u);
  EXPECT_EQ(joined.arrivals[0].at, joined.arrivals[1].at);
  EXPECT_EQ(joined.events, 2u);  // the send event and one batch

  const SplitRun batched = run_two_senders(true, true);
  const SplitRun per_event = run_two_senders(false, true);
  expect_same_arrivals(batched.arrivals, per_event.arrivals);
  ASSERT_EQ(batched.arrivals.size(), 3u);
  EXPECT_EQ(batched.arrivals[1].node, kInvalidNode);  // the timer, between
  EXPECT_EQ(batched.arrivals[0].at, batched.arrivals[1].at);
  EXPECT_EQ(batched.arrivals[1].at, batched.arrivals[2].at);
  EXPECT_EQ(batched.events, 4u);  // send, copy, timer, copy
}

/// Records each arrival; on its first packet sends itself a unicast,
/// which the network loops back at the same instant.
class LoopbackSender : public Recorder {
 public:
  using Recorder::Recorder;
  void handle_packet(const Packet& packet, std::uint32_t in_iface) override {
    Recorder::handle_packet(packet, in_iface);
    if (packet.sequence != 0) return;
    Packet self = data_packet(64, 1000 + id());
    self.dst = address();
    network().send_unicast(id(), self);
  }
};

std::vector<Recorder::Arrival> run_loopback_batch(bool batching,
                                                  std::uint64_t& events) {
  Topology topo;
  const NodeId hub = topo.add_router();
  InterfaceSet oifs;
  for (std::uint32_t i = 0; i < 5; ++i) {
    topo.add_link(hub, topo.add_router(), sim::milliseconds(1), 1, 1e9);
    oifs.set(i);
  }
  Network network(std::move(topo));
  network.set_fanout_batching(batching);
  std::vector<Recorder::Arrival> trace;
  for (NodeId n = 1; n <= 5; ++n) network.attach<LoopbackSender>(n, trace);
  network.scheduler().schedule_at(sim::Time{}, [&] {
    replicate(network, hub, data_packet(200, 0), oifs, {});
  });
  network.run();
  events = network.scheduler().executed_events();
  return trace;
}

TEST(FanoutBatch, LoopbackFromADispatchingBatchDoesNotJoinIt) {
  // Every receiver of the batch — its first and its last included —
  // loops a packet back to itself at the batch's own instant, with
  // nothing scheduled since the batch opened.
  std::uint64_t batched_events = 0;
  std::uint64_t per_event_events = 0;
  const auto batched = run_loopback_batch(true, batched_events);
  const auto per_event = run_loopback_batch(false, per_event_events);
  expect_same_arrivals(batched, per_event);
  ASSERT_EQ(batched.size(), 10u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(batched[i].sequence, 0u);
    EXPECT_EQ(batched[5 + i].sequence, 1000 + batched[i].node);
    EXPECT_EQ(batched[5 + i].at, batched[i].at);
  }
  // The send, the batch of five, and one batch of the five loopbacks
  // (each joins the one opened by the first, not the dispatching one).
  EXPECT_EQ(batched_events, 3u);
  EXPECT_EQ(per_event_events, 11u);
}

std::vector<Recorder::Arrival> run_lan(bool batching, std::uint64_t& events) {
  Topology topo;
  const NodeId router = topo.add_router();
  const LanSegment lan = add_lan_segment(topo, router, 6);
  const LanSegment other = add_lan_segment(topo, router, 3,
                                           sim::microseconds(80), 10e6);
  Network network(std::move(topo));
  network.set_fanout_batching(batching);
  std::vector<Recorder::Arrival> trace;
  network.attach<Flooder>(router, trace);
  network.attach<LanHub>(lan.hub);
  network.attach<LanHub>(other.hub);
  for (NodeId h : lan.hosts) network.attach<Recorder>(h, trace);
  for (NodeId h : other.hosts) network.attach<Recorder>(h, trace);
  // Hosts on both wires send; the router floods each frame to the other
  // segment, and each hub repeats it to every other host of its wire.
  for (std::uint64_t seq = 0; seq < 8; ++seq) {
    const NodeId from =
        seq % 2 == 0 ? lan.hosts[seq % 6] : other.hosts[seq % 3];
    network.scheduler().schedule_at(
        sim::microseconds(40) * static_cast<std::int64_t>(seq),
        [&network, from, seq] {
          network.send_on_interface(from, 0, data_packet(500, seq));
        });
  }
  network.run();
  events = network.scheduler().executed_events();
  return trace;
}

TEST(FanoutBatch, LanHubMatchesPerEventMode) {
  std::uint64_t batched_events = 0;
  std::uint64_t per_event_events = 0;
  const auto batched = run_lan(true, batched_events);
  const auto per_event = run_lan(false, per_event_events);
  expect_same_arrivals(batched, per_event);
  EXPECT_EQ(batched.size(), 8u * (1 + 8));  // router + every other host
  EXPECT_LT(batched_events, per_event_events);
}

/// The seeded churn and chaos captures that tests/golden pins, with and
/// without batching: the trace minus kTimerFire records, and the metrics
/// snapshot minus the scheduler's event counters, must be identical.
/// This is what allows re-pinning the golden digests on an event-count
/// change alone.
TEST(FanoutBatch, ObsCaptureMatchesPerEventModeApartFromTimerFires) {
  for (const bool chaos : {false, true}) {
    std::vector<std::string> trace[2];
    std::vector<std::string> snapshot[2];
    std::uint64_t events[2] = {};
    for (const bool batching : {true, false}) {
      Testbed bed(workload::make_kary_tree(2, 3, {}, 2));
      Network& net = bed.net();
      net.set_fanout_batching(batching);
      net.obs().trace.enable(std::size_t{1} << 16);
      if (chaos) {
        const workload::ChaosReport report = obs_scenarios::run_chaos(bed, 7);
        EXPECT_EQ(report.unconverged, 0u);
        EXPECT_EQ(report.violations, 0u);
      } else {
        obs_scenarios::run_churn(bed, 7);
      }
      ASSERT_LT(net.obs().trace.next_index(), std::size_t{1} << 16)
          << "the trace ring wrapped";
      trace[batching ? 0 : 1] = comparable_lines(net.obs().trace.to_jsonl());
      snapshot[batching ? 0 : 1] =
          comparable_lines(net.obs().registry.snapshot_json(net.now()));
      events[batching ? 0 : 1] = net.scheduler().executed_events();
    }
    SCOPED_TRACE(chaos ? "chaos" : "churn");
    expect_same_lines(trace[0], trace[1]);
    expect_same_lines(snapshot[0], snapshot[1]);
    EXPECT_LT(events[0], events[1]);
  }
}

}  // namespace
}  // namespace express::net
