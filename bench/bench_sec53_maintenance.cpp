// S53 (§5.3): the cost of state maintenance — the paper's measured
// experiment re-run on today's hardware.
//
// The paper ran user-level TCP ECMP on a 400 MHz Pentium-II with 8
// neighbors churning subscriptions: ~4,500 events/s at 4% CPU (~3,500
// cycles/event), 33,000 events/s sustained at 43% (~5,200 cycles/event),
// ~2,700 cycles per subscribe and ~3,300 per unsubscribe. We drive the
// same event pipeline — wire decode, channel-table lookup, state
// allocation, FIB manipulation, upstream Count emission — through
// ExpressRouter::handle_packet and report the modern equivalents, plus
// the analytic million-channel scenario.
#include <chrono>

#include "common.hpp"
#include "costmodel/maintenance_cost.hpp"
#include "ecmp/codec.hpp"
#include "express/router.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"

namespace {

using namespace express;

/// Discards everything: stands in for neighbors whose processing cost
/// must not pollute the core router's measurement.
class SinkNode : public net::Node {
 public:
  SinkNode(net::Network& network, net::NodeId id) : net::Node(network, id) {}
  void handle_packet(const net::Packet&, std::uint32_t) override {}
};

#if defined(__x86_64__)
std::uint64_t rdtsc() { return __builtin_ia32_rdtsc(); }
#else
std::uint64_t rdtsc() { return 0; }
#endif

struct Measurement {
  double seconds = 0;
  std::uint64_t cycles = 0;
  std::uint64_t events = 0;
  [[nodiscard]] double events_per_second() const { return events / seconds; }
  [[nodiscard]] double ns_per_event() const { return seconds / events * 1e9; }
  [[nodiscard]] double cycles_per_event() const {
    return cycles == 0 ? 0 : static_cast<double>(cycles) / events;
  }
};

}  // namespace

int main() {
  using namespace express::bench;

  banner("S53 / §5.3", "the cost of state maintenance");

  // Core router with 8 neighbor routers (the paper's "eight active
  // Ethernet neighbors") plus an upstream side: sources live behind
  // neighbor 8, so joins propagate upstream like in a real core.
  net::Topology topo;
  const net::NodeId core = topo.add_router();
  std::vector<net::NodeId> neighbors;
  for (int i = 0; i < 8; ++i) {
    neighbors.push_back(topo.add_router());
    topo.add_link(core, neighbors.back());
  }
  const net::NodeId upstream = topo.add_router();
  topo.add_link(core, upstream);
  const net::NodeId src_host = topo.add_host();
  topo.add_link(upstream, src_host);

  net::Network network(std::move(topo));
  auto& router = network.attach<ExpressRouter>(core);
  for (net::NodeId n : neighbors) network.attach<SinkNode>(n);
  network.attach<SinkNode>(upstream);
  network.attach<SinkNode>(src_host);

  const ip::Address src = network.topology().address(src_host);
  const std::uint32_t kChannels = 100'000;

  // Pre-encode subscribe/unsubscribe packets for a cycling channel set;
  // the measured loop then exercises decode + lookup + state + FIB +
  // upstream send per event, like the paper's.
  auto make_packet = [&](std::uint32_t channel_index, std::int64_t count,
                         net::NodeId from) {
    ecmp::Count msg;
    msg.channel = ip::ChannelId{src, ip::Address::single_source(channel_index)};
    msg.count = count;
    net::Packet packet;
    packet.src = network.topology().address(from);
    packet.dst = network.topology().address(core);
    packet.protocol = ip::Protocol::kEcmp;
    packet.payload = ecmp::encode(ecmp::Message{msg});
    return packet;
  };

  // One pass = one real transition per channel (subscribe everything or
  // unsubscribe everything), each event from the neighbor ch % 8, so
  // every measured event does the full create-join or erase-prune work
  // — no cheap refreshes.
  auto pass = [&](bool subscribe_phase, Measurement& m) {
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t c0 = rdtsc();
    for (std::uint32_t ch = 0; ch < kChannels; ++ch) {
      const std::uint32_t iface = ch % 8;
      net::Packet packet =
          make_packet(ch, subscribe_phase ? 1 : 0, neighbors[iface]);
      router.handle_packet(packet, iface);
      ++m.events;
    }
    m.cycles += rdtsc() - c0;
    m.seconds += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    // Drain queued upstream Counts (to sinks) outside the timed window.
    network.run();
  };

  // Warm-up round, then ten measured rounds of full churn (1M subscribe
  // + 1M unsubscribe transitions).
  {
    Measurement warm;
    pass(true, warm);
    pass(false, warm);
  }
  Measurement sub, unsub;
  for (int round = 0; round < 10; ++round) {
    pass(true, sub);
    pass(false, unsub);
  }

  Table table({"phase", "events/s", "ns/event", "cycles/event",
               "paper (400MHz P-II)"});
  table.row({"subscribe", fmt(sub.events_per_second() / 1e6, 2) + "M",
             fmt(sub.ns_per_event(), 0), fmt(sub.cycles_per_event(), 0),
             "~2700 cycles"});
  table.row({"unsubscribe", fmt(unsub.events_per_second() / 1e6, 2) + "M",
             fmt(unsub.ns_per_event(), 0), fmt(unsub.cycles_per_event(), 0),
             "~3300 cycles"});
  table.print();

  using namespace express::costmodel;
  const double cycles_per_event =
      (sub.cycles_per_event() + unsub.cycles_per_event()) / 2;
  note("paper sustained 33,000 ev/s at 43% CPU (~5,200 cycles/event);");
  note("at our measured cost, the paper's 4,500 ev/s scenario would use " +
       fmt(cpu_utilization(4500, cycles_per_event, 3e9) * 100, 3) +
       "% of a 3 GHz core.");

  banner("S53 / §5.3", "million-channel analytic scenario");
  const auto load = maintenance_load();
  Table scenario({"quantity", "value", "paper"});
  scenario.row({"Count events received/s",
                fmt(load.events_received_per_second, 0), "3,333"});
  scenario.row({"Count events sent/s", fmt(load.events_sent_per_second, 0),
                "1,667"});
  scenario.row({"total events/s", fmt(load.total_events_per_second, 0),
                "~5,000"});
  scenario.row({"16-byte Counts per 1480 B segment",
                fmt(load.messages_per_segment, 0), "92"});
  scenario.row({"segments received/s", fmt(load.segments_received_per_second, 1),
                "36"});
  scenario.row({"control traffic in",
                fmt(load.control_bits_received_per_second / 1e3, 0) + " kb/s",
                "424 kb/s"});
  scenario.print();

  // Codec cross-check of the segment-packing claim.
  ecmp::Count probe;
  probe.channel = ip::ChannelId{src, ip::Address::single_source(1)};
  probe.count = 1;
  note("codec: encoded unsolicited Count = " +
       fmt_int(ecmp::encoded_size(ecmp::Message{probe})) + " B, " +
       fmt_int(ecmp::messages_per_segment(ecmp::Message{probe})) +
       " per segment");
  return 0;
}
