// CMP (§3.6 / §4.4): EXPRESS vs PIM-SM (shared and SPT), CBT, and
// DVMRP on the same topology and workload.
//
// Measured axes: per-router multicast state, delivery success, mean
// path stretch (delivery delay / direct unicast delay), total bytes the
// stream put on links, and control messages — the concrete versions of
// the paper's qualitative comparisons (RP/core detours, register
// triangles, broadcast-and-prune waste, EXPRESS's subscription-only
// trees).
#include <deque>
#include <memory>

#include "baseline/cbt.hpp"
#include "baseline/dvmrp.hpp"
#include "baseline/group_host.hpp"
#include "baseline/pim_sm.hpp"
#include "common.hpp"
#include "testbed/delivery_log.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace express;

constexpr int kPackets = 20;
constexpr std::uint32_t kPacketBytes = 1000;
// The source hangs off the leftmost leaf (receiver_hosts[0]'s router);
// the members are the four rightmost hosts; the RP/core sits on a left
// branch off the source's natural path, so rendezvous detours are
// visible instead of being short-circuited by oif inheritance at the
// root (which any tree topology otherwise does).
constexpr std::size_t kSourceHost = 0;
constexpr std::size_t kFirstMember = 12;
constexpr std::size_t kMembersEnd = 16;
constexpr std::size_t kRendezvousRouter = 4;  // depth-2, off the source path
const ip::Address kGroup(225, 9, 9, 9);

constexpr std::size_t member_count() { return kMembersEnd - kFirstMember; }

struct Result {
  std::string name;
  std::size_t state_entries = 0;
  std::size_t routers_with_state = 0;
  double delivery_ratio = 0;
  double first_packet_stretch = 0;  ///< includes RP/core detours
  double steady_stretch = 0;        ///< after native paths establish
  std::uint64_t data_link_bytes = 0;
};

workload::GeneratedTopology make_topology() {
  return workload::make_kary_tree(2, 4);  // 31 routers, 16 receivers
}

double stretch_of(sim::Duration delivery, sim::Duration direct) {
  return sim::to_seconds(delivery) / sim::to_seconds(direct);
}

Result run_express() {
  Testbed bed(make_topology());
  ExpressHost& src = bed.receiver(kSourceHost);
  const ip::ChannelId ch = src.allocate_channel();
  std::deque<DeliveryLog> logs;
  for (std::size_t i = kFirstMember; i < kMembersEnd; ++i) {
    bed.receiver(i).set_data_handler(logs.emplace_back().handler());
    bed.receiver(i).new_subscription(ch);
  }
  bed.run_for(sim::seconds(1));
  const std::uint64_t bytes_before = bed.net().total_link_bytes();
  std::vector<sim::Time> sent_at;
  for (int p = 0; p < kPackets; ++p) {
    sent_at.push_back(bed.net().now());
    src.send(ch, kPacketBytes, static_cast<std::uint64_t>(p));
    bed.run_for(sim::seconds(1));
  }

  Result r;
  r.name = "EXPRESS";
  for (std::size_t i = 0; i < bed.router_count(); ++i) {
    const std::size_t entries = bed.router(i).fib().size();
    r.state_entries += entries;
    if (entries > 0) ++r.routers_with_state;
  }
  r.data_link_bytes = bed.net().total_link_bytes() - bytes_before;
  std::uint64_t delivered = 0, first = 0, steady = 0;
  double first_sum = 0, steady_sum = 0;
  for (std::size_t i = kFirstMember; i < kMembersEnd; ++i) {
    const auto direct =
        bed.net()
            .routing()
            .path_delay(bed.roles().receiver_hosts[kSourceHost],
                        bed.roles().receiver_hosts[i])
            .value();
    for (const auto& d : logs[i - kFirstMember]) {
      ++delivered;
      const double s = stretch_of(d.at - sent_at.at(d.sequence), direct);
      if (d.sequence == 0) { first_sum += s; ++first; }
      else { steady_sum += s; ++steady; }
    }
  }
  r.delivery_ratio = static_cast<double>(delivered) /
                     (kPackets * static_cast<double>(member_count()));
  r.first_packet_stretch = first > 0 ? first_sum / first : 0;
  r.steady_stretch = steady > 0 ? steady_sum / steady : 0;
  return r;
}

template <typename Router, typename Config>
Result run_baseline(const std::string& name, ip::Protocol control,
                    Config config_of(const workload::GeneratedTopology&),
                    std::size_t state_of(const Router&)) {
  auto generated = make_topology();
  const Config config = config_of(generated);
  auto roles = generated;
  auto network = std::make_unique<net::Network>(std::move(generated.topology));
  std::vector<Router*> routers;
  for (net::NodeId id : roles.routers) {
    routers.push_back(&network->attach<Router>(id, config));
  }
  network->attach<baseline::GroupHost>(roles.source_host);
  std::vector<baseline::GroupHost*> receivers;
  for (net::NodeId id : roles.receiver_hosts) {
    receivers.push_back(&network->attach<baseline::GroupHost>(id));
  }
  baseline::GroupHost& source = *receivers[kSourceHost];

  std::deque<DeliveryLog> logs;
  for (std::size_t i = kFirstMember; i < kMembersEnd; ++i) {
    receivers[i]->set_data_handler(logs.emplace_back().handler());
    receivers[i]->join_group(kGroup, control);
  }
  network->run_until(sim::seconds(1));
  const std::uint64_t bytes_before = network->total_link_bytes();
  std::vector<sim::Time> sent_at;
  for (int p = 0; p < kPackets; ++p) {
    sent_at.push_back(network->now());
    source.send_to_group(kGroup, kPacketBytes, static_cast<std::uint64_t>(p));
    network->run_until(network->now() + sim::seconds(1));
  }

  Result r;
  r.name = name;
  for (const Router* router : routers) {
    const std::size_t entries = state_of(*router);
    r.state_entries += entries;
    if (entries > 0) ++r.routers_with_state;
  }
  r.data_link_bytes = network->total_link_bytes() - bytes_before;
  net::UnicastRouting routing_view(network->topology());
  std::uint64_t delivered = 0, first = 0, steady = 0;
  double first_sum = 0, steady_sum = 0;
  for (std::size_t i = kFirstMember; i < kMembersEnd; ++i) {
    const auto direct =
        routing_view
            .path_delay(roles.receiver_hosts[kSourceHost],
                        roles.receiver_hosts[i])
            .value();
    for (const auto& d : logs[i - kFirstMember]) {
      ++delivered;
      if (d.sequence >= sent_at.size()) continue;
      const double s = stretch_of(d.at - sent_at[d.sequence], direct);
      if (d.sequence == 0) { first_sum += s; ++first; }
      else { steady_sum += s; ++steady; }
    }
  }
  r.delivery_ratio = static_cast<double>(delivered) /
                     (kPackets * static_cast<double>(member_count()));
  r.first_packet_stretch = first > 0 ? first_sum / first : 0;
  r.steady_stretch = steady > 0 ? steady_sum / steady : 0;
  return r;
}

}  // namespace

int main() {
  using namespace express::bench;

  banner("CMP / §3.6, §4.4",
         "EXPRESS vs PIM-SM vs CBT vs DVMRP (31 routers, 16 hosts, 4 members)");

  std::vector<Result> results;
  results.push_back(run_express());

  results.push_back(run_baseline<baseline::PimSmRouter, baseline::PimConfig>(
      "PIM-SM shared", ip::Protocol::kPim,
      [](const workload::GeneratedTopology& g) {
        baseline::PimConfig c;
        // Network-chosen RP off the source's path — the paper's
        // complaint: applications have no control over RP placement.
        c.rp = g.topology.node(g.routers[kRendezvousRouter]).address;
        return c;
      },
      [](const baseline::PimSmRouter& r) { return r.state_entries(); }));

  results.push_back(run_baseline<baseline::PimSmRouter, baseline::PimConfig>(
      "PIM-SM +SPT", ip::Protocol::kPim,
      [](const workload::GeneratedTopology& g) {
        baseline::PimConfig c;
        c.rp = g.topology.node(g.routers[kRendezvousRouter]).address;
        c.spt_switchover = true;
        return c;
      },
      [](const baseline::PimSmRouter& r) { return r.state_entries(); }));

  results.push_back(run_baseline<baseline::CbtRouter, baseline::CbtConfig>(
      "CBT", ip::Protocol::kCbt,
      [](const workload::GeneratedTopology& g) {
        baseline::CbtConfig c;
        c.core = g.topology.node(g.routers[kRendezvousRouter]).address;
        return c;
      },
      [](const baseline::CbtRouter& r) { return r.state_entries(); }));

  results.push_back(run_baseline<baseline::DvmrpRouter, baseline::DvmrpConfig>(
      "DVMRP", ip::Protocol::kIgmp,
      [](const workload::GeneratedTopology&) { return baseline::DvmrpConfig{}; },
      [](const baseline::DvmrpRouter& r) { return r.state_entries(); }));

  Table table({"protocol", "state entries", "routers w/ state", "delivery",
               "1st-pkt stretch", "steady stretch", "data bytes on links"});
  for (const Result& r : results) {
    table.row({r.name, fmt_int(r.state_entries),
               fmt_int(r.routers_with_state), fmt(r.delivery_ratio * 100, 1) + "%",
               fmt(r.first_packet_stretch, 2), fmt(r.steady_stretch, 2),
               fmt_int(r.data_link_bytes)});
  }
  table.print();

  note("");
  note("expected shapes (paper): EXPRESS holds state only on the source");
  note("tree, stretch ~1 from the first packet; PIM-SM's first packet takes");
  note("the register/RP detour and its state doubles once (S,G) trees form;");
  note("CBT stays state-lean but every packet detours through the core;");
  note("DVMRP's first packet floods the whole domain — every router ends up");
  note("with (S,G) state and off-tree links carry wasted bytes.");
  return 0;
}
