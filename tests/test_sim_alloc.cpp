// Heap-traffic tests for the simulator core.
//
// This binary links the counting operator new/delete of
// alloc_counter.cpp, proving the headline property of the slab
// scheduler: once warmed up, a steady-state schedule → dispatch cycle
// touches the allocator zero times; that a topology requests a few
// hundred bytes a node and building the network fabric over it costs
// no per-node allocation; that an invariant audit's scratch is sized by
// the on-tree state, not by the network, and a warm audit re-walks only
// the routers a change touched; that EXPRESS routers and hosts attach,
// and routers join a channel, for a pinned number of bytes; and that
// the group-model
// baselines attach cheaply and forward a warmed-up flow without
// touching the allocator. It is its own test
// binary so the counting overrides cannot perturb (or be perturbed by)
// the other suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "audit/invariants.hpp"
#include "baseline/cbt.hpp"
#include "baseline/dvmrp.hpp"
#include "baseline/pim_sm.hpp"
#include "express/host.hpp"
#include "express/router.hpp"
#include "group_net.hpp"
#include "net/network.hpp"
#include "sim/inline_function.hpp"
#include "sim/scheduler.hpp"
#include "testbed/testbed.hpp"
#include "workload/topo_gen.hpp"

namespace express::sim {
namespace {

using test::allocated_bytes;
using test::allocation_count;

// A large capture: a packet-sized blob plus a couple of pointers. Must
// fit InlineFunction's inline buffer.
struct Blob {
  unsigned char bytes[64];
};

TEST(SchedulerAllocation, SteadyStateDispatchIsAllocationFree) {
  Scheduler s;
  std::uint64_t fired = 0;
  Blob blob{};

  // Warm up: grow the slab, free list, and heap to their high-water
  // mark, and let the closure machinery settle.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 64; ++i) {
      s.schedule_after(milliseconds(i), [&fired, blob] {
        ++fired;
        (void)blob;
      });
    }
    s.run();
  }

  const std::uint64_t before = allocation_count();
  const std::uint64_t fired_before = fired;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 64; ++i) {
      s.schedule_after(milliseconds(i), [&fired, blob] {
        ++fired;
        (void)blob;
      });
    }
    s.run();
  }
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(after - before, 0u) << "steady-state dispatch hit the heap";
  EXPECT_EQ(fired - fired_before, 100u * 64u);
}

TEST(SchedulerAllocation, SelfReschedulingTimerIsAllocationFree) {
  // The common protocol-timer pattern: a handler that re-arms itself.
  // The slot is recycled before the handler runs, so the timer reuses
  // its own record forever — for a short protocol timer and for a
  // 30 s refresh-period timer alike.
  for (const Duration period : {milliseconds(10), seconds(30)}) {
    SCOPED_TRACE(period.count());
    Scheduler s;
    std::uint64_t ticks = 0;

    struct TimerLoop {
      Scheduler& s;
      std::uint64_t& ticks;
      Duration period;
      std::uint64_t remaining;
      Blob blob{};
      void operator()() {
        ++ticks;
        if (--remaining > 0) {
          s.schedule_after(period, TimerLoop{s, ticks, period, remaining});
        }
      }
    };

    s.schedule_after(period, TimerLoop{s, ticks, period, 8});
    s.run();  // warm-up ticks

    const std::uint64_t before = allocation_count();
    s.schedule_after(period, TimerLoop{s, ticks, period, 1000});
    s.run();
    const std::uint64_t after = allocation_count();

    EXPECT_EQ(ticks, 8u + 1000u);
    EXPECT_EQ(after - before, 0u) << "timer re-arm hit the heap";
  }
}

TEST(SchedulerAllocation, CancellationIsAllocationFree) {
  Scheduler s;
  for (int round = 0; round < 4; ++round) {  // warm up
    std::vector<EventHandle> handles;
    handles.reserve(32);
    for (int i = 0; i < 32; ++i) {
      handles.push_back(s.schedule_after(milliseconds(i), [] {}));
    }
    for (auto& h : handles) h.cancel();
    s.run();
  }

  std::vector<EventHandle> handles;
  handles.reserve(32);
  const std::uint64_t before = allocation_count();
  for (int round = 0; round < 50; ++round) {
    handles.clear();
    for (int i = 0; i < 32; ++i) {
      handles.push_back(s.schedule_after(milliseconds(i), [] {}));
    }
    for (auto& h : handles) h.cancel();
    s.run();
  }
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u) << "cancel path hit the heap";
}

TEST(SchedulerAllocation, SimulationClosuresStayInline) {
  // InlineFunction heap-boxes closures larger than its inline buffer.
  // None of the simulator's own closures should ever be boxed; the
  // counter is cumulative, so by the time this binary's tests have
  // exercised the scheduler it must still read zero.
  EXPECT_EQ(InlineFunction::boxed_count(), 0u);

  // Sanity-check that the counter works at all: an oversized closure
  // must be boxed (and allocate).
  struct Huge {
    unsigned char bytes[256];
  };
  const std::uint64_t before = allocation_count();
  Huge huge{};
  InlineFunction f{[huge] { (void)huge; }};
  f();
  EXPECT_EQ(InlineFunction::boxed_count(), 1u);
  EXPECT_GT(allocation_count(), before);
}

TEST(TopologyAllocation, BuildingATreeRequestsFewBytesPerNode) {
  // A node record is its kind, domain and port list (32 bytes); its
  // address follows from its id and it carries no name. Building the
  // 46,422-node tree requests the node table with its doubling growth
  // (~90 B a node), each node's ports and the link table: ~243 B a
  // node. The bound fails a 72-byte record that also stores the address
  // and a name string (~356 B a node).
  const std::uint64_t before = allocated_bytes();
  const auto generated = workload::make_kary_tree(4, 6, {}, 10);
  const auto bytes = static_cast<double>(allocated_bytes() - before);
  const auto nodes = static_cast<double>(generated.topology.node_count());
  EXPECT_LT(bytes / nodes, 300.0)
      << bytes << " bytes for " << nodes << " nodes";
}

TEST(NetworkAllocation, ConstructionMakesNoPerNodeAllocation) {
  // Addresses resolve by arithmetic on node ids, so the fabric keeps no
  // per-node index: a 46,422-node tree is built with per-link blocks
  // from the registry's arena and a handful of vectors.
  auto generated = workload::make_kary_tree(4, 6, {}, 10);
  const auto nodes = static_cast<double>(generated.topology.node_count());
  const std::uint64_t before = allocation_count();
  const net::Network network(std::move(generated.topology));
  const auto allocations = static_cast<double>(allocation_count() - before);
  EXPECT_LT(allocations / nodes, 0.1)
      << allocations << " allocations for " << nodes << " nodes";
}

TEST(AuditAllocation, AuditOfALargeTreeIsSizedByItsOnTreeState) {
  // One channel with four receivers on a 46,422-node tree: the audit
  // walks a few dozen (router, channel) pairs, so its heap traffic must
  // not scale with the node count (two NodeId-indexed pointer views of
  // this tree alone would be ~740 KB).
  Testbed bed(workload::make_kary_tree(4, 6, {}, 10));
  const ip::ChannelId channel = bed.source().allocate_channel();
  for (std::size_t i = 0; i < bed.receiver_count(); i += 10'000) {
    bed.receiver(i).new_subscription(channel);
  }
  bed.run_for(sim::seconds(2));
  const audit::InvariantAuditor auditor(bed.net());
  const std::uint64_t before = allocated_bytes();
  const audit::AuditReport report = auditor.run();
  const std::uint64_t bytes = allocated_bytes() - before;
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.routers_audited, 5461u);
  EXPECT_EQ(report.routers_walked, 5461u);  // cold: every router
  EXPECT_GT(report.channels_audited, 4u);
  EXPECT_LT(bytes, 64u * 1024u) << bytes << " bytes for one audit";
}

/// The /6 tree of the test above with its four receivers settled and
/// one warm audit behind it.
struct WarmLargeTree {
  WarmLargeTree() : bed(workload::make_kary_tree(4, 6, {}, 10)) {
    channel = bed.source().allocate_channel();
    for (std::size_t i = 0; i < bed.receiver_count(); i += 10'000) {
      bed.receiver(i).new_subscription(channel);
    }
    bed.run_for(sim::seconds(2));
    const audit::AuditReport cold = audit::InvariantAuditor(bed.net()).run();
    EXPECT_TRUE(cold.clean()) << cold.to_string();
    EXPECT_EQ(cold.routers_walked, 5461u);
  }
  Testbed bed;
  ip::ChannelId channel;
};

TEST(AuditAllocation, OneJoinAfterAWarmAuditWalksAFewRouters) {
  // Receiver 10 hangs off the sibling of receiver 0's leaf: its join
  // grows the tree by one router below an on-tree one. The memo
  // re-walks the routers the join touched and their on-tree
  // neighbours; only the audit's own heap traffic is counted.
  WarmLargeTree t;
  t.bed.receiver(10).new_subscription(t.channel);
  t.bed.run_for(sim::seconds(1));
  const audit::InvariantAuditor auditor(t.bed.net());
  const std::uint64_t before = allocated_bytes();
  const audit::AuditReport report = auditor.run();
  const std::uint64_t bytes = allocated_bytes() - before;
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.routers_audited, 5461u);
  EXPECT_GE(report.routers_walked, 2u);
  EXPECT_LE(report.routers_walked, 8u);
  EXPECT_LT(bytes, 4u * 1024u) << bytes << " bytes for one audit";
}

TEST(AuditAllocation, WalkAfterARoutingChangeVisitsOnlyRoutersWithState) {
  // A routing change re-walks every router holding channel or FIB
  // state, and none of the thousands that hold nothing.
  WarmLargeTree t;
  net::Network& network = t.bed.net();
  // The last leaf's uplink (its first port): no receiver sits below it.
  const net::LinkId uplink =
      network.topology().port(t.bed.roles().routers.back(), 0).link;
  network.set_link_up(uplink, false);
  network.set_link_up(uplink, true);
  t.bed.run_for(sim::seconds(2));
  const audit::InvariantAuditor auditor(network);
  const audit::AuditReport report = auditor.run();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.routers_audited, 5461u);
  // One channel: one pair per on-tree router.
  EXPECT_EQ(report.routers_walked, report.channels_audited);
  EXPECT_LT(report.routers_walked, 100u);
}

}  // namespace
}  // namespace express::sim

namespace express::test {
namespace {

const ip::Address kGroup(225, 1, 2, 3);

/// Heap bytes one router of type R requests when attached to a
/// make_kary_tree(2, 4) network (31 routers).
template <class R, class... Config>
double attach_bytes_per_router(Config... config) {
  auto generated = workload::make_kary_tree(2, 4);
  net::Network network(std::move(generated.topology));
  const std::uint64_t before = allocated_bytes();
  for (net::NodeId r : generated.routers) network.attach<R>(r, config...);
  return static_cast<double>(allocated_bytes() - before) /
         static_cast<double>(generated.routers.size());
}

/// Allocations per data packet of a 200-packet train on
/// make_kary_tree(2, 4) with every 4th receiver joined, measured after
/// a warm-up train from the same sender: a new sender's first packets
/// create its (S,G) state, so only the second train is steady state.
template <class R, class... Config>
double allocations_per_packet(ip::Protocol control, bool member_sender,
                              Config... config) {
  constexpr std::uint64_t kTrain = 200;
  GroupNet<R> g(workload::make_kary_tree(2, 4), config...);
  for (std::size_t i = 0; i < g.receivers.size(); i += 4) {
    g.receivers[i]->join_group(kGroup, control);
  }
  g.run_for(sim::seconds(1));
  baseline::GroupHost& sender = member_sender ? *g.receivers[0] : *g.source;
  const auto train = [&](std::uint64_t first) {
    for (std::uint64_t seq = first; seq < first + kTrain; ++seq) {
      sender.send_to_group(kGroup, 100, seq);
      g.run_for(sim::milliseconds(10));
    }
  };
  train(0);
  const std::uint64_t before = allocation_count();
  const std::uint64_t received = g.receivers[4]->stats().data_received;
  train(kTrain);
  EXPECT_EQ(g.receivers[4]->stats().data_received - received, kTrain);
  return static_cast<double>(allocation_count() - before) /
         static_cast<double>(kTrain);
}

TEST(BaselineAllocation, AttachRequestsFewBytesPerRouter) {
  // A baseline router is its protocol tables and one registry-bound
  // stats block; it holds no FIB and no forwarding plane (a plane's FIB
  // and its 8 registry rows cost ~500 B a router).
  const ip::Address root = net::Topology::address(0);
  EXPECT_LT(attach_bytes_per_router<baseline::PimSmRouter>(
                baseline::PimConfig{root}),
            900.0);
  EXPECT_LT(attach_bytes_per_router<baseline::CbtRouter>(
                baseline::CbtConfig{root}),
            550.0);
  EXPECT_LT(attach_bytes_per_router<baseline::DvmrpRouter>(), 700.0);
}

TEST(ExpressAllocation, AttachRequestsFewBytesPerNode) {
  // Heap bytes an EXPRESS router and an EXPRESS host request at attach:
  // the object, its module tables and its registry-bound stats blocks
  // and rows. The tree is large enough (5,461 routers, 40,961 hosts)
  // that the registry's 16 KiB arena chunks average out. Measured with
  // g++ 12 and libstdc++: 2,567 B a router, 620 B a host. The ceilings
  // sit within 8 B of that, so a stored copy of a derivable fact (a
  // node's obs scope, a whole RouterStats block bound for its one
  // published row, a per-channel map beside the channel table) fails
  // the gate.
  auto generated = workload::make_kary_tree(4, 6, {}, 10);
  net::Network network(std::move(generated.topology));
  std::vector<net::NodeId> hosts = generated.receiver_hosts;
  hosts.push_back(generated.source_host);

  std::uint64_t before = allocated_bytes();
  for (net::NodeId r : generated.routers) network.attach<ExpressRouter>(r);
  const double per_router = static_cast<double>(allocated_bytes() - before) /
                            static_cast<double>(generated.routers.size());
  before = allocated_bytes();
  for (net::NodeId h : hosts) network.attach<ExpressHost>(h);
  const double per_host = static_cast<double>(allocated_bytes() - before) /
                          static_cast<double>(hosts.size());

  EXPECT_EQ(generated.routers.size(), 5461u);
  EXPECT_LT(per_router, 2574.0);
  EXPECT_LT(per_host, 627.0);
}

TEST(ExpressAllocation, JoinAllRequestsFewBytesPerOnTreeRouter) {
  // Heap bytes requested while every receiver of make_kary_tree(4, 4,
  // {}, 4) (341 routers, 1,024 receivers) joins one channel and the
  // tree settles, per on-tree router: each router's Channel record (its
  // map node carries the route-switch and proactive-recheck slots), its
  // downstream entries and FIB entry, the hosts' subscriptions and the
  // Counts in flight. Measured with g++ 12 and libstdc++: 2,614 B (3,317
  // B while every copy in flight held its own 144-B scheduler record).
  // The ceiling sits within 8 B of that, so a larger channel record
  // fails the gate.
  Testbed bed(workload::make_kary_tree(4, 4, {}, 4));
  const ip::ChannelId channel = bed.source().allocate_channel();
  const std::uint64_t before = allocated_bytes();
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    bed.receiver(i).new_subscription(channel);
  }
  bed.run_for(sim::seconds(2));
  const auto bytes = static_cast<double>(allocated_bytes() - before);

  std::size_t on_tree = 0;
  for (std::size_t i = 0; i < bed.router_count(); ++i) {
    if (bed.router(i).on_tree(channel)) ++on_tree;
  }
  EXPECT_EQ(on_tree, 341u);
  const double per_router = bytes / static_cast<double>(on_tree);
  EXPECT_LT(per_router, 2622.0);
}

TEST(DeliveryPoolAllocation, RetainedBytesFollowThePeakOfCopiesInFlight) {
  // Every receiver of make_kary_tree(4, 6, {}, 1) (5,461 routers, 4,096
  // receivers) joins one channel, then the source sends a 10-packet
  // burst, twice. A copy in flight is a 16-byte record, and the copies
  // of one tree level of one packet share one packet record. The pool
  // peaks at 40,960 copies (the burst's host hop) and at ~4,100 packet
  // records (the join's control messages, one each), and keeps what it
  // peaked at: 22.8 B per copy measured with g++ 12 and libstdc++. The
  // ceiling fails a packet stored per copy (~80 B) and a pool that
  // doubles a contiguous array (up to 2x the copy records, ~32 B).
  Testbed bed(workload::make_kary_tree(4, 6, {}, 1));
  const ip::ChannelId channel = bed.source().allocate_channel();
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    bed.receiver(i).new_subscription(channel);
  }
  bed.run_for(sim::seconds(2));
  const auto burst = [&bed, &channel] {
    for (std::uint64_t seq = 0; seq < 10; ++seq) {
      bed.source().send(channel, 1000, seq);
    }
    bed.run_for(sim::seconds(2));
  };
  burst();
  const std::uint64_t before = allocation_count();
  burst();
  EXPECT_EQ(allocation_count() - before, 0u) << "records are recycled";

  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    delivered += bed.receiver(i).stats().data_received;
  }
  EXPECT_EQ(delivered, 2u * 10u * 4096u);
  const net::DeliveryPoolStats pool = bed.net().delivery_pool();
  EXPECT_EQ(pool.in_flight, 0u);
  EXPECT_GE(pool.peak_in_flight, 10u * 4096u);
  const double per_copy = static_cast<double>(pool.retained_bytes) /
                          static_cast<double>(pool.peak_in_flight);
  EXPECT_LT(per_copy, 24.0) << pool.retained_bytes << " bytes retained for "
                            << pool.peak_in_flight << " copies in flight";
}

TEST(BaselineAllocation, SteadyStateDataPacketIsAllocationFree) {
  // Outgoing sets are net::InterfaceSets computed into one reused set
  // per router and replicated in place, as on the EXPRESS fast path.
  // The RP (and core) sits off the source's first hop, so the warm-up
  // train also runs PIM's register triangle to its RegisterStop.
  const auto probe = workload::make_kary_tree(2, 4);
  const ip::Address rp = probe.topology.address(probe.routers[2]);
  EXPECT_EQ((allocations_per_packet<baseline::PimSmRouter>(
                ip::Protocol::kPim, false, baseline::PimConfig{rp})),
            0.0)
      << "PIM-SM shared tree";
  EXPECT_EQ((allocations_per_packet<baseline::PimSmRouter>(
                ip::Protocol::kPim, false, baseline::PimConfig{rp, true})),
            0.0)
      << "PIM-SM with SPT switchover";
  EXPECT_EQ(allocations_per_packet<baseline::DvmrpRouter>(ip::Protocol::kIgmp,
                                                          false),
            0.0)
      << "DVMRP";
  EXPECT_EQ((allocations_per_packet<baseline::CbtRouter>(
                ip::Protocol::kCbt, true, baseline::CbtConfig{rp})),
            0.0)
      << "CBT, member sender";
}

}  // namespace
}  // namespace express::test
