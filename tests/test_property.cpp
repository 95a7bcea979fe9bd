// Property-based suites (parameterized over seeds): delivery invariants
// on random topologies and workloads, codec fuzz/round-trip, routing
// metric properties, and bit-for-bit determinism of the simulator.
#include <gtest/gtest.h>

#include <algorithm>

#include "ecmp/codec.hpp"
#include "helpers.hpp"
#include "net/routing.hpp"
#include "testbed/delivery_log.hpp"
#include "workload/topo_gen.hpp"

namespace express::test {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

workload::GeneratedTopology random_topology(sim::Rng& rng) {
  return workload::make_transit_stub(4, 2, 3, rng);  // 24 receivers
}

TEST_P(SeededProperty, DeliveryInvariants) {
  sim::Rng rng(GetParam());
  Testbed sim(random_topology(rng));
  const ip::ChannelId ch = sim.source().allocate_channel();
  std::vector<DeliveryLog> logs(sim.receiver_count());

  // Random half of the receivers subscribe.
  std::vector<bool> member(sim.receiver_count(), false);
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    sim.receiver(i).set_data_handler(logs[i].handler());
    member[i] = rng.chance(0.5);
    if (member[i]) sim.receiver(i).new_subscription(ch);
  }
  sim.run_for(sim::seconds(2));

  const int packets = 5;
  for (int p = 1; p <= packets; ++p) {
    sim.source().send(ch, 500, static_cast<std::uint64_t>(p));
  }
  sim.run_for(sim::seconds(2));

  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    const std::size_t expected = member[i] ? packets : 0u;
    EXPECT_EQ(sim.receiver(i).stats().data_received, expected)
        << "receiver " << i << " member=" << member[i];
    EXPECT_EQ(sim.receiver(i).stats().unwanted_data, 0u);
    // Exactly-once: sequences are unique per receiver.
    std::set<std::uint64_t> seqs;
    for (const auto& d : logs[i]) {
      EXPECT_TRUE(seqs.insert(d.sequence).second)
          << "duplicate delivery at receiver " << i;
    }
  }

  // Random churn: some members leave, some non-members join.
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    if (rng.chance(0.4)) {
      if (member[i]) {
        sim.receiver(i).delete_subscription(ch);
      } else {
        sim.receiver(i).new_subscription(ch);
      }
      member[i] = !member[i];
    }
  }
  sim.run_for(sim::seconds(2));
  sim.source().send(ch, 500, 99);
  sim.run_for(sim::seconds(2));
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    const bool got_last = !logs[i].empty() && logs[i].back().sequence == 99;
    EXPECT_EQ(got_last, member[i]) << "receiver " << i;
  }

  // Full teardown leaves zero state anywhere.
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    if (member[i]) sim.receiver(i).delete_subscription(ch);
  }
  sim.run_for(sim::seconds(2));
  EXPECT_EQ(sim.total_fib_entries(), 0u);
  for (std::size_t i = 0; i < sim.router_count(); ++i) {
    EXPECT_EQ(sim.router(i).channel_count(), 0u) << "router " << i;
  }
}

TEST_P(SeededProperty, FibStateWithinStarBound) {
  // §5.1: an n-receiver channel occupies at most sum-of-path-hops FIB
  // entries; tree sharing only reduces it.
  sim::Rng rng(GetParam() * 7919 + 1);
  Testbed sim(random_topology(rng));
  const ip::ChannelId ch = sim.source().allocate_channel();
  std::uint64_t bound = 0;
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    sim.receiver(i).new_subscription(ch);
    bound += sim.net()
                 .routing()
                 .hop_count(sim.roles().source_host,
                            sim.roles().receiver_hosts[i])
                 .value();
  }
  sim.run_for(sim::seconds(2));
  EXPECT_LE(sim.total_fib_entries(), bound);
  EXPECT_GT(sim.total_fib_entries(), 0u);
}

TEST_P(SeededProperty, QuiescentCountIsExact) {
  sim::Rng rng(GetParam() * 104729 + 3);
  Testbed sim(random_topology(rng));
  const ip::ChannelId ch = sim.source().allocate_channel();
  std::int64_t members = 0;
  for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
    if (rng.chance(0.6)) {
      sim.receiver(i).new_subscription(ch);
      ++members;
    }
  }
  sim.run_for(sim::seconds(2));
  std::optional<CountResult> result;
  sim.source().count_query(ch, ecmp::kSubscriberId, sim::seconds(5),
                           [&](CountResult r) { result = r; });
  sim.run_for(sim::seconds(10));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->count, members);
  EXPECT_TRUE(result->complete);
}

TEST_P(SeededProperty, SimulationIsDeterministic) {
  auto run = [&]() {
    sim::Rng rng(GetParam() + 17);
    Testbed sim(random_topology(rng));
    const ip::ChannelId ch = sim.source().allocate_channel();
    std::vector<DeliveryLog> logs(sim.receiver_count());
    for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
      sim.receiver(i).set_data_handler(logs[i].handler());
      if (rng.chance(0.5)) sim.receiver(i).new_subscription(ch);
    }
    sim.run_for(sim::seconds(1));
    for (int p = 0; p < 3; ++p) {
      sim.source().send(ch, 700, static_cast<std::uint64_t>(p));
    }
    sim.run_for(sim::seconds(1));
    std::vector<std::uint64_t> trace;
    trace.push_back(sim.net().stats().packets_sent);
    trace.push_back(sim.net().stats().bytes_sent);
    trace.push_back(sim.net().scheduler().executed_events());
    for (std::size_t i = 0; i < sim.receiver_count(); ++i) {
      trace.push_back(sim.receiver(i).stats().data_received);
      for (const auto& d : logs[i]) {
        trace.push_back(static_cast<std::uint64_t>(d.at.count()));
      }
    }
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST_P(SeededProperty, CodecRoundTripsRandomMessages) {
  sim::Rng rng(GetParam() * 31 + 5);
  for (int i = 0; i < 500; ++i) {
    ecmp::Message msg;
    const ip::ChannelId ch{ip::Address{rng.next_u32() | 1},
                           ip::Address::single_source(rng.next_u32())};
    switch (rng.below(4)) {
      case 0: {
        ecmp::Count c;
        c.channel = ch;
        c.count_id = static_cast<ecmp::CountId>(rng.next_u32());
        c.count = rng.below(0x7FFFFFFF);
        c.query_seq = rng.chance(0.5) ? rng.next_u32() : 0;
        if (rng.chance(0.5)) c.key = rng.next_u64();
        msg = c;
        break;
      }
      case 1: {
        ecmp::CountQuery q;
        q.channel = ch;
        q.count_id = static_cast<ecmp::CountId>(rng.next_u32());
        q.timeout = sim::milliseconds(rng.below(1 << 20));
        q.query_seq = rng.next_u32();
        msg = q;
        break;
      }
      case 2: {
        ecmp::CountResponse r;
        r.channel = ch;
        r.count_id = static_cast<ecmp::CountId>(rng.next_u32());
        r.status = static_cast<ecmp::Status>(rng.below(4));
        msg = r;
        break;
      }
      default: {
        ecmp::KeyRegister k;
        k.channel = ch;
        k.key = rng.next_u64();
        msg = k;
        break;
      }
    }
    const auto bytes = ecmp::encode(msg);
    auto parsed = ecmp::decode(bytes);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->second, bytes.size());
    // Compare by re-encoding: the wire form is canonical.
    EXPECT_EQ(ecmp::encode(parsed->first), bytes);
  }
}

TEST_P(SeededProperty, CodecSurvivesRandomBytes) {
  sim::Rng rng(GetParam() * 131 + 9);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> junk(rng.below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    // Must neither crash nor loop; any prefix decoding is acceptable.
    const auto messages = ecmp::decode_all(junk);
    EXPECT_LE(messages.size(), junk.size());
  }
}

TEST_P(SeededProperty, RoutingMetricsAreConsistent) {
  sim::Rng rng(GetParam() * 977 + 11);
  auto g = workload::make_transit_stub(5, 2, 1, rng);
  net::UnicastRouting routing(g.topology);
  const auto n = static_cast<net::NodeId>(g.topology.node_count());
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = static_cast<net::NodeId>(rng.below(n));
    const auto b = static_cast<net::NodeId>(rng.below(n));
    const auto c = static_cast<net::NodeId>(rng.below(n));
    auto ab = routing.cost(a, b);
    auto ba = routing.cost(b, a);
    ASSERT_EQ(ab.has_value(), ba.has_value());
    if (!ab) continue;
    EXPECT_EQ(*ab, *ba);  // symmetric link costs -> symmetric metric
    auto ac = routing.cost(a, c);
    auto cb = routing.cost(c, b);
    if (ac && cb) {
      EXPECT_LE(*ab, *ac + *cb);  // triangle inequality
    }
    const auto path = routing.path(a, b);
    if (a != b) {
      ASSERT_GE(path.size(), 2u);
      EXPECT_EQ(path.front(), a);
      EXPECT_EQ(path.back(), b);
      EXPECT_EQ(path.size() - 1, routing.hop_count(a, b).value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u));

}  // namespace
}  // namespace express::test
