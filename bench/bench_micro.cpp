// Google-benchmark microbenchmarks for the hot paths the §5.3 analysis
// cares about: FIB lookup, ECMP codec, subscription-event processing,
// routing recomputation, the invariant audit, network set-up (attach),
// and the error-curve evaluation.
#include <benchmark/benchmark.h>

#include <memory>

#include "audit/invariants.hpp"
#include "counting/error_curve.hpp"
#include "ecmp/codec.hpp"
#include "express/fib.hpp"
#include "express/host.hpp"
#include "express/router.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "sim/random.hpp"
#include "testbed/testbed.hpp"
#include "workload/topo_gen.hpp"

namespace {

using namespace express;

ip::ChannelId channel_n(std::uint32_t n) {
  return ip::ChannelId{ip::Address(10, 0, 0, 1), ip::Address::single_source(n)};
}

void BM_FibLookupHit(benchmark::State& state) {
  Fib fib;
  const auto entries = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < entries; ++i) {
    FibEntry& e = fib.upsert(channel_n(i));
    e.iif = 0;
    e.oifs.set(3);
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fib.lookup(channel_n(i), 0));
    i = (i + 2654435761u) % entries;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FibLookupHit)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_FibLookupMiss(benchmark::State& state) {
  Fib fib;
  for (std::uint32_t i = 0; i < 100000; ++i) {
    fib.upsert(channel_n(i)).iif = 0;
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fib.lookup(channel_n(200000 + i), 0));
    i = (i + 1) % 1000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FibLookupMiss);

void BM_EcmpEncodeCount(benchmark::State& state) {
  ecmp::Count msg;
  msg.channel = channel_n(7);
  msg.count = 12345;
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    out.clear();
    ecmp::encode(ecmp::Message{msg}, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EcmpEncodeCount);

void BM_EcmpDecodeSegment(benchmark::State& state) {
  // A full 1480-byte segment of 92 Counts, the §5.3 batching unit.
  std::vector<std::uint8_t> segment;
  ecmp::Count msg;
  msg.channel = channel_n(7);
  msg.count = 1;
  for (int i = 0; i < 92; ++i) ecmp::encode(ecmp::Message{msg}, segment);
  for (auto _ : state) {
    auto messages = ecmp::decode_all(segment);
    benchmark::DoNotOptimize(messages.size());
  }
  state.SetItemsProcessed(state.iterations() * 92);
}
BENCHMARK(BM_EcmpDecodeSegment);

void BM_SubscribeEvent(benchmark::State& state) {
  // Full router event: decode + channel lookup + state + FIB + upstream
  // send — the §5.3 per-event cost.
  net::Topology topo;
  const net::NodeId core = topo.add_router();
  const net::NodeId child = topo.add_router();
  const net::NodeId up = topo.add_router();
  const net::NodeId src = topo.add_host();
  topo.add_link(core, child);
  topo.add_link(core, up);
  topo.add_link(up, src);
  net::Network network(std::move(topo));
  auto& router = network.attach<ExpressRouter>(core);
  struct Sink : net::Node {
    Sink(net::Network& n, net::NodeId i) : net::Node(n, i) {}
    void handle_packet(const net::Packet&, std::uint32_t) override {}
  };
  network.attach<Sink>(child);
  network.attach<Sink>(up);
  network.attach<Sink>(src);
  const ip::Address src_addr = network.topology().address(src);

  std::uint32_t i = 0;
  std::int64_t toggle = 1;
  for (auto _ : state) {
    ecmp::Count msg;
    msg.channel =
        ip::ChannelId{src_addr, ip::Address::single_source(i % 4096)};
    msg.count = toggle;
    net::Packet packet;
    packet.src = network.topology().address(child);
    packet.dst = network.topology().address(core);
    packet.protocol = ip::Protocol::kEcmp;
    packet.payload = ecmp::encode(ecmp::Message{msg});
    router.handle_packet(packet, 0);
    if (++i % 4096 == 0) {
      toggle = 1 - toggle;  // alternate subscribe/unsubscribe sweeps
      state.PauseTiming();
      network.run();  // drain queued upstream messages
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubscribeEvent);

void BM_DijkstraRecompute(benchmark::State& state) {
  sim::Rng rng(3);
  auto g = workload::make_transit_stub(
      static_cast<std::uint32_t>(state.range(0)), 3, 2, rng);
  net::UnicastRouting routing(g.topology);
  const auto n = static_cast<net::NodeId>(g.topology.node_count());
  // recompute() only drops the cached trees; one query toward each node
  // builds all N of them again.
  for (auto _ : state) {
    routing.recompute();
    for (net::NodeId dest = 0; dest < n; ++dest) {
      benchmark::DoNotOptimize(routing.next_hop(0, dest));
    }
  }
}
BENCHMARK(BM_DijkstraRecompute)->Arg(4)->Arg(16);

void BM_InvariantAudit(benchmark::State& state) {
  // One full walk of a settled tree shaped like the perfbench chaos
  // workload: a 16 x 8 x 4 transit-stub graph (657 nodes) with every
  // third receiver subscribed to one channel. (run() after the first
  // call re-walks only what changed; full_walk() is the cold cost.)
  sim::Rng rng(1);
  Testbed bed(workload::make_transit_stub(16, 8, 4, rng));
  const ip::ChannelId channel = bed.source().allocate_channel();
  for (std::size_t i = 0; i < bed.receiver_count(); i += 3) {
    bed.receiver(i).new_subscription(channel);
  }
  bed.run_for(sim::seconds(2));
  const audit::InvariantAuditor auditor(bed.net());
  for (auto _ : state) {
    const audit::AuditReport report = auditor.full_walk();
    if (!report.clean()) state.SkipWithError("settled tree is not clean");
    benchmark::DoNotOptimize(report.channels_audited);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InvariantAudit);

void BM_InvariantAuditKaryTree(benchmark::State& state) {
  // One full walk of make_kary_tree(4, depth, {}, 10) with one channel and
  // four receivers: the on-tree state is the same few paths at every
  // depth (depth 4: 2,902 nodes; depth 6: 46,422), so per-call cost
  // that rises with depth is cost paid per node, not per on-tree pair.
  const auto depth = static_cast<std::uint32_t>(state.range(0));
  Testbed bed(workload::make_kary_tree(4, depth, {}, 10));
  const ip::ChannelId channel = bed.source().allocate_channel();
  const std::size_t stride = bed.receiver_count() / 4;
  for (std::size_t i = 0; i < bed.receiver_count(); i += stride) {
    bed.receiver(i).new_subscription(channel);
  }
  bed.run_for(sim::seconds(2));
  const audit::InvariantAuditor auditor(bed.net());
  for (auto _ : state) {
    const audit::AuditReport report = auditor.full_walk();
    if (!report.clean()) state.SkipWithError("settled tree is not clean");
    benchmark::DoNotOptimize(report.channels_audited);
  }
  state.counters["nodes"] =
      static_cast<double>(bed.net().topology().node_count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InvariantAuditKaryTree)->Arg(4)->Arg(6);

void BM_InvariantAuditAfterOneChange(benchmark::State& state) {
  // The incremental audit's steady state: the memo is warm, one host
  // toggles its subscription and the network settles (untimed), then
  // one run() re-walks what changed. Arg 0 is the 16 x 8 x 4
  // transit-stub tree of BM_InvariantAudit, Arg 4 and 6 the k-ary trees
  // of BM_InvariantAuditKaryTree; the toggling host shares an on-tree
  // stub or leaf with a standing member.
  const auto shape = static_cast<std::uint32_t>(state.range(0));
  sim::Rng rng(1);
  Testbed bed(shape == 0 ? workload::make_transit_stub(16, 8, 4, rng)
                         : workload::make_kary_tree(4, shape, {}, 10));
  const ip::ChannelId channel = bed.source().allocate_channel();
  const std::size_t stride = shape == 0 ? 3 : bed.receiver_count() / 4;
  for (std::size_t i = 0; i < bed.receiver_count(); i += stride) {
    bed.receiver(i).new_subscription(channel);
  }
  bed.run_for(sim::seconds(2));
  const audit::InvariantAuditor auditor(bed.net());
  if (!auditor.run().clean()) state.SkipWithError("settled tree is not clean");
  ExpressHost& toggling = bed.receiver(1);
  bool joined = false;
  std::size_t walked = 0;
  for (auto _ : state) {
    state.PauseTiming();
    if (joined) {
      toggling.delete_subscription(channel);
    } else {
      toggling.new_subscription(channel);
    }
    joined = !joined;
    bed.run_for(sim::seconds(1));
    state.ResumeTiming();
    const audit::AuditReport report = auditor.run();
    if (!report.clean()) state.SkipWithError("settled tree is not clean");
    walked += report.routers_walked;
  }
  state.counters["routers_walked"] = benchmark::Counter(
      static_cast<double>(walked), benchmark::Counter::kAvgIterations);
  state.counters["nodes"] =
      static_cast<double>(bed.net().topology().node_count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InvariantAuditAfterOneChange)->Arg(0)->Arg(4)->Arg(6);

void BM_AttachKaryTree(benchmark::State& state) {
  // Network construction plus attach of every router and host on
  // make_kary_tree(4, depth, {}, hosts_per_leaf): the set-up cost the
  // metrics registry sets at scale, since every module instance binds
  // its stats table once. Topology generation and teardown are untimed.
  const auto depth = static_cast<std::uint32_t>(state.range(0));
  const auto hosts = static_cast<std::uint32_t>(state.range(1));
  std::size_t nodes = 0;
  std::size_t entries = 0;
  for (auto _ : state) {
    state.PauseTiming();
    workload::GeneratedTopology topo =
        workload::make_kary_tree(4, depth, {}, hosts);
    nodes = topo.topology.node_count();
    state.ResumeTiming();
    auto bed = std::make_unique<Testbed>(std::move(topo));
    benchmark::DoNotOptimize(bed.get());
    state.PauseTiming();
    entries = bed->net().obs().registry.size();
    bed.reset();
    state.ResumeTiming();
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["registry_entries"] = static_cast<double>(entries);
}
BENCHMARK(BM_AttachKaryTree)
    ->Args({4, 5})
    ->Args({6, 10})
    ->Unit(benchmark::kMillisecond);

void BM_ErrorCurveEvaluate(benchmark::State& state) {
  counting::ErrorCurve curve(counting::CurveParams{0.3, 120, 4});
  double dt = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.tolerance(dt));
    dt += 0.1;
    if (dt > 119) dt = 0.1;
  }
}
BENCHMARK(BM_ErrorCurveEvaluate);

}  // namespace

BENCHMARK_MAIN();
