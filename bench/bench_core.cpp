// CORE — simulator-substrate performance harness.
//
// Every experiment in this repo executes on the same two hot paths: the
// discrete-event scheduler and per-hop packet replication. This bench
// pins their performance trajectory with four measurements; regressions
// are judged against the previously committed BENCH_core.json:
//
//   1. scheduler  — events/sec through schedule/cancel/dispatch rounds.
//   2. fanout     — ns per link transmission through the full network
//                   stack on a 256-way star (the paper's worst-case
//                   replication shape).
//   3. churn      — end-to-end wall time of scenario::run_seeded_churn
//                   at 10k subscribers: join/leave churn with periodic
//                   channel data, the shape every §5/§6 experiment
//                   takes. Deterministic packet/byte counters are
//                   reported so substrate rewrites can prove they
//                   preserved behavior.
//   4. fib        — (S,E) lookups/sec through the FlatFib.
//
// Output: a human table on stdout and machine-readable JSON (default
// BENCH_core.json in the working directory; see --out). Run from the
// repo root so the trajectory file lands where EXPERIMENTS.md expects:
//
//   ./build/bench/bench_core --out BENCH_core.json          # full
//   ./build/bench/bench_core --quick --out /dev/null        # CI smoke
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "express/fib.hpp"
#include "testbed/scenario.hpp"
#include "obs/obs.hpp"
#include "sim/scheduler.hpp"
#include "workload/topo_gen.hpp"

namespace {

using namespace express;
using Clock = std::chrono::steady_clock;

double elapsed_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// 1. Scheduler microbench
// ---------------------------------------------------------------------
//
// Rounds of batched schedule -> cancel-a-slice -> drain. The closure is
// transmit-shaped — it captures a 64-byte packet-sized blob plus a
// counter reference, like the link-delivery events that dominate every
// run — so the scheduler pays its real per-event cost. The cancel mix
// (1 in 8 events is a decoy that never fires) exercises the handle
// machinery the protocol timers lean on.

struct SchedulerScore {
  double events_per_sec = 0;
  std::uint64_t fired = 0;
};

using PacketBlob = std::array<std::uint8_t, 64>;

SchedulerScore measure_scheduler(std::uint64_t target_events) {
  sim::Scheduler s;
  std::uint64_t fired = 0;
  PacketBlob blob{};
  blob[0] = 1;
  std::vector<sim::EventHandle> decoys;
  const std::uint64_t batch = 4096;
  std::int64_t t = 1;
  const auto t0 = Clock::now();
  for (std::uint64_t done = 0; done < target_events; done += batch) {
    decoys.clear();
    for (std::uint64_t i = 0; i < batch; ++i) {
      const sim::Time when{t + static_cast<std::int64_t>(i)};
      s.schedule_at(when, [&fired, blob] { fired += blob[0]; });
      if ((i & 7) == 0) {
        decoys.push_back(s.schedule_at(when, [&fired, blob] { fired += blob[0]; }));
      }
    }
    for (auto& h : decoys) h.cancel();
    s.run();
    t += static_cast<std::int64_t>(batch);
  }
  const double secs = elapsed_s(t0);
  return {static_cast<double>(fired) / secs, fired};
}

// ---------------------------------------------------------------------
// 1b. FIB lookup
// ---------------------------------------------------------------------

struct FibScore {
  double lookups_per_sec = 0;
  std::uint64_t entries = 0;
  std::uint64_t found = 0;  ///< hit count (keeps the loops honest)
};

ip::ChannelId fib_probe_channel(std::uint32_t k) {
  return ip::ChannelId{ip::Address{0x0A000000u + (k % 251u)},
                       ip::Address::single_source(k)};
}

double fib_probe_rate(express::Fib& fib, std::uint32_t entries,
                      std::uint64_t lookups, std::uint64_t* found) {
  // LCG-strided probe stream, ~1 miss in 4 (the churn scenario's mix of
  // forwarding hits and no-entry/RPF drops).
  const std::uint32_t key_space = entries + entries / 3;
  std::uint32_t x = 12345;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < lookups; ++i) {
    x = x * 1664525u + 1013904223u;
    const std::uint32_t k = (x >> 8) % key_space;
    if (fib.lookup(fib_probe_channel(k), k % 8u) != nullptr) ++*found;
  }
  return static_cast<double>(lookups) / elapsed_s(t0);
}

FibScore measure_fib(bool quick) {
  const std::uint32_t entries = quick ? 20'000 : 100'000;
  const std::uint64_t lookups = quick ? 1'000'000 : 10'000'000;
  express::Fib flat;
  for (std::uint32_t i = 0; i < entries; ++i) {
    FibEntry& e = flat.upsert(fib_probe_channel(i));
    e.iif = i % 8u;
    e.oifs.set((i % 8u) + 1u);
  }
  FibScore score;
  score.entries = entries;
  // Best-of rounds, same discipline as the other sections.
  for (int round = 0; round < (quick ? 1 : 3); ++round) {
    score.found = 0;
    score.lookups_per_sec = std::max(
        score.lookups_per_sec,
        fib_probe_rate(flat, entries, lookups, &score.found));
  }
  return score;
}

// ---------------------------------------------------------------------
// 2. Packet fan-out through the real stack
// ---------------------------------------------------------------------

struct FanoutScore {
  double ns_per_hop = 0;
  std::uint64_t hops = 0;
  std::uint64_t packets = 0;
};

FanoutScore measure_fanout(std::uint64_t sends) {
  Testbed bed(workload::make_star(256, 1));
  const ip::ChannelId channel = bed.source().allocate_channel();
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    bed.receiver(i).new_subscription(channel);
  }
  bed.run_for(sim::seconds(2));  // settle joins

  const std::uint64_t hops_before = bed.net().stats().packets_sent;
  const std::vector<std::uint8_t> header(200, 0xAB);
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < sends; ++i) {
    bed.source().send(channel, 1000, i, header);
    bed.run_for(sim::milliseconds(10));
  }
  const double secs = elapsed_s(t0);
  const std::uint64_t hops = bed.net().stats().packets_sent - hops_before;
  return {secs / static_cast<double>(hops) * 1e9, hops, sends};
}

// ---------------------------------------------------------------------
// 3. 10k-subscriber churn scenario, end to end
// ---------------------------------------------------------------------

struct ChurnScore {
  double wall_s = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t subscribers = 0;
  // Deterministic outcome counters: any substrate rewrite must
  // reproduce these exactly for a given seed (see test_determinism).
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t total_link_bytes = 0;
  std::uint64_t data_delivered = 0;
  // Per-module event counts summed over all routers (the layered-stack
  // view: where the work went during the scenario).
  std::uint64_t fwd_packets = 0;       ///< ForwardingPlane inputs replicated
  std::uint64_t fwd_copies = 0;        ///< ForwardingPlane output copies
  std::uint64_t sub_subscribes = 0;    ///< SubscriptionTable joins
  std::uint64_t sub_unsubscribes = 0;  ///< SubscriptionTable leaves
  std::uint64_t counting_rounds = 0;   ///< CountingEngine rounds started
  std::uint64_t transport_messages = 0;  ///< ecmp::Transport messages sent
};

ChurnScore measure_churn(bool quick) {
  // 4-ary router tree: depth 5 => 1024 leaf routers x 10 hosts = 10240
  // receivers over 1365 routers (quick: depth 3 => 640 receivers).
  const std::uint32_t depth = quick ? 3 : 5;
  Testbed bed(workload::make_kary_tree(4, depth, {}, 10));

  const auto t0 = Clock::now();
  const scenario::ChurnOutcome outcome = scenario::run_seeded_churn(
      bed, {.seed = 42,
            .horizon = sim::seconds(30),
            .mean_lifetime = sim::seconds(15),
            .mean_offtime = sim::seconds(10),
            .period = sim::milliseconds(100),
            .bytes = 1200,
            .header = std::vector<std::uint8_t>(64, 0xCD)});

  ChurnScore score;
  score.wall_s = elapsed_s(t0);
  score.sim_events = outcome.executed_events;
  score.subscribers = bed.receiver_count();
  // The per-module blocks come straight from the metrics registry (one
  // sum per metric name instead of a per-router accessor walk); the
  // JSON keys and semantics are unchanged.
  const obs::Registry& reg = bed.net().obs().registry;
  score.packets_sent = outcome.packets_sent;
  score.bytes_sent = outcome.bytes_sent;
  score.total_link_bytes = outcome.total_link_bytes;
  score.data_delivered = reg.sum("express.host.data_received");
  score.fwd_packets = reg.sum("express.fwd.data_packets_forwarded");
  score.fwd_copies = reg.sum("express.fwd.data_copies_sent");
  score.sub_subscribes = reg.sum("express.sub.subscribe_events");
  score.sub_unsubscribes = reg.sum("express.sub.unsubscribe_events");
  score.counting_rounds = reg.sum("express.counting.rounds_started");
  score.transport_messages = reg.sum("ecmp.transport.counts_sent") +
                             reg.sum("ecmp.transport.queries_sent") +
                             reg.sum("ecmp.transport.responses_sent");
  return score;
}

// ---------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------

void write_json(const std::string& path, bool quick, const SchedulerScore& nw,
                const FibScore& fib, const FanoutScore& fan, const ChurnScore& churn) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_core: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_core\",\n");
  std::fprintf(f, "  \"version\": 1,\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"scheduler\": {\n");
  std::fprintf(f, "    \"events_per_sec\": %.0f,\n", nw.events_per_sec);
  std::fprintf(f, "    \"events\": %llu\n",
               static_cast<unsigned long long>(nw.fired));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fib\": {\n");
  std::fprintf(f, "    \"entries\": %llu,\n",
               static_cast<unsigned long long>(fib.entries));
  std::fprintf(f, "    \"lookups_per_sec\": %.0f\n", fib.lookups_per_sec);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fanout\": {\n");
  std::fprintf(f, "    \"ns_per_hop\": %.1f,\n", fan.ns_per_hop);
  std::fprintf(f, "    \"hops\": %llu,\n",
               static_cast<unsigned long long>(fan.hops));
  std::fprintf(f, "    \"sends\": %llu\n",
               static_cast<unsigned long long>(fan.packets));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"churn\": {\n");
  std::fprintf(f, "    \"subscribers\": %llu,\n",
               static_cast<unsigned long long>(churn.subscribers));
  std::fprintf(f, "    \"wall_s\": %.3f,\n", churn.wall_s);
  std::fprintf(f, "    \"sim_events\": %llu,\n",
               static_cast<unsigned long long>(churn.sim_events));
  std::fprintf(f, "    \"packets_sent\": %llu,\n",
               static_cast<unsigned long long>(churn.packets_sent));
  std::fprintf(f, "    \"bytes_sent\": %llu,\n",
               static_cast<unsigned long long>(churn.bytes_sent));
  std::fprintf(f, "    \"total_link_bytes\": %llu,\n",
               static_cast<unsigned long long>(churn.total_link_bytes));
  std::fprintf(f, "    \"data_delivered\": %llu\n",
               static_cast<unsigned long long>(churn.data_delivered));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"modules\": {\n");
  std::fprintf(f, "    \"forwarding_packets\": %llu,\n",
               static_cast<unsigned long long>(churn.fwd_packets));
  std::fprintf(f, "    \"forwarding_copies\": %llu,\n",
               static_cast<unsigned long long>(churn.fwd_copies));
  std::fprintf(f, "    \"subscription_subscribes\": %llu,\n",
               static_cast<unsigned long long>(churn.sub_subscribes));
  std::fprintf(f, "    \"subscription_unsubscribes\": %llu,\n",
               static_cast<unsigned long long>(churn.sub_unsubscribes));
  std::fprintf(f, "    \"counting_rounds\": %llu,\n",
               static_cast<unsigned long long>(churn.counting_rounds));
  std::fprintf(f, "    \"transport_messages\": %llu\n",
               static_cast<unsigned long long>(churn.transport_messages));
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("  wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace express::bench;
  bool quick = false;
  std::string out = "BENCH_core.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --out requires a path\n");
        return 2;
      }
      out = argv[++i];
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\nusage: %s [--quick] [--out <path>]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }

  banner("CORE", "simulator substrate: scheduler, fan-out, churn");

  const std::uint64_t sched_events = quick ? 200'000 : 2'000'000;
  measure_scheduler(sched_events / 8);     // warm up caches/allocator
  // Keep the best round, so a noisy neighbor or a thermal dip cannot
  // drag the number down.
  SchedulerScore nw;
  for (int round = 0; round < (quick ? 1 : 3); ++round) {
    const SchedulerScore a = measure_scheduler(sched_events);
    if (a.events_per_sec > nw.events_per_sec) nw = a;
  }

  const FibScore fib = measure_fib(quick);
  const FanoutScore fan = measure_fanout(quick ? 200 : 2000);
  const ChurnScore churn = measure_churn(quick);

  Table table({"section", "metric", "value"});
  table.row({"scheduler", "events/sec", fmt(nw.events_per_sec / 1e6, 2) + "M"});
  table.row({"fib", "lookups/sec", fmt(fib.lookups_per_sec / 1e6, 2) + "M"});
  table.row({"fanout", "ns/hop", fmt(fan.ns_per_hop, 1)});
  table.row({"fanout", "hops", fmt_int(fan.hops)});
  table.row({"churn", "subscribers", fmt_int(churn.subscribers)});
  table.row({"churn", "wall s", fmt(churn.wall_s, 3)});
  table.row({"churn", "sim events", fmt_int(churn.sim_events)});
  table.row({"churn", "packets_sent", fmt_int(churn.packets_sent)});
  table.row({"churn", "bytes_sent", fmt_int(churn.bytes_sent)});
  table.row({"churn", "data_delivered", fmt_int(churn.data_delivered)});
  table.row({"modules", "forwarding copies", fmt_int(churn.fwd_copies)});
  table.row({"modules", "subscription churn",
             fmt_int(churn.sub_subscribes + churn.sub_unsubscribes)});
  table.row({"modules", "transport messages",
             fmt_int(churn.transport_messages)});
  table.print();
  note("regressions are judged against the committed BENCH_core.json");
  note("(scripts/bench_gate.sh).");

  write_json(out, quick, nw, fib, fan, churn);
  return 0;
}
