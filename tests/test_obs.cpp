// The observability plane (DESIGN.md §11): metrics registry semantics,
// the trace ring, and the two guarantees the metric tables rest on —
//   1. every stats() view reads back field for field as the registry
//      metric an independent oracle names, for every module instance,
//      after scenarios that move every field and tell every pair of
//      fields apart; and the (name, kind) inventory is pinned, and
//   2. identically-seeded runs serialize byte-identical metrics
//      snapshots and trace JSONL, while different seeds diverge.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "audit/invariants.hpp"
#include "baseline/cbt.hpp"
#include "baseline/dvmrp.hpp"
#include "baseline/group_host.hpp"
#include "baseline/pim_sm.hpp"
#include "group_net.hpp"
#include "net/lan.hpp"
#include "obs/obs.hpp"
#include "relay/participant.hpp"
#include "relay/session_relay.hpp"
#include "sim/random.hpp"
#include "testbed/scenario.hpp"
#include "workload/chaos.hpp"
#include "workload/topo_gen.hpp"

namespace express {
namespace {

using test::GroupNet;
using test::run_group_scenario;

// ---------------------------------------------------------------------
// Registry units
// ---------------------------------------------------------------------

/// A module-shaped stats block for the registry unit tests.
struct ProbeStats {
  std::uint64_t hits = 0;
  std::uint64_t peak = 0;
  std::uint64_t unbound = 0;  ///< in the block but in no table row
};

ProbeStats* bind_probe(obs::Registry& reg, obs::Entity entity) {
  return reg.bind<ProbeStats>(
      entity, {{&ProbeStats::hits, "test.hits"},
               {&ProbeStats::peak, "test.peak", obs::MetricKind::kGauge}});
}

TEST(ObsRegistry, CounterRoundTrip) {
  obs::Registry reg;
  ProbeStats* stats = bind_probe(reg, obs::Entity::router(3));
  ++stats->hits;
  stats->hits += 4;
  stats->unbound = 9;
  EXPECT_EQ(reg.value("test.hits", obs::Entity::router(3)), 5u);
  EXPECT_EQ(reg.value("test.hits", obs::Entity::router(4)), 0u);
  EXPECT_EQ(reg.value("test.absent", obs::Entity::router(3)), 0u);
  EXPECT_EQ(reg.size(), 2u);  // one entry per row, none for `unbound`
}

TEST(ObsRegistry, SumAggregatesOverEntities) {
  obs::Registry reg;
  bind_probe(reg, obs::Entity::router(1))->hits = 10;
  bind_probe(reg, obs::Entity::router(2))->hits = 32;
  ProbeStats* host = bind_probe(reg, obs::Entity::host(1));
  host->hits = 100;
  host->peak = 7;
  EXPECT_EQ(reg.sum("test.hits"), 142u);
  EXPECT_EQ(reg.sum("test.peak"), 7u);
  EXPECT_EQ(reg.sum("test.absent"), 0u);
}

TEST(ObsRegistry, ReRegistrationZeroesTheSlot) {
  // A fresh module instance re-registering its metrics starts from
  // zero — stale values must not leak across e.g. testbed rebuilds —
  // while the instance it replaced keeps a valid block to write into.
  obs::Registry reg;
  ProbeStats* old_stats = bind_probe(reg, obs::Entity::router(1));
  old_stats->hits = 9;
  ProbeStats* again = bind_probe(reg, obs::Entity::router(1));
  EXPECT_EQ(again->hits, 0u);
  EXPECT_EQ(reg.value("test.hits", obs::Entity::router(1)), 0u);
  EXPECT_EQ(reg.size(), 2u);
  ++old_stats->hits;  // the replaced block stays writable, unpublished
  ++again->hits;
  EXPECT_EQ(reg.value("test.hits", obs::Entity::router(1)), 1u);
}

TEST(ObsRegistry, GaugeSetMaxIsAHighWaterMark) {
  // A gauge row publishes whatever the module writes; a high-water
  // mark is a max-write into the block, read back through the registry
  // and tagged as a gauge in the snapshot.
  obs::Registry reg;
  ProbeStats* stats = bind_probe(reg, obs::Entity::network());
  for (std::uint64_t v : {5u, 3u}) stats->peak = std::max(stats->peak, v);
  EXPECT_EQ(reg.value("test.peak", obs::Entity::network()), 5u);
  stats->peak = 2;
  EXPECT_EQ(reg.value("test.peak", obs::Entity::network()), 2u);
  const std::string snap = reg.snapshot_json(sim::Time{});
  EXPECT_NE(snap.find("{\"entity\":\"net\",\"kind\":\"gauge\","
                      "\"name\":\"test.peak\",\"value\":2}"),
            std::string::npos);
  EXPECT_NE(snap.find("\"kind\":\"counter\",\"name\":\"test.hits\""),
            std::string::npos);
}

TEST(ObsRegistry, HistogramBucketsByBitWidth) {
  obs::Registry reg;
  obs::Histogram h = reg.histogram("test.latency", obs::Entity::router(1));
  h.observe(0);   // bucket 0
  h.observe(1);   // bucket 1
  h.observe(2);   // bucket 2: [2, 4)
  h.observe(3);   // bucket 2
  h.observe(4);   // bucket 3: [4, 8)
  const obs::HistogramData& d = h.data();
  EXPECT_EQ(d.count, 5u);
  EXPECT_EQ(d.sum, 10u);
  EXPECT_EQ(d.buckets[0], 1u);
  EXPECT_EQ(d.buckets[1], 1u);
  EXPECT_EQ(d.buckets[2], 2u);
  EXPECT_EQ(d.buckets[3], 1u);
  // Histograms are not scalars: value()/sum() skip them.
  EXPECT_EQ(reg.value("test.latency", obs::Entity::router(1)), 0u);
  EXPECT_EQ(reg.sum("test.latency"), 0u);
}

/// The reference the registry is checked against: one std::map entry
/// per (name, entity), pointing at the published field or histogram.
struct ModelEntry {
  obs::MetricKind kind = obs::MetricKind::kCounter;
  const std::uint64_t* value = nullptr;
  const obs::HistogramData* hist = nullptr;
};
using RegistryModel =
    std::map<std::pair<std::string, obs::Entity>, ModelEntry>;

/// snapshot_json() as the map-ordered model renders it.
std::string model_snapshot(const RegistryModel& model, sim::Time at) {
  std::string out = "{\n\"metrics\": [";
  bool first = true;
  for (const auto& [key, e] : model) {
    out += first ? "\n" : ",\n";
    first = false;
    const std::string entity = key.second.to_string();
    if (e.kind == obs::MetricKind::kHistogram) {
      out += "{\"buckets\":[";
      for (std::size_t i = 0; i < e.hist->buckets.size(); ++i) {
        out += (i != 0 ? "," : "") + std::to_string(e.hist->buckets[i]);
      }
      out += "],\"count\":" + std::to_string(e.hist->count) +
             ",\"entity\":\"" + entity +
             "\",\"kind\":\"histogram\",\"name\":\"" + key.first +
             "\",\"sum\":" + std::to_string(e.hist->sum) + "}";
    } else {
      out += "{\"entity\":\"" + entity + "\",\"kind\":\"" +
             (e.kind == obs::MetricKind::kGauge ? "gauge" : "counter") +
             "\",\"name\":\"" + key.first +
             "\",\"value\":" + std::to_string(*e.value) + "}";
    }
  }
  return out + "\n],\n\"sim_time_ns\": " + std::to_string(at.count()) +
         "\n}\n";
}

TEST(ObsRegistry, MatchesAMapModelOnSeededBindSequences) {
  // Seeded random bind / re-bind / histogram sequences over every
  // entity kind, with ids past 10^6 and names that are byte-prefixes of
  // each other. size(), value() and sum() must agree with the map
  // model at every step, and snapshot_json() byte for byte every 25.
  const std::vector<std::string> names = {
      "a.b", "a.b.c", "a.b_c", "a.bc", "a", "a.b.", "b", "a.b.c.d"};
  const std::vector<std::uint32_t> ids = {0, 1, 2, 7, 1'000'000, 1'000'001,
                                          4'294'967'295u};
  const std::vector<std::uint64_t ProbeStats::*> fields = {
      &ProbeStats::hits, &ProbeStats::peak, &ProbeStats::unbound};
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    sim::Rng rng(seed);
    const auto pick = [&rng](const auto& v) -> const auto& {
      return v[rng.below(static_cast<std::uint32_t>(v.size()))];
    };
    const auto entity = [&] {
      return obs::Entity{static_cast<obs::EntityKind>(rng.below(8)), pick(ids)};
    };
    obs::Registry reg;
    RegistryModel model;
    std::vector<ProbeStats*> blocks;  // replaced ones included
    std::vector<obs::Histogram> hists;
    for (int step = 0; step < 300; ++step) {
      const std::uint32_t op = rng.below(10);
      if (op < 4) {  // bind (a re-bind when the entity already has the name)
        const obs::Entity e = entity();
        std::vector<obs::Metric<ProbeStats>> rows;
        for (std::uint32_t r = 0, n = 1 + rng.below(3); r < n; ++r) {
          rows.push_back({pick(fields), pick(names),
                          rng.chance(0.3) ? obs::MetricKind::kGauge
                                          : obs::MetricKind::kCounter});
        }
        ProbeStats* block = nullptr;
        if (rows.size() == 1) {
          block = reg.bind<ProbeStats>(e, {rows[0]});
        } else if (rows.size() == 2) {
          block = reg.bind<ProbeStats>(e, {rows[0], rows[1]});
        } else {
          block = reg.bind<ProbeStats>(e, {rows[0], rows[1], rows[2]});
        }
        EXPECT_EQ(block->hits + block->peak + block->unbound, 0u);
        for (const auto& row : rows) {
          model[{std::string(row.name), e}] = {row.kind, &(block->*row.field),
                                               nullptr};
        }
        blocks.push_back(block);
      } else if (op < 5) {  // histogram (re-)registration
        const obs::Entity e = entity();
        const std::string& name = pick(names);
        hists.push_back(reg.histogram(name, e));
        EXPECT_EQ(hists.back().data().count, 0u);
        model[{name, e}] = {obs::MetricKind::kHistogram, nullptr,
                            &hists.back().data()};
      } else if (op < 8 && !blocks.empty()) {  // write any block, live or not
        pick(blocks)->*pick(fields) = rng.below(1'000'000);
      } else if (!hists.empty()) {
        pick(hists).observe(rng.next_u64() >> rng.below(64));
      }

      ASSERT_EQ(reg.size(), model.size())
          << "seed " << seed << " step " << step;
      const obs::Entity probe = entity();
      const std::string& name = pick(names);
      const auto it = model.find({name, probe});
      const std::uint64_t expect =
          it == model.end() || it->second.value == nullptr ? 0
                                                           : *it->second.value;
      EXPECT_EQ(reg.value(name, probe), expect)
          << name << " " << probe.to_string();
      std::uint64_t total = 0;
      for (const auto& [key, e] : model) {
        if (key.first == name && e.value != nullptr) total += *e.value;
      }
      EXPECT_EQ(reg.sum(name), total) << name;
      if (step % 25 == 24) {
        const sim::Time at = sim::milliseconds(step);
        ASSERT_EQ(reg.snapshot_json(at), model_snapshot(model, at))
            << "seed " << seed << " step " << step;
      }
    }
    EXPECT_EQ(reg.value("a.b.c.d.e", obs::Entity::router(1)), 0u);
    EXPECT_EQ(reg.sum("a.b.c.d.e"), 0u);
  }
}

// ---------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------

TEST(ObsTrace, DisabledTraceRecordsNothing) {
  obs::Trace trace;
  trace.emit(sim::seconds(1), obs::Entity::router(1),
             obs::TraceType::kTimerFire, 42);
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.next_index(), 0u);
}

TEST(ObsTrace, RingOverwritesOldestButIndexKeepsGrowing) {
  obs::Trace trace;
  trace.enable(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    trace.emit(sim::Time{} + sim::milliseconds(i), obs::Entity::router(1),
               obs::TraceType::kTimerFire, i);
  }
  EXPECT_EQ(trace.next_index(), 6u);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.at(0).index, 2u);  // oldest retained
  EXPECT_EQ(trace.at(3).index, 5u);  // newest
}

TEST(ObsTrace, FilteredExportAfterWraparoundDropsExactlyTheOverwrittenPrefix) {
  // Pin the wraparound arithmetic the repair-path analysis leans on:
  // after the ring wraps, at(i) walks oldest-to-newest with strictly
  // monotone global indices, and a filtered export sees exactly the
  // retained suffix — no resurrected overwritten records, no holes.
  obs::Trace trace;
  trace.enable(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    // Alternate type and entity so the filters have something to split.
    trace.emit(sim::Time{} + sim::milliseconds(i),
               obs::Entity::router(static_cast<std::uint32_t>(i % 2)),
               i % 2 == 0 ? obs::TraceType::kPacketSent
                          : obs::TraceType::kRetransmit,
               i);
  }
  EXPECT_EQ(trace.next_index(), 20u);
  ASSERT_EQ(trace.size(), 8u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace.at(i).index, 12u + i);  // records 0..11 overwritten
    EXPECT_EQ(trace.at(i).a, 12u + i);      // payload moved with the index
  }
  obs::TraceFilter retransmits;
  retransmits.type = obs::TraceType::kRetransmit;
  // Retained indices 12..19 hold four odd (kRetransmit) records.
  EXPECT_EQ(trace.count(retransmits), 4u);
  const std::string jsonl = trace.to_jsonl(retransmits);
  std::size_t lines = 0;
  for (char c : jsonl) lines += c == '\n';
  EXPECT_EQ(lines, 4u);
  EXPECT_EQ(jsonl.find("\"index\":11"), std::string::npos);  // overwritten
  EXPECT_NE(jsonl.find("\"index\":13"), std::string::npos);  // oldest odd kept
  EXPECT_NE(jsonl.find("\"index\":19"), std::string::npos);  // newest
  // Export order is oldest first even across the wrap seam.
  EXPECT_LT(jsonl.find("\"index\":13"), jsonl.find("\"index\":19"));
}

TEST(ObsTrace, FilterByEntityAndType) {
  obs::Trace trace;
  trace.enable(16);
  trace.emit(sim::seconds(1), obs::Entity::router(1),
             obs::TraceType::kTimerFire);
  trace.emit(sim::seconds(2), obs::Entity::router(2),
             obs::TraceType::kTimerFire);
  trace.emit(sim::seconds(3), obs::Entity::router(1),
             obs::TraceType::kPacketSent);
  obs::TraceFilter by_entity;
  by_entity.entity = obs::Entity::router(1);
  EXPECT_EQ(trace.count(by_entity), 2u);
  obs::TraceFilter by_type;
  by_type.type = obs::TraceType::kTimerFire;
  EXPECT_EQ(trace.count(by_type), 2u);
  by_entity.type = obs::TraceType::kPacketSent;
  EXPECT_EQ(trace.count(by_entity), 1u);
}

TEST(ObsTrace, JsonlIsCanonical) {
  obs::Trace trace;
  trace.enable(4);
  trace.emit(sim::milliseconds(5), obs::Entity::router(7),
             obs::TraceType::kTimerFire, 1, 2, 3);
  EXPECT_EQ(trace.to_jsonl(),
            "{\"a\":1,\"b\":2,\"c\":3,\"entity\":\"router:7\",\"index\":0,"
            "\"time_ns\":5000000,\"type\":\"timer_fire\"}\n");
}

// ---------------------------------------------------------------------
// Views over the registry: every stats() field reads back as its metric
// ---------------------------------------------------------------------

/// Every field of a stats view paired with the metric it must read back
/// as. Written out here, independently of the module's bind() table, so
/// a swapped, missing or misnamed row in that table is a mismatch.
template <class S>
using FieldNames = std::vector<std::pair<std::uint64_t S::*, std::string>>;

/// Compares stats() views of one module type with the registry and
/// records what the scenario exercised: a row naming the wrong field is
/// visible only where the two fields differ, and a missing row only
/// where its field is non-zero.
template <class S>
class ViewCheck {
 public:
  explicit ViewCheck(FieldNames<S> fields)
      : fields_(std::move(fields)),
        nonzero_(fields_.size()),
        apart_(fields_.size() * fields_.size()) {}

  void check(const obs::Registry& reg, obs::Entity entity, const S& view) {
    const std::size_t n = fields_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t v = view.*fields_[i].first;
      EXPECT_EQ(v, reg.value(fields_[i].second, entity))
          << fields_[i].second << " @ " << entity.to_string();
      if (v != 0) nonzero_[i] = true;
      for (std::size_t j = 0; j < n; ++j) {
        if (v != view.*fields_[j].first) apart_[i * n + j] = true;
      }
    }
    ++instances_;
  }

  /// Every field moved in some instance and every pair of fields held
  /// different values in some instance, so no swap or omission in the
  /// module's table could have passed check().
  void expect_every_row_exercised() const {
    ASSERT_GT(instances_, 0u);
    const std::size_t n = fields_.size();
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(nonzero_[i]) << fields_[i].second << " never moved";
      for (std::size_t j = i + 1; j < n; ++j) {
        EXPECT_TRUE(apart_[i * n + j])
            << fields_[i].second << " == " << fields_[j].second
            << " in every instance";
      }
    }
  }

 private:
  FieldNames<S> fields_;
  std::vector<bool> nonzero_;
  std::vector<bool> apart_;
  std::size_t instances_ = 0;
};

ViewCheck<RouterStats> router_check() {
  return ViewCheck<RouterStats>({
      {&RouterStats::subscribe_events, "express.sub.subscribe_events"},
      {&RouterStats::unsubscribe_events, "express.sub.unsubscribe_events"},
      {&RouterStats::joins_sent, "express.sub.joins_sent"},
      {&RouterStats::prunes_sent, "express.sub.prunes_sent"},
      {&RouterStats::auth_rejects, "express.sub.auth_rejects"},
      {&RouterStats::key_registrations, "express.sub.key_registrations"},
      {&RouterStats::counts_sent, "ecmp.transport.counts_sent"},
      {&RouterStats::counts_received, "ecmp.transport.counts_received"},
      {&RouterStats::queries_sent, "ecmp.transport.queries_sent"},
      {&RouterStats::queries_received, "ecmp.transport.queries_received"},
      {&RouterStats::responses_sent, "ecmp.transport.responses_sent"},
      {&RouterStats::responses_received,
       "ecmp.transport.responses_received"},
      {&RouterStats::control_bytes_sent,
       "ecmp.transport.control_bytes_sent"},
      {&RouterStats::control_bytes_received,
       "ecmp.transport.control_bytes_received"},
      {&RouterStats::data_packets_forwarded,
       "express.fwd.data_packets_forwarded"},
      {&RouterStats::data_copies_sent, "express.fwd.data_copies_sent"},
      {&RouterStats::subcasts_relayed, "express.fwd.subcasts_relayed"},
      {&RouterStats::proactive_updates_sent,
       "express.counting.proactive_updates_sent"},
      {&RouterStats::unresolved_neighbor_updates,
       "express.router.unresolved_neighbor_updates"},
  });
}

ViewCheck<CountingStats> counting_check() {
  return ViewCheck<CountingStats>({
      {&CountingStats::rounds_started, "express.counting.rounds_started"},
      {&CountingStats::rounds_completed, "express.counting.rounds_completed"},
      {&CountingStats::rounds_timed_out, "express.counting.rounds_timed_out"},
      {&CountingStats::proactive_updates_sent,
       "express.counting.proactive_updates_sent"},
  });
}

ViewCheck<FibStats> fib_check() {
  return ViewCheck<FibStats>({
      {&FibStats::lookups, "express.fib.lookups"},
      {&FibStats::hits, "express.fib.hits"},
      {&FibStats::no_entry_drops, "express.fib.no_entry_drops"},
      {&FibStats::rpf_drops, "express.fib.rpf_drops"},
      {&FibStats::entries, "express.fib.entries"},
  });
}

ViewCheck<HostStats> host_check() {
  return ViewCheck<HostStats>({
      {&HostStats::data_received, "express.host.data_received"},
      {&HostStats::data_sent, "express.host.data_sent"},
      {&HostStats::unwanted_data, "express.host.unwanted_data"},
      {&HostStats::counts_sent, "express.host.counts_sent"},
      {&HostStats::queries_answered, "express.host.queries_answered"},
      {&HostStats::control_bytes_sent, "express.host.control_bytes_sent"},
  });
}

ViewCheck<net::NetworkStats> network_check() {
  return ViewCheck<net::NetworkStats>({
      {&net::NetworkStats::packets_sent, "net.packets_sent"},
      {&net::NetworkStats::bytes_sent, "net.bytes_sent"},
      {&net::NetworkStats::packets_dropped_link_down, "net.drop.link_down"},
      {&net::NetworkStats::packets_dropped_no_route, "net.drop.no_route"},
      {&net::NetworkStats::packets_dropped_ttl, "net.drop.ttl"},
      {&net::NetworkStats::packets_dropped_loss, "net.drop.loss"},
      {&net::NetworkStats::packets_reordered, "net.reordered"},
  });
}

ViewCheck<net::LinkStats> link_check() {
  return ViewCheck<net::LinkStats>({
      {&net::LinkStats::packets, "net.link.packets"},
      {&net::LinkStats::bytes, "net.link.bytes"},
  });
}

/// SchedulerStats' occupancy fields (pending, slab_slots, free_slots)
/// are read live and published nowhere.
ViewCheck<sim::SchedulerStats> scheduler_check() {
  return ViewCheck<sim::SchedulerStats>({
      {&sim::SchedulerStats::scheduled, "sim.sched.scheduled"},
      {&sim::SchedulerStats::executed, "sim.sched.executed"},
      {&sim::SchedulerStats::cancelled, "sim.sched.cancelled"},
      {&sim::SchedulerStats::clamped_past_events, "sim.sched.clamped_past"},
      {&sim::SchedulerStats::peak_pending, "sim.sched.peak_pending"},
  });
}

/// A channel data packet as the source would emit it.
net::Packet channel_packet(const ip::ChannelId& channel, std::uint64_t seq) {
  net::Packet p;
  p.src = channel.source;
  p.dst = channel.dest;
  p.data_bytes = 100;
  p.sequence = seq;
  return p;
}

/// Seeded churn plus one deliberate hit on every EXPRESS-stack counter
/// the churn alone leaves at zero: an authenticated channel (one bad
/// key, one good), a count round that times out behind a dying link, a
/// subcast, hand-made unwanted / RPF-failing / unroutable / TTL-expiring
/// packets, a lossy and a reordering link, proactive updates, and
/// scheduler cancels and clamps.
void run_express_scenario(Testbed& bed) {
  net::Network& net = bed.net();
  const net::Topology& topo = net.topology();
  sim::Scheduler& sched = net.scheduler();
  const auto& roles = bed.roles();
  const sim::Duration horizon = scenario::SeededChurn{}.horizon;
  scenario::schedule_seeded_churn(bed);
  // Lossy and reordering links on the way down to two leaves.
  const auto leaf_link = [&](std::size_t receiver) {
    return topo.port(roles.receiver_hosts.at(receiver), 0).link;
  };
  net::ImpairmentConfig lossy;
  lossy.loss.kind = net::LossModel::Kind::kBernoulli;
  lossy.loss.p = 0.5;
  net.set_link_impairments(leaf_link(1), lossy);
  net::ImpairmentConfig reorder;
  reorder.reorder_p = 1.0;
  net.set_link_impairments(leaf_link(2), reorder);
  net.seed_impairments(11);
  for (int i = 0; i < 3; ++i) {
    sim::EventHandle h = sched.schedule_after(horizon * 2, [] {});
    h.cancel();
  }
  bed.run_for(horizon);
  // Data with no tree: the first-hop router has no FIB entry for it.
  bed.source().send(bed.source().allocate_channel(), 100, 0);

  // Authenticated channel: key registration, a rejected and an accepted
  // join (the verdicts travel back as CountResponses).
  const ip::ChannelId secure = bed.source().allocate_channel();
  bed.source().channel_key(secure, 0xC0FFEE);
  bed.run_for(sim::seconds(1));
  for (std::size_t i = 0; i < bed.receiver_count(); i += 2) {
    bed.receiver(i).new_subscription(secure, i % 4 == 0 ? 0xBAD : 0xC0FFEE);
  }
  bed.run_for(sim::seconds(1));
  for (std::uint64_t s = 0; s < 4; ++s) bed.source().send(secure, 300, s);
  bed.source().subcast(secure, topo.address(roles.routers.at(1)), 200);
  bed.source().count_query(secure, ecmp::kSubscriberId, sim::seconds(1),
                           [](CountResult) {});
  bed.run_for(sim::seconds(2));

  // Hand-made packets: channel data to a host that never subscribed,
  // data arriving at the root from a child (not the RPF interface),
  // unicast to nowhere, and unicast whose TTL runs out.
  const net::NodeId bystander = roles.receiver_hosts.at(3);
  net.send_to_neighbor(topo.neighbor_via(bystander, 0), bystander,
                       channel_packet(bed.source().allocate_channel(), 1));
  const net::NodeId child = roles.routers.at(1);
  for (std::uint64_t s = 0; s < 2; ++s) {
    net.send_to_neighbor(child, roles.source_router, channel_packet(secure, s));
  }
  net::Packet nowhere;
  nowhere.src = bed.source().address();
  nowhere.dst = ip::Address(203, 0, 113, 9);
  for (int i = 0; i < 6; ++i) net.send_unicast(roles.source_host, nowhere);
  net::Packet short_lived;
  short_lived.src = bed.source().address();
  short_lived.dst = bed.receiver(bed.receiver_count() - 1).address();
  short_lived.ttl = 1;
  for (int i = 0; i < 4; ++i) net.send_unicast(roles.source_host, short_lived);
  // A scheduling bug the clamp repairs (and counts).
  for (int i = 0; i < 5; ++i) sched.schedule_at(sim::Time{}, [] {});
  bed.run_for(sim::seconds(1));

  // A join whose answer is still on its way back, and a count round
  // whose reply path dies, when a root link fails: the root times out,
  // and what it sends down that link is dropped.
  bed.receiver(bed.receiver_count() - 1)
      .new_subscription(bed.source().allocate_channel());
  bed.run_for(sim::milliseconds(15));
  const net::NodeId right = roles.routers.at(2);
  const net::LinkId cut =
      topo.port(roles.source_router,
                *topo.interface_to(roles.source_router, right))
          .link;
  bed.source_router().initiate_count(secure, ecmp::kSubscriberId,
                                     sim::milliseconds(500),
                                     [](CountResult) {});
  net.set_link_up(cut, false);
  net.send_to_neighbor(roles.source_router, right, channel_packet(secure, 9));
  bed.run_for(sim::seconds(3));
}

TEST(ObsViews, RouterStatsEqualsRegistrySlotsAfterSeededChurn) {
  // Every field of every EXPRESS-stack stats() view equals its registry
  // slot, for every instance, after a scenario that moves every field.
  RouterConfig config;
  config.proactive = counting::CurveParams{0.3, 5.0, 4.0};
  Testbed bed(scenario::capture_tree(), config);
  run_express_scenario(bed);

  const obs::Registry& reg = bed.net().obs().registry;
  auto routers = router_check();
  auto counting = counting_check();
  auto fibs = fib_check();
  for (std::size_t i = 0; i < bed.router_count(); ++i) {
    const ExpressRouter& r = bed.router(i);
    const obs::Entity e = obs::Entity::router(r.id());
    routers.check(reg, e, r.stats());
    counting.check(reg, e, r.counting_stats());
    fibs.check(reg, e, r.fib().stats());
  }

  // The one counter a tree cannot move: a UDP-mode LAN member whose hub
  // link dies before its neighbor-death update fires.
  net::Topology topo;
  const net::NodeId core = topo.add_router();
  const net::NodeId edge = topo.add_router();
  topo.add_link(core, edge, sim::milliseconds(1));
  const net::NodeId src = topo.add_host();
  topo.add_link(core, src, sim::milliseconds(1));
  const net::LanSegment lan = net::add_lan_segment(topo, edge, 2);
  net::Network lan_net(std::move(topo));
  RouterConfig udp;
  udp.udp_query_interval = sim::seconds(5);
  ExpressRouter* lan_core = &lan_net.attach<ExpressRouter>(core, udp);
  ExpressRouter* lan_edge = &lan_net.attach<ExpressRouter>(edge, udp);
  lan_net.attach<net::LanHub>(lan.hub);
  ExpressHost& lan_src = lan_net.attach<ExpressHost>(src);
  ExpressHost& member = lan_net.attach<ExpressHost>(lan.hosts[0]);
  lan_net.attach<ExpressHost>(lan.hosts[1]);
  lan_edge->set_interface_mode(1, ecmp::Mode::kUdp);
  member.new_subscription(lan_src.allocate_channel());
  lan_net.run_until(sim::seconds(1));
  const net::Topology& lan_topo = lan_net.topology();
  lan_net.set_link_up(
      lan_topo.port(lan.hub, *lan_topo.interface_to(lan.hub, lan.hosts[0]))
          .link,
      false);
  lan_net.run_until(sim::seconds(2));
  for (const ExpressRouter* r : {lan_core, lan_edge}) {
    routers.check(lan_net.obs().registry, obs::Entity::router(r->id()),
                  r->stats());
  }
  routers.expect_every_row_exercised();
  counting.expect_every_row_exercised();
  fibs.expect_every_row_exercised();

  auto hosts = host_check();
  hosts.check(reg, obs::Entity::host(bed.source().id()), bed.source().stats());
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    const ExpressHost& h = bed.receiver(i);
    hosts.check(reg, obs::Entity::host(h.id()), h.stats());
  }
  hosts.expect_every_row_exercised();

  auto network = network_check();
  network.check(reg, obs::Entity::network(), bed.net().stats());
  network.expect_every_row_exercised();
  auto links = link_check();
  for (net::LinkId l = 0; l < bed.net().topology().link_count(); ++l) {
    links.check(reg, obs::Entity::link(l), bed.net().link_stats(l));
  }
  links.expect_every_row_exercised();
  auto scheduler = scheduler_check();
  scheduler.check(reg, obs::Entity::network(), bed.net().scheduler().stats());
  scheduler.expect_every_row_exercised();

  // And the cross-instance sums the benches publish match registry sums.
  std::uint64_t fwd = 0;
  std::uint64_t link_bytes = 0;
  for (std::size_t i = 0; i < bed.router_count(); ++i) {
    fwd += bed.router(i).stats().data_packets_forwarded;
  }
  for (net::LinkId l = 0; l < bed.net().topology().link_count(); ++l) {
    link_bytes += bed.net().link_stats(l).bytes;
  }
  EXPECT_EQ(fwd, reg.sum("express.fwd.data_packets_forwarded"));
  EXPECT_EQ(link_bytes, reg.sum("net.link.bytes"));
  EXPECT_EQ(link_bytes, bed.net().total_link_bytes());
}

TEST(ObsViews, BaselineRelaySchedulerAndFibStatsEqualRegistrySlots) {
  auto groups = ViewCheck<baseline::GroupHostStats>({
      {&baseline::GroupHostStats::data_received,
       "baseline.group_host.data_received"},
      {&baseline::GroupHostStats::data_filtered,
       "baseline.group_host.data_filtered"},
      {&baseline::GroupHostStats::unwanted_data,
       "baseline.group_host.unwanted_data"},
      {&baseline::GroupHostStats::bytes_on_last_hop,
       "baseline.group_host.bytes_on_last_hop"},
      {&baseline::GroupHostStats::data_sent, "baseline.group_host.data_sent"},
  });
  const auto check_hosts = [&groups](const auto& g) {
    groups.check(g.net.obs().registry, obs::Entity::host(g.source->id()),
                 g.source->stats());
    for (const baseline::GroupHost* h : g.receivers) {
      groups.check(g.net.obs().registry, obs::Entity::host(h->id()),
                   h->stats());
    }
  };

  {
    auto topo = workload::make_kary_tree(2, 2);
    baseline::PimConfig config;
    config.rp = topo.topology.address(topo.routers[2]);
    config.spt_switchover = true;
    GroupNet<baseline::PimSmRouter> g(std::move(topo), config);
    run_group_scenario(g, ip::Protocol::kPim);
    auto pim = ViewCheck<baseline::PimStats>({
        {&baseline::PimStats::joins_star_g, "baseline.pim.joins_star_g"},
        {&baseline::PimStats::joins_sg, "baseline.pim.joins_sg"},
        {&baseline::PimStats::prunes, "baseline.pim.prunes"},
        {&baseline::PimStats::registers_sent, "baseline.pim.registers_sent"},
        {&baseline::PimStats::registers_decapsulated,
         "baseline.pim.registers_decapsulated"},
        {&baseline::PimStats::register_stops, "baseline.pim.register_stops"},
        {&baseline::PimStats::data_copies_sent,
         "baseline.pim.data_copies_sent"},
        {&baseline::PimStats::drops, "baseline.pim.drops"},
    });
    for (const auto* r : g.routers) {
      pim.check(g.net.obs().registry, obs::Entity::router(r->id()),
                r->stats());
    }
    pim.expect_every_row_exercised();
    check_hosts(g);
  }
  {
    baseline::DvmrpConfig config;
    config.prune_lifetime = sim::seconds(3);
    GroupNet<baseline::DvmrpRouter> g(workload::make_kary_tree(2, 2), config);
    run_group_scenario(g, ip::Protocol::kIgmp);
    auto dvmrp = ViewCheck<baseline::DvmrpStats>({
        {&baseline::DvmrpStats::data_packets_forwarded,
         "baseline.dvmrp.data_packets_forwarded"},
        {&baseline::DvmrpStats::data_copies_sent,
         "baseline.dvmrp.data_copies_sent"},
        {&baseline::DvmrpStats::flood_copies, "baseline.dvmrp.flood_copies"},
        {&baseline::DvmrpStats::rpf_drops, "baseline.dvmrp.rpf_drops"},
        {&baseline::DvmrpStats::prunes_sent, "baseline.dvmrp.prunes_sent"},
        {&baseline::DvmrpStats::prunes_received,
         "baseline.dvmrp.prunes_received"},
        {&baseline::DvmrpStats::grafts_sent, "baseline.dvmrp.grafts_sent"},
        {&baseline::DvmrpStats::grafts_received,
         "baseline.dvmrp.grafts_received"},
    });
    for (const auto* r : g.routers) {
      dvmrp.check(g.net.obs().registry, obs::Entity::router(r->id()),
                  r->stats());
    }
    dvmrp.expect_every_row_exercised();
    check_hosts(g);
  }
  {
    auto topo = workload::make_kary_tree(2, 2);
    baseline::CbtConfig config;
    config.core = topo.topology.address(topo.routers[2]);
    GroupNet<baseline::CbtRouter> g(std::move(topo), config);
    run_group_scenario(g, ip::Protocol::kCbt);
    auto cbt = ViewCheck<baseline::CbtStats>({
        {&baseline::CbtStats::joins_sent, "baseline.cbt.joins_sent"},
        {&baseline::CbtStats::prunes_sent, "baseline.cbt.prunes_sent"},
        {&baseline::CbtStats::data_copies_sent,
         "baseline.cbt.data_copies_sent"},
        {&baseline::CbtStats::encapsulated_to_core,
         "baseline.cbt.encapsulated_to_core"},
        {&baseline::CbtStats::decapsulated_at_core,
         "baseline.cbt.decapsulated_at_core"},
        {&baseline::CbtStats::drops, "baseline.cbt.drops"},
    });
    for (const auto* r : g.routers) {
      cbt.check(g.net.obs().registry, obs::Entity::router(r->id()),
                r->stats());
    }
    cbt.expect_every_row_exercised();
    check_hosts(g);
  }
  groups.expect_every_row_exercised();

  {
    // Session relay with floor control: relayed, unauthorized and
    // floorless frames, grants up to the per-member cap then denials,
    // heartbeats, and a participant announcing a direct channel.
    Testbed bed(workload::make_star(3, 1));
    relay::RelayConfig config;
    config.floor_control = true;
    config.max_floor_grants_per_member = 3;
    relay::SessionRelay sr(bed.source(), config);
    std::vector<std::unique_ptr<relay::Participant>> members;
    for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
      members.push_back(std::make_unique<relay::Participant>(
          bed.receiver(i), sr.channel(), bed.source().address()));
      members.back()->join();
    }
    sr.authorize(bed.receiver(0).address());
    sr.authorize(bed.receiver(1).address());
    bed.run_for(sim::seconds(1));
    sr.start();
    for (int round = 0; round < 5; ++round) {
      members[0]->request_floor();
      bed.run_for(sim::milliseconds(200));
      for (int i = 0; i < 4; ++i) members[0]->speak(100);
      members[1]->speak(100);  // no floor
      for (int i = 0; i < 2; ++i) members[2]->speak(100);  // unauthorized
      bed.run_for(sim::milliseconds(200));
      members[0]->release_floor();
      bed.run_for(sim::milliseconds(200));
    }
    members[1]->create_direct_channel();
    bed.run_for(sim::seconds(2));
    auto relays = ViewCheck<relay::RelayStats>({
        {&relay::RelayStats::frames_relayed, "relay.frames_relayed"},
        {&relay::RelayStats::dropped_unauthorized,
         "relay.dropped_unauthorized"},
        {&relay::RelayStats::dropped_no_floor, "relay.dropped_no_floor"},
        {&relay::RelayStats::floor_grants, "relay.floor_grants"},
        {&relay::RelayStats::floor_denials, "relay.floor_denials"},
        {&relay::RelayStats::heartbeats_sent, "relay.heartbeats_sent"},
        {&relay::RelayStats::channels_announced, "relay.channels_announced"},
    });
    relays.check(bed.net().obs().registry,
                 obs::Entity::relay(bed.source().id()), sr.stats());
    relays.expect_every_row_exercised();
  }

  // Standalone modules on a private plane.
  obs::Plane plane;
  {
    // scheduled 8, executed 5, cancelled 3, clamped 2, peak pending 7.
    sim::Scheduler sched(obs::Scope{&plane, obs::Entity::router(1)});
    sched.schedule_at(sim::milliseconds(10), [] {});
    sched.run();
    for (int i = 0; i < 2; ++i) sched.schedule_at(sim::milliseconds(1), [] {});
    for (int i = 0; i < 5; ++i) {
      sim::EventHandle h = sched.schedule_after(sim::seconds(1), [] {});
      if (i < 3) h.cancel();
    }
    sched.run();
    auto scheduler = scheduler_check();
    scheduler.check(plane.registry, obs::Entity::router(1), sched.stats());
    scheduler.expect_every_row_exercised();
  }
  {
    // lookups 7, hits 4, no-entry drops 1, RPF drops 2, entries 3.
    FlatFib fib(obs::Scope{&plane, obs::Entity::router(2)});
    const ip::Address source(10, 0, 0, 1);
    std::vector<ip::ChannelId> channels;
    for (std::uint8_t i = 1; i <= 4; ++i) {
      channels.push_back({source, ip::Address(232, 0, 0, i)});
      fib.upsert(channels.back()).iif = 1;
    }
    fib.erase(channels.back());
    for (int i = 0; i < 4; ++i) (void)fib.lookup(channels[0], 1);
    (void)fib.lookup(channels.back(), 1);
    for (int i = 0; i < 2; ++i) (void)fib.lookup(channels[1], 2);
    auto fibs = fib_check();
    fibs.check(plane.registry, obs::Entity::router(2), fib.stats());
    fibs.expect_every_row_exercised();
  }
}

/// The (name, kind) pairs a registry snapshot lists: every entry, scalar
/// or histogram, carries `"kind":"<kind>","name":"<name>"`.
void collect_inventory(const obs::Plane& plane,
                       std::set<std::pair<std::string, std::string>>& out) {
  const std::string snap = plane.registry.snapshot_json(sim::Time{});
  const std::string kind_key = "\"kind\":\"";
  const std::string name_key = "\",\"name\":\"";
  for (std::size_t at = snap.find(kind_key); at != std::string::npos;
       at = snap.find(kind_key, at)) {
    const std::size_t kind = at + kind_key.size();
    const std::size_t kind_end = snap.find(name_key, kind);
    const std::size_t name = kind_end + name_key.size();
    at = snap.find('"', name);
    out.emplace(snap.substr(name, at - name),
                snap.substr(kind, kind_end - kind));
  }
}

TEST(ObsViews, MetricInventoryIsPinned) {
  // Every metric every module registers, with its kind, as recorded
  // before the modules' tables replaced per-metric registration calls.
  std::set<std::pair<std::string, std::string>> inventory;
  Testbed bed(workload::make_kary_tree(2, 2));
  const relay::SessionRelay sr(bed.source());
  collect_inventory(bed.net().obs(), inventory);
  const ip::Address rp(10, 0, 0, 1);
  collect_inventory(GroupNet<baseline::PimSmRouter>(
                        workload::make_kary_tree(2, 2), baseline::PimConfig{rp})
                        .net.obs(),
                    inventory);
  collect_inventory(
      GroupNet<baseline::DvmrpRouter>(workload::make_kary_tree(2, 2)).net.obs(),
      inventory);
  collect_inventory(GroupNet<baseline::CbtRouter>(
                        workload::make_kary_tree(2, 2), baseline::CbtConfig{rp})
                        .net.obs(),
                    inventory);
  const std::set<std::pair<std::string, std::string>> expected = {
      {"baseline.cbt.data_copies_sent", "counter"},
      {"baseline.cbt.decapsulated_at_core", "counter"},
      {"baseline.cbt.drops", "counter"},
      {"baseline.cbt.encapsulated_to_core", "counter"},
      {"baseline.cbt.joins_sent", "counter"},
      {"baseline.cbt.prunes_sent", "counter"},
      {"baseline.dvmrp.data_copies_sent", "counter"},
      {"baseline.dvmrp.data_packets_forwarded", "counter"},
      {"baseline.dvmrp.flood_copies", "counter"},
      {"baseline.dvmrp.grafts_received", "counter"},
      {"baseline.dvmrp.grafts_sent", "counter"},
      {"baseline.dvmrp.prunes_received", "counter"},
      {"baseline.dvmrp.prunes_sent", "counter"},
      {"baseline.dvmrp.rpf_drops", "counter"},
      {"baseline.group_host.bytes_on_last_hop", "counter"},
      {"baseline.group_host.data_filtered", "counter"},
      {"baseline.group_host.data_received", "counter"},
      {"baseline.group_host.data_sent", "counter"},
      {"baseline.group_host.unwanted_data", "counter"},
      {"baseline.pim.data_copies_sent", "counter"},
      {"baseline.pim.drops", "counter"},
      {"baseline.pim.joins_sg", "counter"},
      {"baseline.pim.joins_star_g", "counter"},
      {"baseline.pim.prunes", "counter"},
      {"baseline.pim.register_stops", "counter"},
      {"baseline.pim.registers_decapsulated", "counter"},
      {"baseline.pim.registers_sent", "counter"},
      {"ecmp.transport.control_bytes_received", "counter"},
      {"ecmp.transport.control_bytes_sent", "counter"},
      {"ecmp.transport.counts_received", "counter"},
      {"ecmp.transport.counts_sent", "counter"},
      {"ecmp.transport.queries_received", "counter"},
      {"ecmp.transport.queries_sent", "counter"},
      {"ecmp.transport.responses_received", "counter"},
      {"ecmp.transport.responses_sent", "counter"},
      {"express.counting.proactive_updates_sent", "counter"},
      {"express.counting.round_ns", "histogram"},
      {"express.counting.rounds_completed", "counter"},
      {"express.counting.rounds_started", "counter"},
      {"express.counting.rounds_timed_out", "counter"},
      {"express.fib.entries", "gauge"},
      {"express.fib.hits", "counter"},
      {"express.fib.lookups", "counter"},
      {"express.fib.no_entry_drops", "counter"},
      {"express.fib.rpf_drops", "counter"},
      {"express.fwd.data_copies_sent", "counter"},
      {"express.fwd.data_packets_forwarded", "counter"},
      {"express.fwd.subcasts_relayed", "counter"},
      {"express.host.control_bytes_sent", "counter"},
      {"express.host.counts_sent", "counter"},
      {"express.host.data_received", "counter"},
      {"express.host.data_sent", "counter"},
      {"express.host.queries_answered", "counter"},
      {"express.host.unwanted_data", "counter"},
      {"express.router.unresolved_neighbor_updates", "counter"},
      {"express.sub.auth_rejects", "counter"},
      {"express.sub.joins_sent", "counter"},
      {"express.sub.key_registrations", "counter"},
      {"express.sub.prunes_sent", "counter"},
      {"express.sub.subscribe_events", "counter"},
      {"express.sub.unsubscribe_events", "counter"},
      {"net.bytes_sent", "counter"},
      {"net.drop.link_down", "counter"},
      {"net.drop.loss", "counter"},
      {"net.drop.no_route", "counter"},
      {"net.drop.ttl", "counter"},
      {"net.link.bytes", "counter"},
      {"net.link.packets", "counter"},
      {"net.packets_sent", "counter"},
      {"net.reordered", "counter"},
      {"relay.channels_announced", "counter"},
      {"relay.dropped_no_floor", "counter"},
      {"relay.dropped_unauthorized", "counter"},
      {"relay.floor_denials", "counter"},
      {"relay.floor_grants", "counter"},
      {"relay.frames_relayed", "counter"},
      {"relay.heartbeats_sent", "counter"},
      {"sim.sched.cancelled", "counter"},
      {"sim.sched.clamped_past", "counter"},
      {"sim.sched.executed", "counter"},
      {"sim.sched.peak_pending", "gauge"},
      {"sim.sched.scheduled", "counter"}
  };
  EXPECT_EQ(inventory, expected);
}

// ---------------------------------------------------------------------
// Snapshot determinism (satellite: byte-identical artifacts)
// ---------------------------------------------------------------------

/// Capture {metrics snapshot, trace JSONL} for a seeded churn run.
std::pair<std::string, std::string> capture_churn(std::uint64_t seed) {
  Testbed bed(scenario::capture_tree());
  bed.net().obs().trace.enable(1 << 16);
  scenario::run_seeded_churn(bed, {.seed = seed});
  const obs::Plane& plane = bed.net().obs();
  return {plane.registry.snapshot_json(bed.net().now()),
          plane.trace.to_jsonl()};
}

TEST(ObsDeterminism, SameSeedChurnCapturesAreByteIdentical) {
  const auto a = capture_churn(7);
  const auto b = capture_churn(7);
  EXPECT_GT(a.first.size(), 0u);
  EXPECT_GT(a.second.size(), 0u);
  EXPECT_EQ(a.first, b.first);    // metrics snapshot
  EXPECT_EQ(a.second, b.second);  // trace JSONL
}

TEST(ObsDeterminism, DifferentSeedDiverges) {
  const auto a = capture_churn(7);
  const auto b = capture_churn(8);
  EXPECT_NE(a.second, b.second);
}

/// Capture the observability artifacts of a seeded chaos soak: faults
/// injected and healed over a transit-stub topology with churn in
/// flight, audited at every settle step.
std::pair<std::string, std::string> capture_chaos(std::uint64_t seed) {
  sim::Rng topo_rng(seed);
  Testbed bed(workload::make_transit_stub(4, 2, 2, topo_rng));
  bed.net().obs().trace.enable(1 << 16);
  const ip::ChannelId channel = bed.source().allocate_channel();
  for (std::size_t i = 0; i < bed.receiver_count(); i += 3) {
    bed.receiver(i).new_subscription(channel);
  }
  bed.net().run_until(sim::seconds(2));

  workload::FaultPlanConfig plan;
  plan.fault_count = 4;
  sim::Rng fault_rng(seed + 1);
  const auto schedule = workload::make_fault_schedule(bed.net().topology(),
                                                      plan, fault_rng);
  const auto report = workload::run_chaos_campaign(
      bed.net(), schedule, workload::ChaosConfig{}, [&bed] {
        return audit::InvariantAuditor(bed.net()).run().violations.size();
      });
  EXPECT_EQ(report.violations, 0u);

  const obs::Plane& plane = bed.net().obs();
  return {plane.registry.snapshot_json(bed.net().now()),
          plane.trace.to_jsonl()};
}

TEST(ObsDeterminism, SameSeedChaosSoaksAreByteIdentical) {
  const auto a = capture_chaos(11);
  const auto b = capture_chaos(11);
  EXPECT_NE(a.second.find("fault_inject"), std::string::npos);
  EXPECT_NE(a.second.find("fault_heal"), std::string::npos);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ---------------------------------------------------------------------
// Audit anchoring: violations reference trace indices
// ---------------------------------------------------------------------

TEST(ObsAudit, ViolationsCarryTheTracePosition) {
  Testbed bed(workload::make_kary_tree(2, 2, {}, 2));
  bed.net().obs().trace.enable(1 << 12);
  const ip::ChannelId channel = bed.source().allocate_channel();
  bed.receiver(0).new_subscription(channel);
  // Audit mid-flight: the leaf router processed the join but its Count
  // to the parent is still on the wire, so conservation disagrees.
  bed.run_for(sim::milliseconds(2));
  const std::uint64_t emitted = bed.net().obs().trace.next_index();
  ASSERT_GT(emitted, 0u);

  const auto report = audit::InvariantAuditor(bed.net()).run();
  ASSERT_FALSE(report.violations.empty());
  for (const auto& v : report.violations) {
    // Anchored at audit time: every event with index < trace_index
    // preceded the violation (the audit itself emits nothing).
    EXPECT_EQ(v.trace_index, emitted);
  }
}

}  // namespace
}  // namespace express
