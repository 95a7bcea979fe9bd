// Chaos campaigns (workload/chaos) and the convergence property they
// gate: after a fault heals, the EXPRESS tree returns to an audit-clean
// state within the route-change hysteresis plus propagation slack; at
// every sample of a campaign the incremental audit reports what a full
// walk does — and the same driver works at delivery level for the
// PIM-SM baseline.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "audit/invariants.hpp"
#include "audit_match.hpp"
#include "baseline/group_host.hpp"
#include "baseline/pim_sm.hpp"
#include "helpers.hpp"
#include "net/lan.hpp"
#include "testbed/delivery_log.hpp"
#include "workload/chaos.hpp"
#include "workload/churn.hpp"
#include "workload/topo_gen.hpp"

namespace express::test {
namespace {

using workload::ChaosConfig;
using workload::ChaosReport;
using workload::Fault;
using workload::FaultKind;
using workload::FaultPlanConfig;

TEST(FaultSchedule, DeterministicAndCoreOnly) {
  sim::Rng topo_rng(3);
  const auto generated = workload::make_transit_stub(4, 2, 2, topo_rng);
  FaultPlanConfig config;
  config.fault_count = 50;

  sim::Rng a(99);
  sim::Rng b(99);
  const auto first = workload::make_fault_schedule(generated.topology, config, a);
  const auto second = workload::make_fault_schedule(generated.topology, config, b);

  ASSERT_EQ(first.size(), config.fault_count);
  ASSERT_EQ(second.size(), config.fault_count);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].kind, second[i].kind) << "fault " << i;
    EXPECT_EQ(first[i].links, second[i].links) << "fault " << i;
    EXPECT_EQ(first[i].hold, second[i].hold) << "fault " << i;
  }
  // Only router-router links are ever cut; hosts keep their drop cables.
  for (const Fault& fault : first) {
    EXPECT_FALSE(fault.links.empty());
    for (net::LinkId id : fault.links) {
      const net::LinkInfo& link = generated.topology.link(id);
      EXPECT_EQ(generated.topology.node(link.a).kind, net::NodeKind::kRouter);
      EXPECT_EQ(generated.topology.node(link.b).kind, net::NodeKind::kRouter);
    }
  }
}

TEST(FaultSchedule, RouterDownCutsAllCoreLinksOfTheRouter) {
  sim::Rng topo_rng(3);
  const auto generated = workload::make_transit_stub(4, 2, 1, topo_rng);
  FaultPlanConfig config;
  config.fault_count = 80;
  config.link_flap_weight = 0;
  config.partition_weight = 0;  // router-down only
  sim::Rng rng(5);
  const auto schedule =
      workload::make_fault_schedule(generated.topology, config, rng);
  for (const Fault& fault : schedule) {
    ASSERT_EQ(fault.kind, FaultKind::kRouterDown);
    ASSERT_NE(fault.router, net::kInvalidNode);
    for (net::LinkId id : fault.links) {
      const net::LinkInfo& link = generated.topology.link(id);
      EXPECT_TRUE(link.a == fault.router || link.b == fault.router);
    }
  }
}

/// EXPRESS chaos fixture: transit-stub testbed, one channel, Poisson
/// churn injected per fault, audit callback = invariant violations.
struct ChaosBed {
  explicit ChaosBed(std::uint64_t seed = 11)
      : topo_rng(seed), sim(workload::make_transit_stub(4, 2, 2, topo_rng)) {
    ch = sim.source().allocate_channel();
    // Standing subscribers across the stubs keep the tree spanning the
    // core throughout, so faults hit live forwarding state.
    for (std::size_t i = 0; i < sim.receiver_count(); i += 3) {
      sim.receiver(i).new_subscription(ch);
    }
    sim.run_for(sim::seconds(2));
  }

  std::function<std::size_t()> audit_fn() {
    return [this] {
      return audit::InvariantAuditor(sim.net()).run().violations.size();
    };
  }

  /// Churn whose horizon outlasts the window + hold: the fault lands on
  /// a network with joins and leaves still in flight.
  std::function<void(std::size_t)> churn_fn(sim::Rng& rng) {
    return [this, &rng](std::size_t) {
      const auto events = workload::poisson_churn(
          static_cast<std::uint32_t>(sim.receiver_count() - 1),
          sim::seconds(4), sim::seconds(2), sim::seconds(2), rng);
      for (const auto& ev : events) {
        sim.net().scheduler().schedule_at(
            sim.net().now() + (ev.at - sim::Time{}), [this, ev] {
              // Churn over receivers 1..n-1; receiver 0 stays put.
              auto& host = sim.receiver(ev.host_index + 1);
              if (ev.join) {
                host.new_subscription(ch);
              } else {
                host.delete_subscription(ch);
              }
            });
      }
    };
  }

  sim::Rng topo_rng;
  ExpressNetwork sim;
  ip::ChannelId ch;
};

TEST(Chaos, SmokeCampaignConvergesWithZeroViolations) {
  ChaosBed bed;
  FaultPlanConfig plan;
  plan.fault_count = 12;
  sim::Rng fault_rng(17);
  const auto schedule = workload::make_fault_schedule(
      bed.sim.net().topology(), plan, fault_rng);
  ASSERT_EQ(schedule.size(), 12u);

  sim::Rng churn_rng(23);
  const ChaosReport report =
      workload::run_chaos_campaign(bed.sim.net(), schedule, ChaosConfig{},
                         bed.audit_fn(), bed.churn_fn(churn_rng));

  EXPECT_EQ(report.faults_injected, 12u);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.unconverged, 0u);
  EXPECT_GT(report.audits_run, report.faults_injected);
  for (const auto& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.converged) << "fault " << outcome.index;
    EXPECT_GE(outcome.convergence.count(), 0);
    EXPECT_LE(outcome.convergence, workload::kSettleCap);
  }
}

// Satellite: the same campaign with every link lossy. The protocol must
// converge through faults *and* a Bernoulli-impaired data plane at
// once — control is TCP-modeled (data_only), so invariants stay clean
// while the dropped data packets prove the dice actually rolled.
TEST(Chaos, LossEnabledCampaignStaysCleanAndConverges) {
  ChaosBed bed;
  FaultPlanConfig plan;
  plan.fault_count = 6;
  sim::Rng fault_rng(41);
  const auto schedule = workload::make_fault_schedule(
      bed.sim.net().topology(), plan, fault_rng);
  ASSERT_EQ(schedule.size(), 6u);

  ChaosConfig chaos;
  net::ImpairmentConfig lossy;
  lossy.loss.kind = net::LossModel::Kind::kBernoulli;
  lossy.loss.p = 0.02;
  chaos.link_impairments = lossy;
  bed.sim.net().seed_impairments(0xC4A05);

  sim::Rng churn_rng(43);
  auto churn = bed.churn_fn(churn_rng);
  std::uint64_t seq = 0;
  auto churn_and_data = [&](std::size_t fault) {
    churn(fault);
    // Data flows into each fault: the packets fan out across the tree,
    // so the campaign exercises the loss model, not just control churn.
    for (int k = 0; k < 20; ++k) {
      bed.sim.net().scheduler().schedule_at(
          bed.sim.net().now() + sim::milliseconds(50 * (k + 1)),
          [&bed, &seq] { bed.sim.source().send(bed.ch, 300, ++seq); });
    }
  };
  const ChaosReport report = workload::run_chaos_campaign(
      bed.sim.net(), schedule, chaos, bed.audit_fn(), churn_and_data);

  EXPECT_EQ(report.faults_injected, 6u);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.unconverged, 0u);
  EXPECT_GT(bed.sim.net().stats().packets_dropped_loss, 0u);
}

/// The on-tree core link a flap should target: `child`'s upstream is
/// `parent` for the channel, and both ends are routers.
std::optional<net::LinkId> on_tree_core_link(ExpressNetwork& sim,
                                             const ip::ChannelId& ch) {
  const net::Topology& topo = sim.net().topology();
  for (std::size_t i = 0; i < sim.router_count(); ++i) {
    const auto up = sim.router(i).upstream_of(ch);
    if (!up) continue;
    if (topo.node(*up).kind != net::NodeKind::kRouter) continue;
    const net::NodeId self = sim.roles().routers[i];
    for (net::LinkId id = 0; id < topo.link_count(); ++id) {
      const net::LinkInfo& link = topo.link(id);
      if ((link.a == self && link.b == *up) ||
          (link.b == self && link.a == *up)) {
        return id;
      }
    }
  }
  return std::nullopt;
}

// Satellite: a core link on the distribution tree flaps while receivers
// churn; the auditor must be clean again within the route-change
// hysteresis plus propagation slack of the heal.
TEST(Convergence, ExpressCleanWithinHysteresisAfterCoreFlap) {
  RouterConfig config;
  config.route_change_hysteresis = sim::milliseconds(500);
  sim::Rng topo_rng(11);
  ExpressNetwork sim(workload::make_transit_stub(4, 2, 2, topo_rng), config);
  const ip::ChannelId ch = sim.source().allocate_channel();
  for (std::size_t i = 0; i < sim.receiver_count(); i += 2) {
    sim.receiver(i).new_subscription(ch);
  }
  sim.run_for(sim::seconds(2));
  ASSERT_TRUE(audit::InvariantAuditor(sim.net()).run().clean());

  const auto link = on_tree_core_link(sim, ch);
  ASSERT_TRUE(link.has_value()) << "no on-tree core link to cut";

  Fault flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.links.push_back(*link);
  flap.hold = sim::seconds(2);  // longer than hysteresis: the re-route runs

  sim::Rng churn_rng(29);
  ChaosConfig chaos;
  auto churn = [&](std::size_t) {
    const auto events = workload::poisson_churn(
        static_cast<std::uint32_t>(sim.receiver_count()),
        sim::milliseconds(800), sim::seconds(2), sim::seconds(2), churn_rng);
    for (const auto& ev : events) {
      sim.net().scheduler().schedule_at(
          sim.net().now() + (ev.at - sim::Time{}), [&sim, ev, ch] {
            if (ev.join) {
              sim.receiver(ev.host_index).new_subscription(ch);
            } else {
              sim.receiver(ev.host_index).delete_subscription(ch);
            }
          });
    }
  };
  const ChaosReport report = workload::run_chaos_campaign(
      sim.net(), {flap}, chaos,
      [&] { return audit::InvariantAuditor(sim.net()).run().violations.size(); },
      churn);

  ASSERT_EQ(report.outcomes.size(), 1u);
  const auto& outcome = report.outcomes[0];
  EXPECT_EQ(outcome.violations, 0u);
  ASSERT_TRUE(outcome.converged);
  // Hysteresis delays the post-heal switch back; everything after that
  // is bounded propagation (joins/prunes across a few 5 ms core hops).
  const sim::Duration epsilon = sim::seconds(1);
  EXPECT_LE(outcome.convergence, config.route_change_hysteresis + epsilon)
      << "converged in " << sim::to_seconds(outcome.convergence) << " s";
}

// The auditor at scale: one on-tree core link flaps under churn on an
// 11,606-node tree (4-ary, depth 5, 10 hosts per leaf). Members are
// few — every 256th receiver — which keeps the run short, while each
// audit after the heal still walks every node of the graph.
TEST(Chaos, LinkFlapOnTenThousandNodeTreeConvergesClean) {
  ExpressNetwork sim(workload::make_kary_tree(4, 5, {}, 10));
  ASSERT_GE(sim.net().topology().node_count(), 10000u);
  const ip::ChannelId ch = sim.source().allocate_channel();
  constexpr std::size_t kStride = 256;
  const auto members =
      static_cast<std::uint32_t>(sim.receiver_count() / kStride);
  for (std::uint32_t m = 0; m < members; ++m) {
    sim.receiver(m * kStride).new_subscription(ch);
  }
  sim.run_for(sim::seconds(2));

  std::size_t routers_audited = 0;
  auto audit = [&] {
    const audit::AuditReport report = audit::InvariantAuditor(sim.net()).run();
    routers_audited = report.routers_audited;
    return report.violations.size();
  };
  ASSERT_EQ(audit(), 0u);

  const auto link = on_tree_core_link(sim, ch);
  ASSERT_TRUE(link.has_value()) << "no on-tree core link to cut";
  Fault flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.links.push_back(*link);
  flap.hold = sim::seconds(1);

  sim::Rng churn_rng(31);
  auto churn = [&](std::size_t) {
    const auto events = workload::poisson_churn(
        members, sim::seconds(4), sim::seconds(2), sim::seconds(2), churn_rng);
    for (const auto& ev : events) {
      sim.net().scheduler().schedule_at(
          sim.net().now() + (ev.at - sim::Time{}), [&sim, ev, ch] {
            ExpressHost& host = sim.receiver(ev.host_index * kStride);
            if (ev.join) {
              host.new_subscription(ch);
            } else {
              host.delete_subscription(ch);
            }
          });
    }
  };
  const ChaosReport report = workload::run_chaos_campaign(
      sim.net(), {flap}, ChaosConfig{}, audit, churn);

  EXPECT_EQ(report.faults_injected, 1u);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.unconverged, 0u);
  EXPECT_GT(report.audits_run, 1u);
  EXPECT_EQ(routers_audited, sim.router_count());
}

// ------------------------------------------------ incremental audit

/// Audit callback proving the incremental audit against the full walk
/// at every sample of a campaign. It counts the samples that held
/// violations and those the memo served without walking every router,
/// so a campaign that never exercised either cannot pass.
struct IncrementalOracle {
  explicit IncrementalOracle(const net::Network& network)
      : auditor(network) {}

  std::size_t operator()() {
    const audit::AuditReport incremental = auditor.run();
    const audit::AuditReport full = auditor.full_walk();
    const testing::AssertionResult match = same_verdict(incremental, full);
    if (!match && mismatches++ == 0) {
      ADD_FAILURE() << "sample " << samples << ": " << match.message();
    }
    ++samples;
    if (!incremental.clean()) ++unclean;
    if (incremental.routers_walked < full.routers_walked) ++partial;
    return incremental.violations.size();
  }

  audit::InvariantAuditor auditor;
  std::size_t samples = 0;
  std::size_t mismatches = 0;
  std::size_t unclean = 0;
  std::size_t partial = 0;
};

/// A seeded campaign on `bed` of every fault kind in turn (link flap,
/// router death, partition) under churn over every receiver, with a
/// lossy data plane carrying a packet train into each fault, sampled
/// through the oracle.
void run_oracle_campaign(ExpressNetwork& bed, std::uint64_t seed,
                         std::size_t fault_count) {
  const ip::ChannelId ch = bed.source().allocate_channel();
  for (std::size_t i = 0; i < bed.receiver_count(); i += 3) {
    bed.receiver(i).new_subscription(ch);
  }
  bed.run_for(sim::seconds(2));

  sim::Rng fault_rng(seed);
  std::vector<Fault> schedule;
  for (std::size_t i = 0; i < fault_count; ++i) {
    FaultPlanConfig plan;
    plan.fault_count = 1;
    plan.link_flap_weight = i % 3 == 0;
    plan.router_down_weight = i % 3 == 1;
    plan.partition_weight = i % 3 == 2;
    for (Fault& fault : workload::make_fault_schedule(
             bed.net().topology(), plan, fault_rng)) {
      schedule.push_back(std::move(fault));
    }
  }
  ASSERT_EQ(schedule.size(), fault_count);

  ChaosConfig chaos;
  net::ImpairmentConfig lossy;
  lossy.loss.kind = net::LossModel::Kind::kBernoulli;
  lossy.loss.p = 0.02;
  chaos.link_impairments = lossy;
  bed.net().seed_impairments(seed);

  sim::Rng churn_rng(seed + 1);
  std::uint64_t sequence = 0;
  auto churn = [&](std::size_t) {
    const auto events = workload::poisson_churn(
        static_cast<std::uint32_t>(bed.receiver_count()), sim::seconds(4),
        sim::seconds(2), sim::seconds(2), churn_rng);
    for (const auto& ev : events) {
      bed.net().scheduler().schedule_at(
          bed.net().now() + (ev.at - sim::Time{}), [&bed, ev, ch] {
            if (ev.join) {
              bed.receiver(ev.host_index).new_subscription(ch);
            } else {
              bed.receiver(ev.host_index).delete_subscription(ch);
            }
          });
    }
    for (int k = 0; k < 10; ++k) {
      bed.net().scheduler().schedule_at(
          bed.net().now() + sim::milliseconds(100 * (k + 1)),
          [&bed, &sequence, ch] { bed.source().send(ch, 300, ++sequence); });
    }
  };

  IncrementalOracle oracle(bed.net());
  const ChaosReport report = workload::run_chaos_campaign(
      bed.net(), schedule, chaos, [&oracle] { return oracle(); }, churn);

  EXPECT_EQ(report.faults_injected, fault_count);
  EXPECT_EQ(oracle.mismatches, 0u) << "of " << oracle.samples << " samples";
  EXPECT_EQ(oracle.samples, report.audits_run);
  EXPECT_GT(oracle.unclean, 0u) << "no transient violation was compared";
  EXPECT_GT(oracle.partial, oracle.samples / 2)
      << "the memo served too few samples";
  EXPECT_GT(bed.net().stats().packets_dropped_loss, 0u);
}

TEST(IncrementalAudit, MatchesTheFullWalkOnTransitStubCampaigns) {
  sim::Rng topo_rng(1);
  ExpressNetwork bed(workload::make_transit_stub(16, 8, 4, topo_rng));
  run_oracle_campaign(bed, 7919, 6);
}

TEST(IncrementalAudit, MatchesTheFullWalkOnKaryTreeCampaigns) {
  // Proactive counting (§6) with a short curve: drift timers move
  // advertisements between the protocol's own events.
  RouterConfig config;
  config.proactive = counting::CurveParams{0.3, 2, 4};
  ExpressNetwork bed(workload::make_kary_tree(3, 4, {}, 2), config);
  run_oracle_campaign(bed, 2, 6);
}

TEST(IncrementalAudit, MatchesTheFullWalkOnLanSegmentCampaigns) {
  // A transit-stub graph whose stub routers each also serve a LAN
  // segment of three hosts in UDP mode: a member's note must reach its
  // router across the hub, and soft-state expiry adds its own changes.
  sim::Rng topo_rng(3);
  workload::GeneratedTopology generated =
      workload::make_transit_stub(4, 2, 2, topo_rng);
  std::vector<net::NodeId> stubs;
  for (const net::NodeId host : generated.receiver_hosts) {
    const net::NodeId stub = generated.topology.neighbor_via(host, 0);
    if (stubs.empty() || stubs.back() != stub) stubs.push_back(stub);
  }
  std::vector<net::LanSegment> segments;
  for (const net::NodeId stub : stubs) {
    segments.push_back(net::add_lan_segment(generated.topology, stub, 3));
    for (const net::NodeId host : segments.back().hosts) {
      generated.receiver_hosts.push_back(host);
    }
  }
  ExpressNetwork bed(std::move(generated));
  for (std::size_t s = 0; s < segments.size(); ++s) {
    bed.net().attach<net::LanHub>(segments[s].hub);
    for (std::size_t i = 0; i < bed.router_count(); ++i) {
      if (bed.roles().routers[i] != stubs[s]) continue;
      const auto iface =
          bed.net().topology().interface_to(stubs[s], segments[s].hub);
      ASSERT_TRUE(iface.has_value());
      bed.router(i).set_interface_mode(*iface, ecmp::Mode::kUdp);
    }
  }
  run_oracle_campaign(bed, 11, 6);
}

// The same driver at delivery level for the PIM-SM baseline: the RP
// tree has no re-route logic, so the check is end-to-end — after the
// flap heals, data sent on the group reaches the member again.
TEST(Convergence, PimSmDeliveryResumesAfterCoreFlap) {
  auto roles = workload::make_kary_tree(2, 2);
  baseline::PimConfig config;
  config.rp = roles.topology.address(roles.routers[0]);
  const ip::Address group(225, 4, 5, 6);

  // Root--left-mid core link: on the RP tree for receiver 0.
  std::optional<net::LinkId> core;
  for (net::LinkId id = 0; id < roles.topology.link_count(); ++id) {
    const net::LinkInfo& link = roles.topology.link(id);
    if ((link.a == roles.routers[0] && link.b == roles.routers[1]) ||
        (link.b == roles.routers[0] && link.a == roles.routers[1])) {
      core = id;
      break;
    }
  }
  ASSERT_TRUE(core.has_value());

  auto network = std::make_unique<net::Network>(std::move(roles.topology));
  std::vector<baseline::PimSmRouter*> routers;
  for (net::NodeId r : roles.routers) {
    routers.push_back(&network->attach<baseline::PimSmRouter>(r, config));
  }
  baseline::GroupHost& source =
      network->attach<baseline::GroupHost>(roles.source_host);
  std::vector<baseline::GroupHost*> receivers;
  for (net::NodeId h : roles.receiver_hosts) {
    receivers.push_back(&network->attach<baseline::GroupHost>(h));
  }
  DeliveryLog log;
  receivers[0]->set_data_handler(log.handler());
  receivers[0]->join_group(group, ip::Protocol::kPim);
  network->run_until(network->now() + sim::seconds(1));

  source.send_to_group(group, 200, /*sequence=*/1);
  network->run_until(network->now() + sim::seconds(1));
  ASSERT_EQ(receivers[0]->stats().data_received, 1u);

  Fault flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.links.push_back(*core);
  flap.hold = sim::seconds(1);
  // Delivery-level audit: once quiescent, a fresh probe packet must
  // reach the member. The callback sends nothing (the auditor contract
  // is read-only during settle); convergence here is just quiescence.
  const ChaosReport report = workload::run_chaos_campaign(
      *network, {flap}, ChaosConfig{}, [] { return std::size_t{0}; });
  ASSERT_EQ(report.faults_injected, 1u);
  EXPECT_EQ(report.unconverged, 0u);

  source.send_to_group(group, 200, /*sequence=*/2);
  network->run_until(network->now() + sim::seconds(1));
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].sequence, 2u);
}

}  // namespace
}  // namespace express::test
