// Chaos campaigns (workload/chaos) and the convergence property they
// gate: after a fault heals, the EXPRESS tree returns to an audit-clean
// state within the route-change hysteresis plus propagation slack — and
// the same driver works at delivery level for the PIM-SM baseline.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "audit/invariants.hpp"
#include "baseline/group_host.hpp"
#include "baseline/pim_sm.hpp"
#include "helpers.hpp"
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
    EXPECT_LE(outcome.convergence, ChaosConfig{}.settle_cap);
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

// The same driver at delivery level for the PIM-SM baseline: the RP
// tree has no re-route logic, so the check is end-to-end — after the
// flap heals, data sent on the group reaches the member again.
TEST(Convergence, PimSmDeliveryResumesAfterCoreFlap) {
  auto roles = workload::make_kary_tree(2, 2);
  baseline::PimConfig config;
  config.rp = roles.topology.node(roles.routers[0]).address;
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
