#include "workload/chaos.hpp"

#include <algorithm>
#include <optional>

namespace express::workload {

namespace {

/// Links whose both endpoints are routers — the only ones chaos cuts.
std::vector<net::LinkId> core_links(const net::Topology& topology) {
  std::vector<net::LinkId> links;
  for (net::LinkId id = 0; id < topology.link_count(); ++id) {
    const net::LinkInfo& link = topology.link(id);
    if (topology.node(link.a).kind == net::NodeKind::kRouter &&
        topology.node(link.b).kind == net::NodeKind::kRouter) {
      links.push_back(id);
    }
  }
  return links;
}

sim::Duration draw_hold(const FaultPlanConfig& config, sim::Rng& rng) {
  const auto lo = config.min_hold.count();
  const auto hi = std::max(config.max_hold.count(), lo);
  return sim::Duration{rng.between(lo, hi)};
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkFlap:
      return "link_flap";
    case FaultKind::kRouterDown:
      return "router_down";
    case FaultKind::kPartition:
      return "partition";
  }
  return "unknown";
}

std::vector<Fault> make_fault_schedule(const net::Topology& topology,
                                       const FaultPlanConfig& config,
                                       sim::Rng& rng) {
  std::vector<Fault> schedule;
  const std::vector<net::LinkId> links = core_links(topology);
  if (links.empty()) return schedule;

  // Routers with at least one core link (candidates for kRouterDown).
  std::vector<net::NodeId> routers;
  for (net::LinkId id : links) {
    routers.push_back(topology.link(id).a);
    routers.push_back(topology.link(id).b);
  }
  std::sort(routers.begin(), routers.end());
  routers.erase(std::unique(routers.begin(), routers.end()), routers.end());

  const double total_weight = config.link_flap_weight +
                              config.router_down_weight +
                              config.partition_weight;
  schedule.reserve(config.fault_count);
  while (schedule.size() < config.fault_count) {
    Fault fault;
    fault.hold = draw_hold(config, rng);
    const double roll = rng.uniform() * total_weight;
    if (roll < config.link_flap_weight || links.size() < 2) {
      fault.kind = FaultKind::kLinkFlap;
      fault.links.push_back(links[rng.below(
          static_cast<std::uint32_t>(links.size()))]);
    } else if (roll < config.link_flap_weight + config.router_down_weight) {
      fault.kind = FaultKind::kRouterDown;
      fault.router =
          routers[rng.below(static_cast<std::uint32_t>(routers.size()))];
      for (net::LinkId id : links) {
        const net::LinkInfo& link = topology.link(id);
        if (link.a == fault.router || link.b == fault.router) {
          fault.links.push_back(id);
        }
      }
    } else {
      fault.kind = FaultKind::kPartition;
      const std::size_t width =
          std::min(kPartitionLinks, links.size() - 1);
      std::vector<net::LinkId> pool = links;
      for (std::size_t i = 0; i < width; ++i) {
        const std::uint32_t pick =
            rng.below(static_cast<std::uint32_t>(pool.size()));
        fault.links.push_back(pool[pick]);
        pool.erase(pool.begin() + pick);
      }
      std::sort(fault.links.begin(), fault.links.end());
    }
    schedule.push_back(std::move(fault));
  }
  return schedule;
}

sim::Duration ChaosReport::max_convergence() const {
  sim::Duration worst{0};
  for (const FaultOutcome& o : outcomes) {
    if (o.converged) worst = std::max(worst, o.convergence);
  }
  return worst;
}

double ChaosReport::mean_convergence_seconds() const {
  double sum = 0;
  std::size_t n = 0;
  for (const FaultOutcome& o : outcomes) {
    if (!o.converged) continue;
    sum += sim::to_seconds(o.convergence);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

ChaosReport run_chaos_campaign(net::Network& network,
                               const std::vector<Fault>& schedule,
                               const ChaosConfig& config,
                               const std::function<std::size_t()>& audit,
                               const std::function<void(std::size_t)>& churn) {
  ChaosReport report;

  if (config.link_impairments) {
    network.set_default_impairments(*config.link_impairments);
  }

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Fault& fault = schedule[i];
    FaultOutcome outcome;
    outcome.index = i;
    outcome.kind = fault.kind;

    if (churn) churn(i);
    network.run_until(network.now() + kChurnWindow);

    outcome.injected_at = network.now();
    for (net::LinkId link : fault.links) {
      network.obs().trace.emit(network.now(), obs::Entity::link(link),
                               obs::TraceType::kFaultInject, i,
                               static_cast<std::uint64_t>(fault.kind));
      network.set_link_up(link, false);
    }
    network.run_until(network.now() + fault.hold);
    for (net::LinkId link : fault.links) {
      network.set_link_up(link, true);
      network.obs().trace.emit(network.now(), obs::Entity::link(link),
                               obs::TraceType::kFaultHeal, i,
                               static_cast<std::uint64_t>(fault.kind));
    }
    outcome.healed_at = network.now();

    // Settle: audit at every event boundary. Convergence is the first
    // clean sample never again invalidated before quiescence; the
    // event-driven sampling makes the measurement exact, not
    // poll-interval-quantized.
    std::optional<sim::Time> first_clean;
    const sim::Time deadline = outcome.healed_at + kSettleCap;
    while (true) {
      const std::size_t violations = audit();
      ++outcome.audits;
      if (violations == 0) {
        if (!first_clean) first_clean = network.now();
      } else {
        first_clean.reset();
      }
      const std::optional<sim::Time> next = network.next_event_time();
      if (!next || *next > deadline) break;  // quiescent (or out of budget)
      network.run_until(*next);
    }
    const std::size_t final_violations = audit();
    ++outcome.audits;
    outcome.violations = final_violations;
    outcome.converged = final_violations == 0 && first_clean.has_value();
    if (outcome.converged) {
      outcome.convergence = *first_clean - outcome.healed_at;
    }

    ++report.faults_injected;
    report.violations += outcome.violations;
    report.audits_run += outcome.audits;
    if (!outcome.converged) ++report.unconverged;
    report.outcomes.push_back(outcome);
  }
  return report;
}

}  // namespace express::workload
