// Seeded fault-injection campaigns ("chaos") for convergence soaks.
//
// EXPRESS is hard state: the interesting failures are not lost packets
// but *state* left behind by link flaps, dead routers, and partitions.
// This module generates deterministic fault schedules over any
// topology and drives them through a Network: per fault, an optional
// churn window, then the fault (one or more links down), a hold, the
// heal, and a settle phase that samples an auditor callback at event
// boundaries until the scheduler is quiescent — recording the first
// *stable* audit-clean instant as the fault's convergence time.
//
// Layering: this is a workload module; it knows links, schedulers, and
// callbacks, not EXPRESS. The auditor (src/audit) and the churn
// workload are injected as std::functions by the caller (tests,
// bench/soak_chaos), which keeps the driver reusable for the baseline
// protocols via a delivery-level audit callback.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/impairment.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace express::workload {

enum class FaultKind : std::uint8_t {
  kLinkFlap,    ///< one router-router link down, hold, up
  kRouterDown,  ///< all of one router's router-links down (neighbor death)
  kPartition,   ///< several links down at once
};

[[nodiscard]] const char* fault_kind_name(FaultKind kind);

struct Fault {
  FaultKind kind = FaultKind::kLinkFlap;
  std::vector<net::LinkId> links;               ///< links taken down
  net::NodeId router = net::kInvalidNode;       ///< for kRouterDown
  sim::Duration hold = sim::milliseconds(500);  ///< down time before heal
};

/// Links cut per partition fault (all but one when the graph has fewer).
inline constexpr std::size_t kPartitionLinks = 3;

/// Workload window before each fault (the churn callback schedules
/// into it); the fault hits a network mid-churn, not an idle one.
inline constexpr sim::Duration kChurnWindow = sim::seconds(1);

struct FaultPlanConfig {
  std::size_t fault_count = 200;
  sim::Duration min_hold = sim::milliseconds(200);
  sim::Duration max_hold = sim::seconds(2);
  /// Relative mix of the three kinds (need not sum to 1).
  double link_flap_weight = 0.6;
  double router_down_weight = 0.25;
  double partition_weight = 0.15;
};

/// Deterministically draw `fault_count` faults over the router-router
/// links of `topology` (host drop cables and LAN segments are never
/// cut: host-side recovery is application-level in EXPRESS, §2.1).
/// Identical (topology, config, rng state) => identical schedule.
[[nodiscard]] std::vector<Fault> make_fault_schedule(
    const net::Topology& topology, const FaultPlanConfig& config,
    sim::Rng& rng);

/// Settle budget after each heal: if the network has not quiesced
/// within this, the fault is recorded as unconverged.
inline constexpr sim::Duration kSettleCap = sim::seconds(30);

struct ChaosConfig {
  /// Optional per-link impairments applied to every link at campaign
  /// start (loss-enabled fault campaigns): the protocol must converge
  /// through faults *and* a lossy data plane at once. std::nullopt
  /// leaves the network's impairment configuration untouched.
  std::optional<net::ImpairmentConfig> link_impairments;
};

struct FaultOutcome {
  std::size_t index = 0;
  FaultKind kind = FaultKind::kLinkFlap;
  sim::Time injected_at{};
  sim::Time healed_at{};
  bool converged = false;
  /// Heal -> first audit-clean instant that then *stayed* clean through
  /// quiescence (a clean sample later invalidated by in-flight control
  /// traffic does not count). The last transient violation is whatever
  /// the network handled last, fault or workload: under a churn schedule
  /// that outlasts the heal (workload::poisson_churn makes every member
  /// still joined leave at its horizon), this measures that mass leave,
  /// not the fault's repair.
  sim::Duration convergence{};
  std::uint64_t violations = 0;  ///< outstanding at quiescence
  std::uint64_t audits = 0;      ///< auditor invocations for this fault
};

struct ChaosReport {
  std::vector<FaultOutcome> outcomes;
  std::uint64_t faults_injected = 0;
  std::uint64_t violations = 0;  ///< total outstanding-at-quiescence
  std::uint64_t audits_run = 0;
  std::uint64_t unconverged = 0;

  [[nodiscard]] sim::Duration max_convergence() const;
  [[nodiscard]] double mean_convergence_seconds() const;
};

/// `audit` returns the current number of invariant violations (0 =
/// clean); `churn` (optional) is invoked before each fault with the
/// fault index to schedule workload activity into the churn window.
[[nodiscard]] ChaosReport run_chaos_campaign(
    net::Network& network, const std::vector<Fault>& schedule,
    const ChaosConfig& config, const std::function<std::size_t()>& audit,
    const std::function<void(std::size_t)>& churn = {});

}  // namespace express::workload
