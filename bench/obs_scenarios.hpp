// The seeded scenarios bench/obs_capture records and
// tests/golden/obs_capture.sha256 pins, shared with the test that
// checks them against one delivery event per copy
// (FanoutBatch.ObsCaptureMatchesPerEventModeApartFromTimerFires).
// Both run on Testbed(workload::make_kary_tree(2, 3, {}, 2)).
#pragma once

#include <cstdint>
#include <vector>

#include "audit/invariants.hpp"
#include "testbed/testbed.hpp"
#include "workload/chaos.hpp"
#include "workload/churn.hpp"

namespace express::obs_scenarios {

/// Mirror of test_determinism's run_seeded_churn: 16 receivers over a
/// binary router tree, Poisson join/leave churn, periodic channel data.
inline void run_churn(Testbed& bed, std::uint64_t seed) {
  net::Network& net = bed.net();
  const ip::ChannelId channel = bed.source().allocate_channel();

  sim::Rng rng(seed);
  const sim::Duration horizon = sim::seconds(10);
  const auto events = workload::poisson_churn(
      static_cast<std::uint32_t>(bed.receiver_count()), horizon,
      sim::seconds(5), sim::seconds(3), rng);
  for (const auto& ev : events) {
    net.scheduler().schedule_at(ev.at, [&bed, channel, ev] {
      if (ev.join) {
        bed.receiver(ev.host_index).new_subscription(channel);
      } else {
        bed.receiver(ev.host_index).delete_subscription(channel);
      }
    });
  }
  const std::vector<std::uint8_t> header(32, 0x5A);
  std::uint64_t seq = 0;
  for (sim::Time at = sim::milliseconds(200); at < horizon;
       at += sim::milliseconds(200)) {
    net.scheduler().schedule_at(at, [&bed, channel, header, s = seq++] {
      bed.source().send(channel, 500, s, header);
    });
  }
  net.run();
}

/// A short deterministic fault campaign over the same tree: every
/// receiver subscribed, link flaps / router deaths / partitions drawn
/// from `seed`, churn plus periodic data scheduled into each fault
/// window, the invariant auditor sampled through every settle phase.
inline workload::ChaosReport run_chaos(Testbed& bed, std::uint64_t seed) {
  net::Network& net = bed.net();
  const ip::ChannelId channel = bed.source().allocate_channel();
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    net.scheduler().schedule_at(sim::milliseconds(1), [&bed, channel, i] {
      bed.receiver(i).new_subscription(channel);
    });
  }
  net.run_until(sim::milliseconds(100));

  workload::FaultPlanConfig plan;
  plan.fault_count = 6;
  sim::Rng fault_rng(seed);
  const auto schedule =
      workload::make_fault_schedule(net.topology(), plan, fault_rng);

  sim::Rng churn_rng(seed ^ 0x5DEECE66DULL);
  std::uint64_t seq = 0;
  auto churn = [&](std::size_t) {
    const auto events = workload::poisson_churn(
        static_cast<std::uint32_t>(bed.receiver_count() - 1), sim::seconds(4),
        sim::seconds(2), sim::seconds(2), churn_rng);
    for (const auto& ev : events) {
      // Churn over receivers 1..n-1; receiver 0 stays subscribed so the
      // channel tree never collapses mid-fault.
      const std::size_t idx = ev.host_index + 1;
      net.scheduler().schedule_at(
          net.now() + (ev.at - sim::Time{}), [&bed, channel, idx, ev] {
            if (ev.join) {
              bed.receiver(idx).new_subscription(channel);
            } else {
              bed.receiver(idx).delete_subscription(channel);
            }
          });
    }
    for (int k = 0; k < 10; ++k) {
      net.scheduler().schedule_at(net.now() + sim::milliseconds(50 * (k + 1)),
                                  [&bed, channel, &seq] {
                                    bed.source().send(channel, 300, ++seq);
                                  });
    }
  };
  auto audit = [&net] {
    return audit::InvariantAuditor(net).run().violations.size();
  };
  return workload::run_chaos_campaign(net, schedule, workload::ChaosConfig{},
                                     audit, churn);
}


}  // namespace express::obs_scenarios
