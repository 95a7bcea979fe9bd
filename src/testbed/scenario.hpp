// Scenario vocabulary over a Testbed (see the testbed/testbed.hpp
// banner for the list and for which goldens pin which scenario): the
// churn replay, data train and chaos churn window every churn-driven
// experiment is built from, and the two pinned scenarios.
//
// The order in which a helper schedules its events is part of the
// scenario: the scheduler breaks same-instant ties by it, so it decides
// dispatch and delivery batching, and reordering two schedule_at calls
// moves the goldens.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "audit/invariants.hpp"
#include "ip/channel.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "testbed/testbed.hpp"
#include "workload/chaos.hpp"
#include "workload/churn.hpp"
#include "workload/topo_gen.hpp"

namespace express::scenario {

/// Schedules every event of `events` at `base + ev.at`: a join
/// subscribes receiver `to(ev.host_index)` to `channel`, a leave
/// unsubscribes it. `base` is sim::Time{} for a schedule of absolute
/// times and `now()` for one drawn relative to the present.
template <class Map = std::identity>
void replay_churn(Testbed& bed, const ip::ChannelId& channel,
                  const std::vector<workload::ChurnEvent>& events,
                  sim::Time base = {}, Map to = {}) {
  sim::Scheduler& sched = bed.net().scheduler();
  for (const workload::ChurnEvent& ev : events) {
    const std::size_t receiver = to(ev.host_index);
    // lint: fire-and-forget (scripted workload; the scenario runs to its end)
    sched.schedule_at(base + ev.at, [&bed, channel, receiver, join = ev.join] {
      if (join) {
        bed.receiver(receiver).new_subscription(channel);
      } else {
        bed.receiver(receiver).delete_subscription(channel);
      }
    });
  }
}

/// A train of `bytes`-byte packets from the source: one at `start` and
/// every `period` after, `count` of them or as many as fall before
/// `end`, sequenced from `first_seq` up.
struct DataTrain {
  sim::Time start{};
  sim::Duration period{};
  std::uint64_t count = std::numeric_limits<std::uint64_t>::max();
  sim::Time end = sim::kNever;
  std::uint32_t bytes = 0;
  std::uint64_t first_seq = 0;
  std::vector<std::uint8_t> header{};
};

/// Schedules `train` on `channel`; returns the sequence number after
/// the last packet's.
inline std::uint64_t send_train(Testbed& bed, const ip::ChannelId& channel,
                                const DataTrain& train) {
  const auto header =
      std::make_shared<const std::vector<std::uint8_t>>(train.header);
  std::uint64_t seq = train.first_seq;
  sim::Time at = train.start;
  for (std::uint64_t k = 0; k < train.count && at < train.end;
       ++k, at += train.period) {
    // lint: fire-and-forget (scripted workload; the scenario runs to its end)
    bed.net().scheduler().schedule_at(
        at, [&bed, channel, header, bytes = train.bytes, s = seq++] {
          bed.source().send(channel, bytes, s, *header);
        });
  }
  return seq;
}

/// The chaos churn window, replayed from now(): Poisson churn over
/// receivers 1..n-1 with a 4 s horizon and 2 s mean lifetime and
/// off-time. The horizon outlasts the campaign's churn window plus a
/// fault's hold, so every fault lands on a network with joins and
/// leaves in flight; receiver 0 stays as it is, so a subscribed
/// receiver 0 keeps the channel tree from collapsing mid-fault.
inline void churn_window(Testbed& bed, const ip::ChannelId& channel,
                         sim::Rng& rng) {
  replay_churn(bed, channel,
               workload::poisson_churn(
                   static_cast<std::uint32_t>(bed.receiver_count() - 1),
                   sim::seconds(4), sim::seconds(2), sim::seconds(2), rng),
               bed.net().now(), [](std::uint32_t i) { return i + 1; });
}

/// The tree both pinned scenarios run on: a binary router tree of
/// depth 3 with two hosts per leaf, 16 receivers.
inline workload::GeneratedTopology capture_tree() {
  return workload::make_kary_tree(2, 3, {}, 2);
}

/// Poisson join/leave churn over every receiver plus a periodic source
/// data train up to the horizon. The defaults are the pinned run.
struct SeededChurn {
  std::uint64_t seed = 7;
  sim::Duration horizon = sim::seconds(10);
  sim::Duration mean_lifetime = sim::seconds(5);
  sim::Duration mean_offtime = sim::seconds(3);
  sim::Duration period = sim::milliseconds(200);
  std::uint32_t bytes = 500;
  std::vector<std::uint8_t> header = std::vector<std::uint8_t>(32, 0x5A);
};

/// What a seeded-churn run leaves on the wire and at the receivers.
struct ChurnOutcome {
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t total_link_bytes = 0;
  std::uint64_t executed_events = 0;
  std::uint64_t data_delivered = 0;
};

/// Allocates a channel and schedules `run` on it from t = 0, churn
/// first and then the train from one period on; returns the channel.
inline ip::ChannelId schedule_seeded_churn(Testbed& bed,
                                           const SeededChurn& run = {}) {
  const ip::ChannelId channel = bed.source().allocate_channel();
  sim::Rng rng(run.seed);
  replay_churn(bed, channel,
               workload::poisson_churn(
                   static_cast<std::uint32_t>(bed.receiver_count()),
                   run.horizon, run.mean_lifetime, run.mean_offtime, rng));
  send_train(bed, channel,
             {.start = sim::Time{} + run.period,
              .period = run.period,
              .end = sim::Time{} + run.horizon,
              .bytes = run.bytes,
              .header = run.header});
  return channel;
}

/// Schedules `run`, runs the network dry and reports the outcome.
inline ChurnOutcome run_seeded_churn(Testbed& bed,
                                     const SeededChurn& run = {}) {
  schedule_seeded_churn(bed, run);
  net::Network& net = bed.net();
  net.run();
  ChurnOutcome out;
  out.packets_sent = net.stats().packets_sent;
  out.bytes_sent = net.stats().bytes_sent;
  out.total_link_bytes = net.total_link_bytes();
  out.executed_events = net.scheduler().executed_events();
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    out.data_delivered += bed.receiver(i).stats().data_received;
  }
  return out;
}

/// obs_capture's chaos campaign: every receiver subscribed, six link
/// flaps, router deaths and partitions drawn from `seed`, a churn
/// window plus ten 50 ms-spaced packets scheduled into each fault, and
/// a fresh invariant audit at every settle step.
inline workload::ChaosReport run_capture_chaos(Testbed& bed,
                                               std::uint64_t seed) {
  net::Network& net = bed.net();
  const ip::ChannelId channel = bed.source().allocate_channel();
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    // lint: fire-and-forget (scripted workload; the scenario runs to its end)
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
  std::uint64_t seq = 1;
  auto churn = [&](std::size_t) {
    churn_window(bed, channel, churn_rng);
    seq = send_train(bed, channel,
                     {.start = net.now() + sim::milliseconds(50),
                      .period = sim::milliseconds(50),
                      .count = 10,
                      .bytes = 300,
                      .first_seq = seq});
  };
  auto audit = [&net] {
    return audit::InvariantAuditor(net).run().violations.size();
  };
  return workload::run_chaos_campaign(net, schedule, workload::ChaosConfig{},
                                      audit, churn);
}

}  // namespace express::scenario
