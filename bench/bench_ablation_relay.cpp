// Ablation: per-source channels vs one shared session-relay channel
// (§4.4/§4.5 — the EXPRESS version of PIM-SM's shared-vs-source-tree
// tradeoff, except the *application* chooses).
//
// k speakers address n listeners. Option A: every speaker sources its
// own channel (k trees: lowest delay, k x state). Option B: all
// speakers relay through one SR channel (1 tree + unicast legs: ~half
// the state at k=2, growing savings with k, but relay delay).
#include <deque>
#include <memory>
#include <optional>

#include "common.hpp"
#include "testbed/delivery_log.hpp"
#include "testbed/testbed.hpp"
#include "relay/participant.hpp"
#include "relay/session_relay.hpp"

namespace {

using namespace express;

struct Option {
  std::size_t fib_entries = 0;
  double mean_delay_ms = 0;
};

Option per_source_channels(std::size_t speakers) {
  Testbed bed(workload::make_kary_tree(2, 3));  // 8 hosts
  std::deque<DeliveryLog> logs;
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    bed.receiver(i).set_data_handler(logs.emplace_back().handler());
  }
  // Speakers are hosts 0..k-1; every host subscribes to every channel.
  std::vector<ip::ChannelId> channels;
  for (std::size_t s = 0; s < speakers; ++s) {
    channels.push_back(bed.receiver(s).allocate_channel());
  }
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    for (const auto& ch : channels) bed.receiver(i).new_subscription(ch);
  }
  bed.run_for(sim::seconds(1));

  Option out;
  double delay_sum = 0;
  std::uint64_t deliveries = 0;
  for (std::size_t s = 0; s < speakers; ++s) {
    const sim::Time sent = bed.net().now();
    bed.receiver(s).send(channels[s], 500, s);
    bed.run_for(sim::seconds(1));
    for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
      if (i == s) continue;
      for (const auto& d : logs[i]) {
        if (d.channel == channels[s]) {
          delay_sum += sim::to_seconds(d.at - sent) * 1e3;
          ++deliveries;
        }
      }
    }
  }
  out.fib_entries = bed.total_fib_entries();
  out.mean_delay_ms = deliveries ? delay_sum / deliveries : 0;
  return out;
}

Option shared_relay(std::size_t speakers) {
  Testbed bed(workload::make_kary_tree(2, 3));
  relay::SessionRelay sr(bed.source(), relay::RelayConfig{});
  std::vector<std::unique_ptr<relay::Participant>> participants;
  // Each participant's latest delivered frame.
  std::vector<std::optional<relay::SessionDelivery>> last(
      bed.receiver_count());
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    participants.push_back(std::make_unique<relay::Participant>(
        bed.receiver(i), sr.channel(), bed.source().address()));
    participants.back()->set_delivery_handler(
        [&last, i](const relay::SessionDelivery& d) { last[i] = d; });
    sr.authorize(bed.receiver(i).address());
    participants.back()->join();
  }
  bed.run_for(sim::seconds(1));
  sr.start();
  bed.run_for(sim::seconds(1));

  Option out;
  double delay_sum = 0;
  std::uint64_t deliveries = 0;
  for (std::size_t s = 0; s < speakers; ++s) {
    const sim::Time sent = bed.net().now();
    participants[s]->speak(500);
    bed.run_for(sim::seconds(1));
    for (std::size_t i = 0; i < participants.size(); ++i) {
      if (i == s) continue;
      if (last[i] && last[i]->speaker == bed.receiver(s).address()) {
        delay_sum += sim::to_seconds(last[i]->at - sent) * 1e3;
        ++deliveries;
      }
    }
  }
  out.fib_entries = bed.total_fib_entries();
  out.mean_delay_ms = deliveries ? delay_sum / deliveries : 0;
  return out;
}

}  // namespace

int main() {
  using namespace express::bench;

  banner("ABL-relay / §4.4", "per-source channels vs shared SR channel");
  Table table({"speakers k", "structure", "FIB entries", "mean delay (ms)"});
  for (std::size_t k : {2u, 4u, 8u}) {
    const Option direct = per_source_channels(k);
    table.row({fmt_int(k), "k channels", fmt_int(direct.fib_entries),
               fmt(direct.mean_delay_ms, 2)});
    const Option relayed = shared_relay(k);
    table.row({fmt_int(k), "1 SR channel", fmt_int(relayed.fib_entries),
               fmt(relayed.mean_delay_ms, 2)});
  }
  table.print();
  note("k channels: state grows ~linearly in k, delay is direct-path;");
  note("one SR channel: state is flat in k, delay pays the unicast leg to");
  note("the relay. §4.4: \"the number of channels necessary is");
  note("intrinsically small because it is simply not productive to have");
  note("meetings with large numbers of active speakers\" — and the choice");
  note("belongs to the application, unlike PIM-SM's network-level policy.");
  return 0;
}
