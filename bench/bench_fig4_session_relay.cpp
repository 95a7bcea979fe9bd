// F4 (Fig. 4): the session relay approach.
//
// A secondary speaker relays through the SR onto the channel (SR, E).
// We measure end-to-end delay from the speaker to every participant and
// check the paper's §4.5 bound: relayed delay <= 2x the distance from
// the most distant subscriber to the SR (symmetric paths).
#include <optional>

#include "common.hpp"
#include "testbed/testbed.hpp"
#include "relay/participant.hpp"
#include "relay/session_relay.hpp"

int main() {
  using namespace express;
  using namespace express::bench;

  banner("F4 / Fig. 4", "the session relay approach");
  Testbed bed(workload::make_kary_tree(2, 3));  // 8 receivers
  relay::SessionRelay sr(bed.source(), relay::RelayConfig{});

  std::vector<std::unique_ptr<relay::Participant>> participants;
  // Arrival time of each participant's latest relayed frame.
  std::vector<std::optional<sim::Time>> last_at(bed.receiver_count());
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    participants.push_back(std::make_unique<relay::Participant>(
        bed.receiver(i), sr.channel(), bed.source().address()));
    participants.back()->set_delivery_handler(
        [&last_at, i](const relay::SessionDelivery& d) { last_at[i] = d.at; });
    sr.authorize(bed.receiver(i).address());
    participants.back()->join();
  }
  bed.run_for(sim::seconds(1));
  sr.start();
  bed.run_for(sim::seconds(1));

  // Speaker = participant 0 ("A says hello" in Fig. 4).
  const sim::Time spoke_at = bed.net().now();
  participants[0]->speak(800);
  bed.run_for(sim::seconds(1));

  const auto& routing = bed.net().routing();
  const net::NodeId sr_node = bed.roles().source_host;

  // The bound's reference distance: max one-way delay SR -> subscriber.
  double max_sr_delay_ms = 0;
  for (net::NodeId h : bed.roles().receiver_hosts) {
    max_sr_delay_ms = std::max(
        max_sr_delay_ms,
        sim::to_seconds(routing.path_delay(sr_node, h).value()) * 1e3);
  }

  Table table({"participant", "delay via SR (ms)", "direct unicast (ms)",
               "stretch"});
  double worst_relayed = 0;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    if (!last_at[i]) {
      table.row({"recv" + std::to_string(i), "-", "-", "-"});
      continue;
    }
    const double relayed_ms = sim::to_seconds(*last_at[i] - spoke_at) * 1e3;
    worst_relayed = std::max(worst_relayed, relayed_ms);
    const double direct_ms =
        sim::to_seconds(routing
                            .path_delay(bed.roles().receiver_hosts[0],
                                        bed.roles().receiver_hosts[i])
                            .value()) *
        1e3;
    table.row({"recv" + std::to_string(i), fmt(relayed_ms, 2),
               fmt(direct_ms, 2),
               direct_ms > 0 ? fmt(relayed_ms / direct_ms, 2) : "-"});
  }
  table.print();
  note("max SR->subscriber one-way delay: " + fmt(max_sr_delay_ms, 2) + " ms");
  note("worst relayed delay: " + fmt(worst_relayed, 2) +
       " ms; paper bound (2x max distance): " + fmt(2 * max_sr_delay_ms, 2) +
       " ms -> " +
       (worst_relayed <= 2 * max_sr_delay_ms + 0.5 ? "HOLDS" : "VIOLATED"));
  note("relayed frames: " + fmt_int(sr.stats().frames_relayed) +
       ", unauthorized drops: " + fmt_int(sr.stats().dropped_unauthorized));
  return 0;
}
