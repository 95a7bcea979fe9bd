// Internet TV — the paper's "sports-tv.net" scenario at simulator scale.
//
// A content provider sources an *authenticated* channel to a wide-area
// audience on a transit-stub topology. The example shows the three
// problems of the group model being solved (§1):
//   * access control: a pirate subscription without K(S,E) is refused,
//     and a third party blasting the channel's address reaches nobody;
//   * audience accounting: the provider samples the subscriber count
//     mid-broadcast and runs a viewer vote (app-defined countId);
//   * proactive counting keeps a live audience figure at the head-end.
//
// Build & run:  ./build/examples/internet_tv
#include <cstdio>

#include "testbed/testbed.hpp"

int main() {
  using namespace express;

  sim::Rng rng(7);
  RouterConfig config;
  config.proactive = counting::CurveParams{0.3, 30.0, 4.0};
  Testbed bed(workload::make_transit_stub(/*transit=*/6, /*stubs=*/3,
                                          /*hosts_per_stub=*/4, rng),
              config);
  std::printf("network: %zu routers, %zu receiver hosts\n", bed.router_count(),
              bed.receiver_count());

  // The broadcaster registers the channel key: only subscriptions
  // presenting it are accepted anywhere in the network (§2.1, §3.5).
  ExpressHost& station = bed.source();
  const ip::ChannelId feed = station.allocate_channel();
  constexpr ip::ChannelKey kTicketKey = 0x5EA50EBB01ULL;
  station.channel_key(feed, kTicketKey);
  bed.run_for(sim::seconds(1));

  // Paying viewers subscribe with the key; one freeloader tries without.
  int accepted = 0, rejected = 0;
  for (std::size_t i = 0; i + 1 < bed.receiver_count(); ++i) {
    bed.receiver(i).new_subscription(feed, kTicketKey, [&](ecmp::Status s) {
      s == ecmp::Status::kOk ? ++accepted : ++rejected;
    });
  }
  ExpressHost& freeloader = bed.receiver(bed.receiver_count() - 1);
  freeloader.new_subscription(feed, std::nullopt, [&](ecmp::Status s) {
    std::printf("freeloader without key: %s\n", to_string(s));
  });
  bed.run_for(sim::seconds(2));
  std::printf("subscriptions accepted: %d, rejected: %d\n", accepted, rejected);

  // Kickoff: 4 Mb/s MPEG-2 feed, modelled as 1500-byte packets.
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    station.send(feed, 1480, seq);
    bed.run_for(sim::milliseconds(100));
  }
  std::uint64_t delivered = 0, unwanted = 0;
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    delivered += bed.receiver(i).stats().data_received;
    unwanted += bed.receiver(i).stats().unwanted_data;
  }
  std::printf("feed packets delivered: %llu (unwanted at hosts: %llu)\n",
              static_cast<unsigned long long>(delivered),
              static_cast<unsigned long long>(unwanted));

  // A rival tries to hijack the moment of the touchdown (§1 problem 3):
  // same E, its own S — a different, subscriber-less channel.
  freeloader.send(ip::ChannelId{freeloader.address(), feed.dest}, 4000, 666);
  bed.run_for(sim::seconds(1));
  std::uint64_t still_unwanted = 0;
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    still_unwanted += bed.receiver(i).stats().unwanted_data;
  }
  std::printf("after hijack attempt, unwanted deliveries: %llu\n",
              static_cast<unsigned long long>(still_unwanted));

  // Head-end live audience figure (proactive counting, §6).
  std::printf("live audience at head-end router: %lld\n",
              static_cast<long long>(bed.source_router().subtree_count(feed)));

  // Halftime poll: "vote 1 if you want more replays" (§2.2.1's
  // application-defined countId with a subscriber dialog box).
  const ecmp::CountId kReplayVote = ecmp::kAppRangeBegin + 42;
  for (std::size_t i = 0; i + 1 < bed.receiver_count(); ++i) {
    const bool wants_replays = (i % 3 != 0);
    bed.receiver(i).set_count_handler(kReplayVote, [wants_replays]() {
      return std::optional<std::int64_t>(wants_replays ? 1 : 0);
    });
  }
  station.count_query(feed, kReplayVote, sim::seconds(5), [](CountResult r) {
    std::printf("replay vote: %lld yes (%s)\n",
                static_cast<long long>(r.count),
                r.complete ? "complete" : "partial");
  });

  // And the ISP-side view: how many links does this channel occupy in
  // the operator's domain (router-initiated network-layer count, §3.1)?
  bed.source_router().initiate_count(
      feed, ecmp::kLinkCountId, sim::seconds(5), [](CountResult r) {
        std::printf("distribution tree links (ISP settlement data): %lld\n",
                    static_cast<long long>(r.count));
      });
  bed.run_for(sim::seconds(10));
  return 0;
}
