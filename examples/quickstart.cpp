// Quickstart: the EXPRESS service interface in ~60 lines.
//
//   1. build a small simulated network (one source, four receivers)
//   2. the source allocates a channel from its private 2^24 space
//   3. receivers call newSubscription(channel)
//   4. the source sends; the network delivers along the RPF tree
//   5. the source polls the audience with CountQuery
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "testbed/testbed.hpp"

int main() {
  using namespace express;

  // A star: source host behind the root router, four receivers each
  // behind their own edge router, 1 ms edge links.
  Testbed bed(workload::make_star(/*receivers=*/4, /*hops=*/1));

  // --- source side ----------------------------------------------------
  ExpressHost& tv = bed.source();
  const ip::ChannelId channel = tv.allocate_channel();
  std::printf("source %s allocated channel %s\n",
              tv.address().to_string().c_str(), channel.to_string().c_str());

  // --- subscribers ----------------------------------------------------
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    bed.receiver(i).new_subscription(channel, std::nullopt,
                                     [i](ecmp::Status status) {
                                       std::printf("receiver %zu: %s\n", i,
                                                   to_string(status));
                                     });
  }
  bed.run_for(sim::seconds(1));  // joins propagate, tree is built

  // --- transmit ---------------------------------------------------------
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    tv.send(channel, /*bytes=*/1200, seq);
  }
  bed.run_for(sim::seconds(1));
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    std::printf("receiver %zu got %llu packets\n", i,
                static_cast<unsigned long long>(
                    bed.receiver(i).stats().data_received));
  }

  // --- count the audience (ECMP CountQuery, paper §3.1) ---------------
  tv.count_query(channel, ecmp::kSubscriberId, sim::seconds(2),
                 [](CountResult result) {
                   std::printf("subscriber count: %lld (%s)\n",
                               static_cast<long long>(result.count),
                               result.complete ? "complete" : "partial");
                 });
  bed.run_for(sim::seconds(3));

  // --- clean teardown ---------------------------------------------------
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    bed.receiver(i).delete_subscription(channel);
  }
  bed.run_for(sim::seconds(1));
  std::printf("FIB entries remaining after unsubscribe: %zu\n",
              bed.total_fib_entries());
  return 0;
}
