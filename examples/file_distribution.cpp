// Wide-area file distribution with NACK counting and subcast repair.
//
// The paper lists "wide-area multicast file updates" among the target
// applications and points out two EXPRESS features that make reliable
// delivery cheap (§2.2.1, §2.1):
//   * counting "can be used to efficiently collect positive or negative
//     acknowledgements to determine how many subscribers missed a
//     particular packet";
//   * subcast lets the source retransmit through an interior router so
//     the repair reaches only the subtree that needs it.
//
// This example pushes a 10-block file, lets one stub of receivers join
// late (missing early blocks), counts the misses per block with an
// app-defined countId, and repairs via subcast through the stub router.
//
// Build & run:  ./build/examples/file_distribution
#include <cstdio>
#include <set>
#include <vector>

#include "testbed/testbed.hpp"

namespace {

constexpr int kBlocks = 10;
constexpr std::uint32_t kBlockBytes = 1400;

}  // namespace

int main() {
  using namespace express;

  Testbed bed(workload::make_kary_tree(2, 2, {}, 4));  // 4 leaves x 4 hosts
  ExpressHost& publisher = bed.source();
  const ip::ChannelId channel = publisher.allocate_channel();

  // Per-host received-block bookkeeping + per-block NACK responders.
  std::vector<std::set<std::uint64_t>> received(bed.receiver_count());
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    bed.receiver(i).set_data_handler(
        [&received, i](const net::Packet& packet, sim::Time) {
          received[i].insert(packet.sequence);
        });
    for (int block = 1; block <= kBlocks; ++block) {
      const auto count_id =
          static_cast<ecmp::CountId>(ecmp::kAppRangeBegin + block);
      bed.receiver(i).set_count_handler(count_id, [&received, i, block]() {
        // NACK: answer 1 if this block is missing.
        return std::optional<std::int64_t>(
            received[i].contains(static_cast<std::uint64_t>(block)) ? 0 : 1);
      });
    }
  }

  // Hosts 0..11 subscribe on time; the last leaf's hosts (12..15) join
  // after block 4 — they will miss the first four blocks.
  for (std::size_t i = 0; i < 12; ++i) {
    bed.receiver(i).new_subscription(channel);
  }
  bed.run_for(sim::seconds(1));

  for (int block = 1; block <= kBlocks; ++block) {
    if (block == 5) {
      for (std::size_t i = 12; i < bed.receiver_count(); ++i) {
        bed.receiver(i).new_subscription(channel);
      }
      bed.run_for(sim::seconds(1));
    }
    publisher.send(channel, kBlockBytes, static_cast<std::uint64_t>(block));
    bed.run_for(sim::milliseconds(200));
  }
  bed.run_for(sim::seconds(1));

  // --- NACK collection: one CountQuery per block ------------------------
  std::printf("block  missing\n");
  std::vector<int> missing_per_block(kBlocks + 1, 0);
  for (int block = 1; block <= kBlocks; ++block) {
    const auto count_id =
        static_cast<ecmp::CountId>(ecmp::kAppRangeBegin + block);
    publisher.count_query(channel, count_id, sim::seconds(2),
                          [&missing_per_block, block](CountResult r) {
                            missing_per_block[block] =
                                static_cast<int>(r.count);
                          });
    bed.run_for(sim::seconds(4));
    std::printf("%5d  %d\n", block, missing_per_block[block]);
  }

  // --- repair via subcast through the late stub's router ----------------
  // The late joiners all sit under the last leaf router; subcasting the
  // missing blocks through it spares the 12 already-complete hosts.
  const ExpressRouter& last_leaf =
      bed.router(bed.router_count() - 1);  // kary layout: leaves are last
  const ip::Address repair_point =
      bed.net().topology().node(last_leaf.id()).address;
  int repairs = 0;
  for (int block = 1; block <= kBlocks; ++block) {
    if (missing_per_block[block] > 0) {
      publisher.subcast(channel, repair_point, kBlockBytes,
                        static_cast<std::uint64_t>(block));
      ++repairs;
    }
  }
  bed.run_for(sim::seconds(1));
  std::printf("retransmitted %d blocks via subcast through %s\n", repairs,
              repair_point.to_string().c_str());

  // --- verify everyone has the whole file --------------------------------
  std::size_t complete = 0;
  std::uint64_t duplicates_at_ontime_hosts = 0;
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    if (received[i].size() == kBlocks) ++complete;
    if (i < 12) {
      duplicates_at_ontime_hosts +=
          bed.receiver(i).stats().data_received - kBlocks;
    }
  }
  std::printf("hosts with the complete file: %zu / %zu\n", complete,
              bed.receiver_count());
  std::printf("repair copies wasted on already-complete hosts: %llu\n",
              static_cast<unsigned long long>(duplicates_at_ontime_hosts));
  return 0;
}
