// The scenario vocabulary of testbed/scenario.hpp: a churn schedule
// replays at its offsets from the base instant, onto the receivers its
// mapping names, in the direction each event says.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "testbed/scenario.hpp"

namespace express {
namespace {

TEST(Testbed, ReplaysChurnAtItsOffsetsOntoTheMappedReceivers) {
  Testbed bed(workload::make_kary_tree(2, 2));
  ASSERT_EQ(bed.receiver_count(), 4u);
  const ip::ChannelId ch = bed.source().allocate_channel();
  bed.run_for(sim::seconds(1));
  const sim::Time base = bed.net().now();

  // Schedule indices 0..2 land on receivers 1..3.
  const std::vector<workload::ChurnEvent> events = {
      {sim::milliseconds(10), 0, true},
      {sim::milliseconds(20), 2, true},
      {sim::milliseconds(30), 0, false},
      {sim::milliseconds(40), 1, true},
  };
  scenario::replay_churn(bed, ch, events, base,
                         [](std::uint32_t i) { return i + 1; });

  using State = std::array<bool, 4>;
  const auto subscribed = [&] {
    State s{};
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i] = bed.receiver(i).subscribed(ch);
    }
    return s;
  };
  const State expected[] = {
      {false, true, false, false},
      {false, true, false, true},
      {false, false, false, true},
      {false, false, true, true},
  };
  State before{};
  for (std::size_t k = 0; k < events.size(); ++k) {
    const sim::Time at = base + events[k].at;
    bed.net().run_until(at - sim::Duration{1});
    EXPECT_EQ(subscribed(), before) << "just before event " << k;
    bed.net().run_until(at);
    EXPECT_EQ(subscribed(), expected[k]) << "at event " << k;
    before = expected[k];
  }
}

}  // namespace
}  // namespace express
