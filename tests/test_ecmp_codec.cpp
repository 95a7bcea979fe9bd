// Unit tests for ECMP messages, countId ranges, and the wire codec —
// including the paper's byte-size invariants (16-byte unsolicited Count,
// +8 for the key, 92 Counts per 1480-byte segment).
#include <gtest/gtest.h>

#include "ecmp/codec.hpp"
#include "ecmp/count_id.hpp"
#include "ecmp/session.hpp"

namespace express::ecmp {
namespace {

ip::ChannelId test_channel() {
  return ip::ChannelId{ip::Address(10, 0, 0, 1), ip::Address::single_source(42)};
}

TEST(CountIdSpace, ReservedIdsAreDistinct) {
  EXPECT_NE(kSubscriberId, kNeighborsId);
  EXPECT_NE(kSubscriberId, kAllChannelsId);
  EXPECT_NE(kNeighborsId, kAllChannelsId);
}

TEST(CountIdSpace, RangeClassification) {
  EXPECT_TRUE(is_network_count(kLinkCountId));
  EXPECT_TRUE(is_network_count(kRouterCountId));
  EXPECT_TRUE(is_network_count(kWeightedTreeSizeId));
  EXPECT_FALSE(is_network_count(kSubscriberId));
  EXPECT_TRUE(is_local_count(0x1000));
  EXPECT_TRUE(is_local_count(0x3FFF));
  EXPECT_FALSE(is_local_count(0x4000));
  EXPECT_TRUE(is_app_count(0x4000));
  EXPECT_TRUE(is_app_count(0xFFFF));
}

TEST(CountIdSpace, HostForwardingRule) {
  // §3.1 footnote 3: network-layer counts never reach leaf hosts.
  EXPECT_TRUE(forwarded_to_hosts(kSubscriberId));
  EXPECT_TRUE(forwarded_to_hosts(kAppRangeBegin + 3));
  EXPECT_FALSE(forwarded_to_hosts(kLinkCountId));
  EXPECT_FALSE(forwarded_to_hosts(0x1234));  // locally-defined
}

TEST(Codec, UnsolicitedCountIsSixteenBytes) {
  // §5.3: "approximately 92 16-byte Count messages fit in a 1480-byte
  // maximum-sized TCP segment".
  Count c;
  c.channel = test_channel();
  c.count = 12345;
  EXPECT_EQ(encoded_size(Message{c}), 16u);
  EXPECT_EQ(messages_per_segment(Message{c}), 92u);
}

TEST(Codec, KeyAddsEightBytes) {
  // §5.2: "adding another eight bytes to store K(S,E)".
  Count c;
  c.channel = test_channel();
  c.count = 1;
  c.key = 0xDEADBEEFCAFEF00DULL;
  EXPECT_EQ(encoded_size(Message{c}), 24u);
}

TEST(Codec, CountRoundTrip) {
  Count c;
  c.channel = test_channel();
  c.count_id = kSubscriberId;
  c.count = 9999999;
  const auto bytes = encode(Message{c});
  EXPECT_EQ(bytes.size(), encoded_size(Message{c}));
  auto parsed = decode(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->second, bytes.size());
  const auto& m = std::get<Count>(parsed->first);
  EXPECT_EQ(m.channel, c.channel);
  EXPECT_EQ(m.count_id, c.count_id);
  EXPECT_EQ(m.count, c.count);
  EXPECT_EQ(m.query_seq, 0u);
  EXPECT_FALSE(m.key.has_value());
}

TEST(Codec, CountWithSeqAndKeyRoundTrip) {
  Count c;
  c.channel = test_channel();
  c.count_id = kAppRangeBegin + 7;
  c.count = 1;
  c.query_seq = 0xABCD1234;
  c.key = 42;
  const auto bytes = encode(Message{c});
  auto parsed = decode(bytes);
  ASSERT_TRUE(parsed.has_value());
  const auto& m = std::get<Count>(parsed->first);
  EXPECT_EQ(m.query_seq, c.query_seq);
  ASSERT_TRUE(m.key.has_value());
  EXPECT_EQ(*m.key, 42u);
}

TEST(Codec, CountSaturatesAtU32Max) {
  Count c;
  c.channel = test_channel();
  c.count = (1LL << 40);  // exceeds the 32-bit wire field
  auto parsed = decode(encode(Message{c}));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(std::get<Count>(parsed->first).count, 0xFFFFFFFFLL);
}

TEST(Codec, NegativeCountClampsToZero) {
  Count c;
  c.channel = test_channel();
  c.count = -5;
  auto parsed = decode(encode(Message{c}));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(std::get<Count>(parsed->first).count, 0);
}

TEST(Codec, CountQueryRoundTrip) {
  CountQuery q;
  q.channel = test_channel();
  q.count_id = kLinkCountId;
  q.timeout = sim::milliseconds(2500);
  q.query_seq = 77;
  auto parsed = decode(encode(Message{q}));
  ASSERT_TRUE(parsed.has_value());
  const auto& m = std::get<CountQuery>(parsed->first);
  EXPECT_EQ(m.channel, q.channel);
  EXPECT_EQ(m.count_id, q.count_id);
  EXPECT_EQ(m.timeout, q.timeout);
  EXPECT_EQ(m.query_seq, q.query_seq);
}

TEST(Codec, CountResponseRoundTrip) {
  for (Status status : {Status::kOk, Status::kUnsupportedCount,
                        Status::kInvalidKey, Status::kNotOnTree}) {
    CountResponse r;
    r.channel = test_channel();
    r.status = status;
    auto parsed = decode(encode(Message{r}));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(std::get<CountResponse>(parsed->first).status, status);
  }
}

TEST(Codec, KeyRegisterRoundTrip) {
  KeyRegister k;
  k.channel = test_channel();
  k.key = 0x0123456789ABCDEFULL;
  auto parsed = decode(encode(Message{k}));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(std::get<KeyRegister>(parsed->first).key, k.key);
}

TEST(Codec, DecodeRejectsTruncatedInput) {
  Count c;
  c.channel = test_channel();
  c.count = 5;
  c.key = 9;
  auto bytes = encode(Message{c});
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(decode(std::span(bytes).first(n))) << "prefix length " << n;
  }
}

TEST(Codec, DecodeRejectsUnknownType) {
  std::vector<std::uint8_t> bytes(16, 0);
  bytes[0] = 0x77;
  EXPECT_FALSE(decode(bytes));
}

TEST(Codec, DecodeRejectsBadStatus) {
  CountResponse r;
  r.channel = test_channel();
  auto bytes = encode(Message{r});
  bytes[12] = 0x20;  // invalid status value
  EXPECT_FALSE(decode(bytes));
}

TEST(Codec, BatchRoundTrip) {
  std::vector<std::uint8_t> segment;
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    Count c;
    c.channel = test_channel();
    c.count = i;
    encode(Message{c}, segment);
  }
  const auto messages = decode_all(segment);
  ASSERT_EQ(messages.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(std::get<Count>(messages[static_cast<std::size_t>(i)]).count, i);
  }
}

TEST(Codec, BatchStopsAtGarbage) {
  Count c;
  c.channel = test_channel();
  c.count = 1;
  auto segment = encode(Message{c});
  segment.push_back(0xFF);  // unknown-type tail
  EXPECT_EQ(decode_all(segment).size(), 1u);
}

TEST(NeighborTable, FirstContactIsNotARevival) {
  NeighborTable t;
  EXPECT_FALSE(t.heard_from(3, sim::seconds(1)));
  EXPECT_FALSE(t.heard_from(3, sim::seconds(2)));
  // One live session, last heard at 2 s: silent past the timeout at
  // 8 s, not yet at 7 s.
  EXPECT_TRUE(t.expire(sim::seconds(7), sim::seconds(5)).empty());
  const auto dead = t.expire(sim::seconds(8), sim::seconds(5));
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].neighbor, 3u);
  EXPECT_EQ(dead[0].last_heard, sim::seconds(2));
}

TEST(NeighborTable, ExpiresSilentNeighbors) {
  NeighborTable t;
  t.heard_from(1, sim::seconds(0));
  t.heard_from(2, sim::seconds(9));
  auto dead = t.expire(sim::seconds(10), sim::seconds(5));
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].neighbor, 1u);
  // A dead session expires once; 2 is still alive and expires later.
  dead = t.expire(sim::seconds(15), sim::seconds(5));
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].neighbor, 2u);
  // Re-hearing revives the session (reports re-establishment), and a
  // revived session can expire again.
  EXPECT_TRUE(t.heard_from(1, sim::seconds(16)));
  EXPECT_FALSE(t.heard_from(1, sim::seconds(17)));
  dead = t.expire(sim::seconds(30), sim::seconds(5));
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].neighbor, 1u);
}

TEST(NeighborTable, ExpireReturnsDeadSessionsInNeighborIdOrder) {
  // Regression for the hash-order bug the determinism sweep fixed: the
  // dead list drives death callbacks (count subtraction, upstream
  // prunes), so its order is protocol-visible. It used to be whatever
  // order the session hash map yielded; it must be ascending neighbor
  // id regardless of when each session was first heard.
  NeighborTable t;
  t.heard_from(7, sim::seconds(0));
  t.heard_from(3, sim::seconds(0));
  t.heard_from(9, sim::seconds(0));
  t.heard_from(1, sim::seconds(0));
  auto dead = t.expire(sim::seconds(10), sim::seconds(5));
  ASSERT_EQ(dead.size(), 4u);
  EXPECT_EQ(dead[0].neighbor, 1u);
  EXPECT_EQ(dead[1].neighbor, 3u);
  EXPECT_EQ(dead[2].neighbor, 7u);
  EXPECT_EQ(dead[3].neighbor, 9u);
}

}  // namespace
}  // namespace express::ecmp
