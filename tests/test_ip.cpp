// Unit tests for IPv4 addressing, the single-source range and channel
// ids.
#include <gtest/gtest.h>

#include "ip/address.hpp"
#include "ip/channel.hpp"

namespace express::ip {
namespace {

TEST(Address, ParseValid) {
  auto a = Address::parse("10.1.2.3");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->value(), 0x0A010203u);
  EXPECT_EQ(a->to_string(), "10.1.2.3");
}

TEST(Address, ParseBoundaries) {
  EXPECT_EQ(Address::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(Address::parse("255.255.255.255")->value(), 0xFFFFFFFFu);
}

TEST(Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Address::parse(""));
  EXPECT_FALSE(Address::parse("1.2.3"));
  EXPECT_FALSE(Address::parse("1.2.3.4.5"));
  EXPECT_FALSE(Address::parse("256.1.1.1"));
  EXPECT_FALSE(Address::parse("1.2.3.x"));
  EXPECT_FALSE(Address::parse("1..2.3"));
  EXPECT_FALSE(Address::parse("1.2.3.4 "));
  EXPECT_FALSE(Address::parse("-1.2.3.4"));
}

TEST(Address, MulticastClassD) {
  EXPECT_TRUE(Address(224, 0, 0, 1).is_multicast());
  EXPECT_TRUE(Address(239, 255, 255, 255).is_multicast());
  EXPECT_FALSE(Address(223, 255, 255, 255).is_multicast());
  EXPECT_FALSE(Address(240, 0, 0, 0).is_multicast());
}

TEST(Address, SingleSourceRangeIs232Slash8) {
  // Paper Fig. 2: 2^24 class D addresses at 232/8.
  EXPECT_TRUE(Address(232, 0, 0, 0).is_single_source());
  EXPECT_TRUE(Address(232, 255, 255, 255).is_single_source());
  EXPECT_FALSE(Address(231, 255, 255, 255).is_single_source());
  EXPECT_FALSE(Address(233, 0, 0, 0).is_single_source());
  EXPECT_TRUE(Address(232, 1, 2, 3).is_multicast());
}

TEST(Address, AdminScopedAndLinkLocal) {
  EXPECT_TRUE(Address(239, 1, 2, 3).is_admin_scoped());
  EXPECT_FALSE(Address(238, 1, 2, 3).is_admin_scoped());
  EXPECT_TRUE(Address(224, 0, 0, 5).is_link_local_multicast());
  EXPECT_FALSE(Address(224, 0, 1, 5).is_link_local_multicast());
  EXPECT_TRUE(kEcmpAllRouters.is_link_local_multicast());
}

TEST(Address, SingleSourceConstructorAndIndex) {
  const Address e = Address::single_source(0x00ABCDEF);
  EXPECT_TRUE(e.is_single_source());
  EXPECT_EQ(e.channel_index(), 0x00ABCDEFu);
  // Index masked to 24 bits.
  EXPECT_EQ(Address::single_source(0xFFFFFFFF).channel_index(), 0x00FFFFFFu);
}

TEST(Address, ChannelSpaceConstants) {
  // Paper: 2^24 channels per host; 2^28 shared class D addresses.
  EXPECT_EQ(kChannelsPerHost, 1ull << 24);
  EXPECT_EQ(kClassDAddresses, 1ull << 28);
}

TEST(Address, UnicastClassification) {
  EXPECT_TRUE(Address(10, 0, 0, 1).is_unicast());
  EXPECT_FALSE(Address(224, 0, 0, 1).is_unicast());
  EXPECT_FALSE(Address{}.is_unicast());
}

TEST(Channel, ValidityRequiresUnicastSourceAndSingleSourceDest) {
  const Address s(10, 0, 0, 1);
  EXPECT_TRUE((ChannelId{s, Address::single_source(5)}).valid());
  EXPECT_FALSE((ChannelId{s, Address(225, 0, 0, 5)}).valid());
  EXPECT_FALSE((ChannelId{Address(224, 0, 0, 1), Address::single_source(5)}).valid());
}

TEST(Channel, IdentityIsThePair) {
  // Paper §2: (S,E) and (S',E) are unrelated channels.
  const Address e = Address::single_source(1);
  const ChannelId a{Address(10, 0, 0, 1), e};
  const ChannelId b{Address(10, 0, 0, 2), e};
  EXPECT_NE(a, b);
  EXPECT_NE(std::hash<ChannelId>{}(a), std::hash<ChannelId>{}(b));
  const ChannelId a2{Address(10, 0, 0, 1), e};
  EXPECT_EQ(a, a2);
  EXPECT_EQ(std::hash<ChannelId>{}(a), std::hash<ChannelId>{}(a2));
}

}  // namespace
}  // namespace express::ip
