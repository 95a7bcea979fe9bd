// Session-relay framing (§4.1).
//
// The SR speaks two ways: unicast control/data from participants to the
// relay host, and relayed frames multicast on the SR's EXPRESS channel.
// Every frame carries the original sender and the SR-assigned sequence
// number (§4.2: "the SR can add sequence numbers to relayed packets, as
// required in reliable multicast protocols").
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ip/address.hpp"
#include "ip/channel.hpp"
#include "sim/time.hpp"

namespace express::relay {

/// The SR's liveness beacon (kHeartbeat frames multicast on its channel)
/// and the watchdog every watcher of it arms — a participant before
/// failing over, a standby before promoting its backup relay.
inline constexpr sim::Duration kHeartbeatInterval = sim::seconds(1);
/// Beacons missed before a watcher declares the SR dead.
inline constexpr std::uint32_t kHeartbeatsMissed = 3;
/// Watchdog deadline after the last beacon seen: the missed beacons plus
/// half a period of slack.
inline constexpr sim::Duration kHeartbeatDeadline =
    kHeartbeatInterval * kHeartbeatsMissed + kHeartbeatInterval / 2;

enum class FrameType : std::uint8_t {
  kData = 1,            ///< relayed application data
  kHeartbeat = 2,       ///< SR liveness beacon on the channel
  kFloorRequest = 3,    ///< participant -> SR
  kFloorGrant = 4,      ///< SR -> channel: `speaker` holds the floor
  kFloorRelease = 5,    ///< participant -> SR
  kFloorDeny = 6,       ///< SR -> channel (or implied): request refused
  /// §4.1 alternative to pure relaying: a long-running secondary sender
  /// creates its own channel and "uses the SR to ask all other session
  /// participants to subscribe to the new channel". `speaker` is the
  /// new channel's source S; `relay_seq`'s low 24 bits are E's index.
  kChannelAnnounce = 7,
};

struct Frame {
  FrameType type = FrameType::kData;
  ip::Address speaker;          ///< original sender / floor subject
  std::uint64_t relay_seq = 0;  ///< SR-assigned sequence number

  static constexpr std::size_t kSize = 13;
};

[[nodiscard]] std::vector<std::uint8_t> encode(const Frame& frame);
[[nodiscard]] std::optional<Frame> decode(std::span<const std::uint8_t> bytes);

/// Pack / unpack the announced channel of a kChannelAnnounce frame.
[[nodiscard]] Frame make_channel_announce(const ip::ChannelId& channel);
[[nodiscard]] ip::ChannelId announced_channel(const Frame& frame);

}  // namespace express::relay
