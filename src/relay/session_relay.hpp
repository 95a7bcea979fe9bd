// The session relay (§4.1): application-level rendezvous for almost-
// single-source sessions.
//
// The SR host sources the EXPRESS channel (SR, E) every participant
// subscribes to. Secondary senders unicast their frames to the SR,
// which enforces access control and floor control ("an intelligent
// audience microphone", §4.2), stamps relay sequence numbers, and
// multicasts on the channel. Unlike a PIM-SM rendezvous point or CBT
// core, all of this policy lives in the application: placement, backup
// (hot/cold standby), who may speak, and how often.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "express/host.hpp"
#include "ip/channel.hpp"
#include "net/packet.hpp"
#include "obs/obs.hpp"
#include "relay/wire.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace express::relay {

struct RelayConfig {
  /// Require authorize() before a sender's frames are relayed.
  bool access_control = true;
  /// Serialize speakers: only the floor holder's data is relayed.
  bool floor_control = false;
  /// §4.2: "no member disrupts the session with excessive questions".
  std::uint32_t max_floor_grants_per_member = 1000;
};

struct RelayStats {
  std::uint64_t frames_relayed = 0;
  std::uint64_t dropped_unauthorized = 0;
  std::uint64_t dropped_no_floor = 0;
  std::uint64_t floor_grants = 0;
  std::uint64_t floor_denials = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t channels_announced = 0;  ///< §4.1 direct-channel switchovers
};

class SessionRelay {
 public:
  /// Takes over the host's unicast handler and allocates the session
  /// channel from the host's channel space.
  SessionRelay(ExpressHost& host, RelayConfig config = {});

  [[nodiscard]] const ip::ChannelId& channel() const { return channel_; }

  /// The relay's host stack — lets session middleware compose with the
  /// reliable layer (e.g. a reliable::Publisher sourcing the session
  /// channel through the relay host).
  [[nodiscard]] ExpressHost& host() { return host_; }

  /// Copy of the registry-bound block (see DESIGN.md §11).
  [[nodiscard]] RelayStats stats() const { return *stats_; }
  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] std::optional<ip::Address> floor_holder() const {
    return floor_holder_;
  }

  /// Begin heartbeating and relaying.
  void start();

  /// Simulate SR failure (or graceful shutdown): stops heartbeats and
  /// relaying. A standby cluster detects this via heartbeat loss.
  void stop();

  void authorize(ip::Address sender) { authorized_.insert(sender); }
  void revoke(ip::Address sender) { authorized_.erase(sender); }
  [[nodiscard]] bool authorized(ip::Address sender) const {
    return !config_.access_control || authorized_.contains(sender);
  }

  /// The SR host speaking as the primary source (§4.1: the lecturer
  /// "either resides on the SR or relays its packets to it").
  void send_as_primary(std::uint32_t bytes);

 private:
  void on_unicast(const net::Packet& packet);
  void relay_frame(ip::Address original_sender, std::uint32_t bytes);
  void grant_next_floor();
  void announce(FrameType type, ip::Address speaker);
  void heartbeat();

  ExpressHost& host_;
  RelayConfig config_;
  ip::ChannelId channel_;
  obs::Scope scope_;
  RelayStats* stats_ = nullptr;  ///< registry-owned block
  bool active_ = false;
  std::uint64_t next_seq_ = 1;       ///< control frames (heartbeat, floor)
  std::uint64_t next_data_seq_ = 1;  ///< relayed data, gap-detectable
  std::unordered_set<ip::Address> authorized_;
  std::optional<ip::Address> floor_holder_;
  std::deque<ip::Address> floor_queue_;
  std::unordered_map<ip::Address, std::uint32_t> grants_used_;
  sim::EventHandle heartbeat_timer_;
};

}  // namespace express::relay
