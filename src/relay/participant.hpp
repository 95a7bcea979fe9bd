// Participant middleware for SR-based sessions (§4.1/§4.2).
//
// Wraps a receiver host: subscribes to the session channel(s), parses
// relay frames, tracks the floor, monitors SR heartbeats, and fails
// over to a backup channel — pre-subscribed ("hot") or subscribed on
// failure ("cold"), the two standby options the paper names.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "express/host.hpp"
#include "ip/channel.hpp"
#include "net/packet.hpp"
#include "relay/wire.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace express::relay {

enum class StandbyMode : std::uint8_t { kNone, kHot, kCold };

struct ParticipantConfig {
  /// Fails over after kHeartbeatDeadline without a primary beacon.
  StandbyMode standby = StandbyMode::kNone;
};

/// One data frame a participant delivered: the record its delivery
/// handler receives.
struct SessionDelivery {
  ip::Address speaker;        ///< original sender, per the relay frame
  std::uint64_t relay_seq = 0;
  std::uint32_t bytes = 0;
  sim::Time at{};
  bool via_backup = false;
};

class Participant {
 public:
  Participant(ExpressHost& host, ip::ChannelId primary,
              ip::Address primary_sr,
              std::optional<ip::ChannelId> backup = std::nullopt,
              std::optional<ip::Address> backup_sr = std::nullopt,
              ParticipantConfig config = {});

  /// Subscribe to the session (and the backup channel in hot standby).
  void join();
  void leave();

  /// Unicast a data frame to the currently active SR.
  void speak(std::uint32_t bytes);
  void request_floor();
  void release_floor();

  // --- §4.1 direct-channel switchover -------------------------------
  /// For a secondary sender "going to transmit for an extended period":
  /// allocate an own channel and ask the SR to announce it to the
  /// session. Every other participant joins it.
  ip::ChannelId create_direct_channel();
  /// Transmit on the direct channel created above (bypasses the SR).
  void send_direct(std::uint32_t bytes);
  [[nodiscard]] const std::vector<ip::ChannelId>& announced_channels() const {
    return announced_;
  }

  [[nodiscard]] bool has_floor() const {
    return floor_holder_ == host_.address();
  }
  [[nodiscard]] std::optional<ip::Address> floor_holder() const {
    return floor_holder_;
  }
  /// Invoked for every data frame delivered (relayed, via the backup
  /// channel, or on an announced direct channel). The participant keeps
  /// no per-frame log; a caller that needs one records it here. The
  /// slot has one owner: a second install throws std::logic_error.
  using DeliveryHandler = std::function<void(const SessionDelivery&)>;
  void set_delivery_handler(DeliveryHandler handler);
  [[nodiscard]] bool failed_over() const { return failed_over_; }
  [[nodiscard]] std::optional<sim::Time> failover_at() const {
    return failover_at_;
  }
  /// Gap detection over relay sequence numbers (§4.2 reliable relaying).
  [[nodiscard]] std::vector<std::uint64_t> missing_seqs() const;

 private:
  void on_channel_data(const net::Packet& packet, sim::Time at);
  void deliver(const SessionDelivery& delivery) {
    if (delivery_handler_) delivery_handler_(delivery);
  }
  void arm_failover_timer();
  void fail_over();
  [[nodiscard]] ip::Address active_sr() const {
    return failed_over_ && backup_sr_ ? *backup_sr_ : primary_sr_;
  }

  ExpressHost& host_;
  ip::ChannelId primary_;
  ip::Address primary_sr_;
  std::optional<ip::ChannelId> backup_;
  std::optional<ip::Address> backup_sr_;
  ParticipantConfig config_;

  bool joined_ = false;
  bool failed_over_ = false;
  std::optional<sim::Time> failover_at_;
  std::optional<ip::Address> floor_holder_;
  std::optional<ip::ChannelId> direct_channel_;  ///< this host's own (§4.1)
  std::vector<ip::ChannelId> announced_;         ///< channels the SR announced
  std::uint64_t direct_seq_ = 1;
  DeliveryHandler delivery_handler_;
  std::set<std::uint64_t> seen_seqs_;
  sim::EventHandle failover_timer_;
};

}  // namespace express::relay
