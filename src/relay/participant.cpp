#include "relay/participant.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace express::relay {

Participant::Participant(ExpressHost& host, ip::ChannelId primary,
                         ip::Address primary_sr,
                         std::optional<ip::ChannelId> backup,
                         std::optional<ip::Address> backup_sr,
                         ParticipantConfig config)
    : host_(host),
      primary_(primary),
      primary_sr_(primary_sr),
      backup_(backup),
      backup_sr_(backup_sr),
      config_(config) {
  host_.set_data_handler(
      [this](const net::Packet& packet, sim::Time at) {
        on_channel_data(packet, at);
      });
}

void Participant::set_delivery_handler(DeliveryHandler handler) {
  if (delivery_handler_) {
    throw std::logic_error("participant delivery handler already installed");
  }
  delivery_handler_ = std::move(handler);
}

void Participant::join() {
  joined_ = true;
  host_.new_subscription(primary_);
  if (config_.standby == StandbyMode::kHot && backup_) {
    // Hot standby (§4.2): pre-subscribe for fast fail-over, paying the
    // second channel's state while the primary is healthy.
    host_.new_subscription(*backup_);
  }
  arm_failover_timer();
}

void Participant::leave() {
  joined_ = false;
  failover_timer_.cancel();
  host_.delete_subscription(primary_);
  if (backup_ && (config_.standby == StandbyMode::kHot || failed_over_)) {
    host_.delete_subscription(*backup_);
  }
}

void Participant::speak(std::uint32_t bytes) {
  Frame frame;
  frame.type = FrameType::kData;
  frame.speaker = host_.address();
  host_.send_app_unicast(active_sr(), bytes, 0, encode(frame));
}

void Participant::request_floor() {
  Frame frame;
  frame.type = FrameType::kFloorRequest;
  frame.speaker = host_.address();
  host_.send_app_unicast(active_sr(), 0, 0, encode(frame));
}

void Participant::release_floor() {
  Frame frame;
  frame.type = FrameType::kFloorRelease;
  frame.speaker = host_.address();
  host_.send_app_unicast(active_sr(), 0, 0, encode(frame));
}

ip::ChannelId Participant::create_direct_channel() {
  direct_channel_ = host_.allocate_channel();
  Frame request = make_channel_announce(*direct_channel_);
  host_.send_app_unicast(active_sr(), 0, 0, encode(request));
  return *direct_channel_;
}

void Participant::send_direct(std::uint32_t bytes) {
  if (!direct_channel_) return;
  Frame frame;
  frame.type = FrameType::kData;
  frame.speaker = host_.address();
  frame.relay_seq = direct_seq_++;
  host_.send(*direct_channel_, bytes, frame.relay_seq, encode(frame));
}

void Participant::arm_failover_timer() {
  if (config_.standby == StandbyMode::kNone || !backup_) return;
  failover_timer_.cancel();
  failover_timer_ = host_.network().scheduler().schedule_after(
      kHeartbeatDeadline, [this]() { fail_over(); });
}

void Participant::fail_over() {
  if (!joined_ || failed_over_ || !backup_) return;
  failed_over_ = true;
  failover_at_ = host_.network().now();
  if (config_.standby == StandbyMode::kCold) {
    // Cold standby: the backup channel is only set up now.
    host_.new_subscription(*backup_);
  }
}

std::vector<std::uint64_t> Participant::missing_seqs() const {
  std::vector<std::uint64_t> missing;
  if (seen_seqs_.empty()) return missing;
  std::uint64_t expected = *seen_seqs_.begin();
  for (std::uint64_t seq : seen_seqs_) {
    while (expected < seq) missing.push_back(expected++);
    expected = seq + 1;
  }
  return missing;
}

void Participant::on_channel_data(const net::Packet& packet, sim::Time at) {
  const ip::ChannelId from{packet.src, packet.dst};
  const bool via_backup = backup_ && from == *backup_;
  const bool via_direct =
      std::find(announced_.begin(), announced_.end(), from) != announced_.end();
  if (from != primary_ && !via_backup && !via_direct) return;

  auto frame = decode(packet.payload);
  if (!frame) return;

  if (via_direct) {
    // Direct-channel traffic: record like relayed data (the sequence
    // space is the direct sender's own).
    if (frame->type == FrameType::kData) {
      deliver(SessionDelivery{frame->speaker, frame->relay_seq,
                              packet.data_bytes, at, false});
    }
    return;
  }

  if (!via_backup) {
    // Any primary-channel frame proves the SR is alive.
    arm_failover_timer();
  }

  switch (frame->type) {
    case FrameType::kData:
      seen_seqs_.insert(frame->relay_seq);
      deliver(SessionDelivery{frame->speaker, frame->relay_seq,
                              packet.data_bytes, at, via_backup});
      return;
    case FrameType::kHeartbeat:
      return;  // timer already re-armed above
    case FrameType::kFloorGrant:
      floor_holder_ = frame->speaker;
      return;
    case FrameType::kFloorDeny:
      if (floor_holder_ == frame->speaker) floor_holder_.reset();
      return;
    case FrameType::kChannelAnnounce: {
      const ip::ChannelId direct = announced_channel(*frame);
      if (direct.source == host_.address()) return;  // our own announce
      announced_.push_back(direct);
      host_.new_subscription(direct);
      return;
    }
    case FrameType::kFloorRequest:
    case FrameType::kFloorRelease:
      return;  // participant-direction frames; ignore on the channel
  }
}

}  // namespace express::relay
