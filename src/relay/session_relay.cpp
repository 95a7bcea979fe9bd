#include "relay/session_relay.hpp"

namespace express::relay {

SessionRelay::SessionRelay(ExpressHost& host, RelayConfig config)
    : host_(host), config_(config), channel_(host.allocate_channel()),
      scope_(obs::Scope{&host.network().obs(),
                        obs::Entity::relay(host.id())}) {
  stats_ = scope_.bind<RelayStats>({
      {&RelayStats::frames_relayed, "relay.frames_relayed"},
      {&RelayStats::dropped_unauthorized, "relay.dropped_unauthorized"},
      {&RelayStats::dropped_no_floor, "relay.dropped_no_floor"},
      {&RelayStats::floor_grants, "relay.floor_grants"},
      {&RelayStats::floor_denials, "relay.floor_denials"},
      {&RelayStats::heartbeats_sent, "relay.heartbeats_sent"},
      {&RelayStats::channels_announced, "relay.channels_announced"},
  });
  host_.set_unicast_handler(
      [this](const net::Packet& packet, sim::Time) { on_unicast(packet); });
}

void SessionRelay::start() {
  active_ = true;
  heartbeat();
}

void SessionRelay::stop() {
  active_ = false;
  heartbeat_timer_.cancel();
}

void SessionRelay::heartbeat() {
  if (!active_) return;
  Frame beat;
  beat.type = FrameType::kHeartbeat;
  beat.speaker = host_.address();
  beat.relay_seq = next_seq_++;
  host_.send(channel_, 0, beat.relay_seq, encode(beat));
  ++stats_->heartbeats_sent;
  heartbeat_timer_ = host_.network().scheduler().schedule_after(
      kHeartbeatInterval, [this]() { heartbeat(); });
}

void SessionRelay::send_as_primary(std::uint32_t bytes) {
  if (!active_) return;
  relay_frame(host_.address(), bytes);
}

void SessionRelay::relay_frame(ip::Address original_sender,
                               std::uint32_t bytes) {
  Frame frame;
  frame.type = FrameType::kData;
  frame.speaker = original_sender;
  frame.relay_seq = next_data_seq_++;
  host_.send(channel_, bytes, frame.relay_seq, encode(frame));
  ++stats_->frames_relayed;
}

void SessionRelay::announce(FrameType type, ip::Address speaker) {
  Frame frame;
  frame.type = type;
  frame.speaker = speaker;
  frame.relay_seq = next_seq_++;
  host_.send(channel_, 0, frame.relay_seq, encode(frame));
}

void SessionRelay::grant_next_floor() {
  floor_holder_.reset();
  while (!floor_queue_.empty()) {
    const ip::Address next = floor_queue_.front();
    floor_queue_.pop_front();
    std::uint32_t& used = grants_used_[next];
    if (used >= config_.max_floor_grants_per_member) {
      ++stats_->floor_denials;
      announce(FrameType::kFloorDeny, next);
      continue;
    }
    ++used;
    floor_holder_ = next;
    ++stats_->floor_grants;
    announce(FrameType::kFloorGrant, next);
    return;
  }
}

void SessionRelay::on_unicast(const net::Packet& packet) {
  if (!active_) return;
  auto frame = decode(packet.payload);
  if (!frame) return;

  if (!authorized(packet.src)) {
    // §4.1: "the application can strictly monitor and control the
    // traffic over the multicast channel" — unlike an RP or core.
    ++stats_->dropped_unauthorized;
    scope_.emit(host_.network().now(), obs::TraceType::kPacketDropped,
                static_cast<std::uint64_t>(obs::DropReason::kPolicy),
                packet.wire_size());
    return;
  }

  switch (frame->type) {
    case FrameType::kData: {
      if (config_.floor_control && floor_holder_ != packet.src) {
        ++stats_->dropped_no_floor;
        scope_.emit(host_.network().now(), obs::TraceType::kPacketDropped,
                    static_cast<std::uint64_t>(obs::DropReason::kPolicy),
                    packet.wire_size());
        return;
      }
      relay_frame(packet.src, packet.data_bytes);
      return;
    }
    case FrameType::kFloorRequest: {
      floor_queue_.push_back(packet.src);
      if (!floor_holder_) grant_next_floor();
      return;
    }
    case FrameType::kFloorRelease: {
      if (floor_holder_ == packet.src) grant_next_floor();
      return;
    }
    case FrameType::kChannelAnnounce: {
      // §4.1: a long-running secondary sender created its own channel
      // and asks the SR to tell everyone to subscribe. Only the channel
      // source itself may request the announcement.
      if (frame->speaker != packet.src) return;
      Frame announce = *frame;
      host_.send(channel_, 0, next_seq_++, encode(announce));
      ++stats_->channels_announced;
      return;
    }
    case FrameType::kHeartbeat:
    case FrameType::kFloorGrant:
    case FrameType::kFloorDeny:
      return;  // channel-direction frames are not valid upstream
  }
}

}  // namespace express::relay
