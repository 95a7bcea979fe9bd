#include "relay/wire.hpp"

#include "ip/bytes.hpp"

namespace express::relay {

std::vector<std::uint8_t> encode(const Frame& frame) {
  std::vector<std::uint8_t> out;
  out.reserve(Frame::kSize);
  out.push_back(static_cast<std::uint8_t>(frame.type));
  ip::put_u32(out, frame.speaker.value());
  ip::put_u64(out, frame.relay_seq);
  return out;
}

std::optional<Frame> decode(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < Frame::kSize) return std::nullopt;
  const std::uint8_t type = bytes[0];
  if (type < 1 ||
      type > static_cast<std::uint8_t>(FrameType::kChannelAnnounce)) {
    return std::nullopt;
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.speaker = ip::Address{ip::get_u32(bytes, 1)};
  frame.relay_seq = ip::get_u64(bytes, 5);
  return frame;
}

Frame make_channel_announce(const ip::ChannelId& channel) {
  Frame frame;
  frame.type = FrameType::kChannelAnnounce;
  frame.speaker = channel.source;
  frame.relay_seq = channel.dest.channel_index();
  return frame;
}

ip::ChannelId announced_channel(const Frame& frame) {
  return ip::ChannelId{
      frame.speaker,
      ip::Address::single_source(static_cast<std::uint32_t>(frame.relay_seq))};
}

}  // namespace express::relay
