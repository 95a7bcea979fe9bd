#include "baseline/wire.hpp"

#include "ip/bytes.hpp"

namespace express::baseline {

void encode_to(const Msg& msg, std::vector<std::uint8_t>& out) {
  out.push_back(static_cast<std::uint8_t>(msg.type));
  out.push_back(0);  // reserved
  ip::put_u32(out, msg.group.value());
  ip::put_u32(out, msg.source.value());
  ip::put_u32(out, msg.holdtime_ms);
}

std::vector<std::uint8_t> encode(const Msg& msg) {
  std::vector<std::uint8_t> out;
  out.reserve(Msg::kSize);
  encode_to(msg, out);
  return out;
}

std::optional<Msg> decode(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < Msg::kSize) return std::nullopt;
  const std::uint8_t type = bytes[0];
  if (type < 1 || type > static_cast<std::uint8_t>(MsgType::kRegisterStop)) {
    return std::nullopt;
  }
  Msg msg;
  msg.type = static_cast<MsgType>(type);
  msg.group = ip::Address{ip::get_u32(bytes, 2)};
  msg.source = ip::Address{ip::get_u32(bytes, 6)};
  msg.holdtime_ms = ip::get_u32(bytes, 10);
  return msg;
}

std::vector<Msg> decode_all(std::span<const std::uint8_t> bytes) {
  std::vector<Msg> out;
  std::size_t at = 0;
  while (at + Msg::kSize <= bytes.size()) {
    auto msg = decode(bytes.subspan(at));
    if (!msg) break;
    out.push_back(*msg);
    at += Msg::kSize;
  }
  return out;
}

}  // namespace express::baseline
