#include "ip/header.hpp"

#include "ip/bytes.hpp"

namespace express::ip {

std::uint16_t internet_checksum(std::span<const std::uint8_t> bytes) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < bytes.size(); i += 2) {
    sum += static_cast<std::uint32_t>((bytes[i] << 8) | bytes[i + 1]);
  }
  if (i < bytes.size()) sum += static_cast<std::uint32_t>(bytes[i] << 8);
  while (sum >> 16) sum = (sum & 0xFFFFU) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xFFFFU);
}

void Header::encode_to(std::vector<std::uint8_t>& out) const {
  const std::size_t start = out.size();
  out.push_back(0x45);  // version 4, IHL 5
  out.push_back(0x00);  // DSCP/ECN
  put_u16(out, static_cast<std::uint16_t>(kSize + payload_length));
  put_u16(out, identification);
  put_u16(out, 0x4000);  // flags: DF, fragment offset 0
  out.push_back(ttl);
  out.push_back(static_cast<std::uint8_t>(protocol));
  put_u16(out, 0);  // checksum placeholder
  put_u32(out, source.value());
  put_u32(out, dest.value());
  const auto span = std::span<const std::uint8_t>(out).subspan(start, kSize);
  const std::uint16_t sum = internet_checksum(span);
  out[start + 10] = static_cast<std::uint8_t>(sum >> 8);
  out[start + 11] = static_cast<std::uint8_t>(sum & 0xFF);
}

std::vector<std::uint8_t> Header::encode() const {
  std::vector<std::uint8_t> out;
  out.reserve(kSize);
  encode_to(out);
  return out;
}

std::optional<Header> Header::decode(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kSize) return std::nullopt;
  if (bytes[0] != 0x45) return std::nullopt;  // we only emit IHL=5
  if (internet_checksum(bytes.first(kSize)) != 0) return std::nullopt;
  Header h;
  const std::uint16_t total = get_u16(bytes, 2);
  if (total < kSize) return std::nullopt;
  h.payload_length = static_cast<std::uint16_t>(total - kSize);
  h.identification = get_u16(bytes, 4);
  h.ttl = bytes[8];
  h.protocol = static_cast<Protocol>(bytes[9]);
  h.source = Address{get_u32(bytes, 12)};
  h.dest = Address{get_u32(bytes, 16)};
  return h;
}

}  // namespace express::ip
