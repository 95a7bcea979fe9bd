// Big-endian (network byte order) integer put/get for the wire codecs.
//
// Every codec in the tree (IP header, ECMP messages, baseline control
// messages, relay frames) writes fixed-width fields most significant
// byte first; these helpers are that one convention. put_* appends to
// a byte vector; get_* reads at an offset the caller has bounds-checked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace express::ip {

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v & 0xFFFF));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v & 0xFFFFFFFFU));
}

[[nodiscard]] inline std::uint16_t get_u16(std::span<const std::uint8_t> b,
                                           std::size_t at) {
  return static_cast<std::uint16_t>((b[at] << 8) | b[at + 1]);
}

[[nodiscard]] inline std::uint32_t get_u32(std::span<const std::uint8_t> b,
                                           std::size_t at) {
  return (std::uint32_t{b[at]} << 24) | (std::uint32_t{b[at + 1]} << 16) |
         (std::uint32_t{b[at + 2]} << 8) | std::uint32_t{b[at + 3]};
}

[[nodiscard]] inline std::uint64_t get_u64(std::span<const std::uint8_t> b,
                                           std::size_t at) {
  return (std::uint64_t{get_u32(b, at)} << 32) | get_u32(b, at + 4);
}

}  // namespace express::ip
