// IPv4 protocol numbers and the header size the simulator prices.
//
// The simulator passes structured packets around and never serializes
// an IP header; it only charges its 20 bytes to every packet on the
// wire (net::Packet::wire_size).
#pragma once

#include <cstddef>
#include <cstdint>

namespace express::ip {

/// IP protocol numbers used by this codebase.
enum class Protocol : std::uint8_t {
  kIcmp = 1,
  kIgmp = 2,     ///< host membership + DVMRP control (baselines)
  kIpInIp = 4,   ///< subcast / PIM Register / CBT off-tree encapsulation
  kTcp = 6,
  kCbt = 7,      ///< CBT control (baseline)
  kUdp = 17,
  kPim = 103,    ///< PIM-SM control (baseline)
  kEcmp = 143,   ///< our ECMP-over-raw demo protocol number (experimental range)
};

/// An IPv4 header without options.
struct Header {
  static constexpr std::size_t kSize = 20;
};

}  // namespace express::ip
