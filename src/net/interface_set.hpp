// A small dynamic bitset of interface indices.
//
// This is the network layer's canonical representation of "a set of
// interfaces on one node" — the currency of the shared replication
// primitive (net/replicate.hpp) and of every protocol's outgoing
// interface list. FIB entries hold the set of outgoing interfaces as a
// bitmap (the paper's 12-byte entry budgets 32 bits for it, Fig. 5).
// Router-internal state uses this growable variant so simulated hubs
// with high fanout also work; conversion to the packed wire/hardware
// format asserts the 32-interface budget.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace express::net {

class InterfaceSet {
 public:
  void set(std::uint32_t iface) {
    const std::size_t word = iface / 64;
    if (word >= bits_.size()) bits_.resize(word + 1, 0);
    bits_[word] |= (std::uint64_t{1} << (iface % 64));
  }

  /// Empty the set but keep its storage: a scratch set reused across a
  /// loop allocates only when it first grows.
  void reset() {
    for (std::uint64_t& w : bits_) w = 0;
  }

  void clear(std::uint32_t iface) {
    const std::size_t word = iface / 64;
    if (word < bits_.size()) bits_[word] &= ~(std::uint64_t{1} << (iface % 64));
  }

  /// Add every interface of `other`.
  InterfaceSet& operator|=(const InterfaceSet& other) {
    if (other.bits_.size() > bits_.size()) bits_.resize(other.bits_.size(), 0);
    for (std::size_t i = 0; i < other.bits_.size(); ++i) bits_[i] |= other.bits_[i];
    return *this;
  }

  /// Remove every interface of `other`.
  InterfaceSet& operator-=(const InterfaceSet& other) {
    const std::size_t n = std::min(bits_.size(), other.bits_.size());
    for (std::size_t i = 0; i < n; ++i) bits_[i] &= ~other.bits_[i];
    return *this;
  }

  [[nodiscard]] bool test(std::uint32_t iface) const {
    const std::size_t word = iface / 64;
    return word < bits_.size() &&
           (bits_[word] & (std::uint64_t{1} << (iface % 64))) != 0;
  }

  [[nodiscard]] bool empty() const {
    for (std::uint64_t w : bits_) {
      if (w != 0) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t count() const {
    std::size_t n = 0;
    for (std::uint64_t w : bits_) n += static_cast<std::size_t>(__builtin_popcountll(w));
    return n;
  }

  /// Enumerate set interfaces in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t word = 0; word < bits_.size(); ++word) {
      std::uint64_t w = bits_[word];
      while (w != 0) {
        const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(w));
        fn(static_cast<std::uint32_t>(word * 64 + bit));
        w &= w - 1;
      }
    }
  }

  /// Low 32 bits, for conversion to the packed FIB format. Valid only
  /// when no interface >= 32 is set (checked by the caller).
  [[nodiscard]] std::uint32_t low32() const {
    return bits_.empty() ? 0 : static_cast<std::uint32_t>(bits_[0] & 0xFFFFFFFFULL);
  }

  [[nodiscard]] bool fits_in_32() const {
    if (bits_.empty()) return true;
    if ((bits_[0] >> 32) != 0) return false;
    for (std::size_t i = 1; i < bits_.size(); ++i) {
      if (bits_[i] != 0) return false;
    }
    return true;
  }

  friend bool operator==(const InterfaceSet& a, const InterfaceSet& b) {
    const std::size_t n = std::max(a.bits_.size(), b.bits_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t wa = i < a.bits_.size() ? a.bits_[i] : 0;
      const std::uint64_t wb = i < b.bits_.size() ? b.bits_[i] : 0;
      if (wa != wb) return false;
    }
    return true;
  }

 private:
  std::vector<std::uint64_t> bits_;
};

}  // namespace express::net
