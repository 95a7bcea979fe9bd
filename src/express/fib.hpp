// The EXPRESS Forwarding Information Base.
//
// One entry per channel per on-tree router, keyed by the full (S, E)
// pair — an exact-match lookup, unlike longest-prefix unicast lookup.
// The forwarding rule (paper §3.4) is the conventional multicast fast
// path unchanged: match (S, E); if the arrival interface equals the
// entry's RPF interface, replicate to the outgoing set; otherwise drop.
// A packet matching no entry is *counted and dropped* — never sent to a
// rendezvous point (PIM-SM) or flooded (DVMRP/PIM-DM).
//
// PackedFibEntry is the paper's Fig. 5 hardware format: 12 bytes
// assuming <= 32 interfaces, the basis of the §5.1 memory-cost analysis.
//
// FlatFib is the software analogue of that hardware table: an
// open-addressed, power-of-two hash whose probe key is the packed
// 64-bit (source, dest) word — for single-source channels the high
// byte of dest is the constant 232/8 prefix, so the key is effectively
// (source 32b, dest24) as in Fig. 5. The index is two parallel flat
// arrays (key word + dense position, 12 bytes per slot, no heap nodes);
// entries themselves live contiguously in a dense vector so a lookup
// is one mix, a short linear probe, and a single indexed load.
// Deletion is tombstone-free: the index backward-shifts the probe
// chain and the dense store swap-removes.
//
// Iteration-order contract: entries() exposes the dense store, whose
// order is a deterministic function of the upsert/erase history (NOT
// sorted, NOT insertion order once erase has run). A loop with effects
// must carry `// lint: order-independent (<why>)`, e.g. because it only
// collects keys that are sorted afterwards — detlint enforces this, same
// as for unordered_map.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ip/channel.hpp"
#include "net/interface_set.hpp"
#include "obs/obs.hpp"

namespace express {

/// Fig. 5: | source 32b | dest 24b | iif 5b (byte here) | oifs 32b | = 12 B.
struct PackedFibEntry {
  std::uint32_t source = 0;
  std::uint8_t dest24[3] = {0, 0, 0};  ///< channel index within 232/8
  std::uint8_t iif = 0;   ///< incoming (RPF) interface, 5 bits used
  std::uint32_t oifs = 0;  ///< outgoing interface bitmap
};
static_assert(sizeof(PackedFibEntry) == 12, "Fig. 5 fixes the entry at 12 bytes");

struct FibEntry {
  std::uint32_t iif = 0;    ///< only packets arriving here are forwarded
  net::InterfaceSet oifs;   ///< replication set
};

struct FibStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;            ///< counted once per lookup() call
  std::uint64_t no_entry_drops = 0;  ///< counted-and-dropped (no match)
  std::uint64_t rpf_drops = 0;       ///< matched but wrong arrival interface
  std::uint64_t entries = 0;         ///< gauge: live entries (== size())
};

class FlatFib {
 public:
  /// `scope` binds the FIB's counters (express.fib.*) to an
  /// observability plane; the default resolves to the global plane
  /// under a fresh anonymous entity.
  explicit FlatFib(obs::Scope scope = {})
      : stats_(scope.bind<FibStats>({
            {&FibStats::lookups, "express.fib.lookups"},
            {&FibStats::hits, "express.fib.hits"},
            {&FibStats::no_entry_drops, "express.fib.no_entry_drops"},
            {&FibStats::rpf_drops, "express.fib.rpf_drops"},
            {&FibStats::entries, "express.fib.entries",
             obs::MetricKind::kGauge},
        })) {}

  /// Insert or return the entry for `channel`. The reference (like any
  /// find() result) is invalidated by the next upsert or erase.
  FibEntry& upsert(const ip::ChannelId& channel);

  void erase(const ip::ChannelId& channel);

  /// Pure probe: never touches the stats counters, so control-plane
  /// peeks cannot inflate the hit rate (stats are per lookup(), not
  /// per probe).
  [[nodiscard]] const FibEntry* find(const ip::ChannelId& channel) const {
    const std::uint32_t slot = find_slot(key_of(channel));
    return slot == kNotFound ? nullptr : &dense_[pos_[slot]].second;
  }

  [[nodiscard]] FibEntry* find(const ip::ChannelId& channel) {
    const std::uint32_t slot = find_slot(key_of(channel));
    return slot == kNotFound ? nullptr : &dense_[pos_[slot]].second;
  }

  /// Fast-path lookup: returns the replication set when the packet
  /// should be forwarded, nullptr when it must be dropped (either no
  /// entry or RPF failure). Exactly one probe and one stats update per
  /// call, regardless of how often find() ran on the same packet.
  [[nodiscard]] const net::InterfaceSet* lookup(const ip::ChannelId& channel,
                                                std::uint32_t in_iface);

  [[nodiscard]] std::size_t size() const { return dense_.size(); }

  /// Copy of the registry-bound block (see DESIGN.md §11).
  [[nodiscard]] FibStats stats() const { return *stats_; }

  /// Bytes this FIB would occupy in the Fig. 5 packed format.
  [[nodiscard]] std::size_t packed_bytes() const {
    return dense_.size() * sizeof(PackedFibEntry);
  }

  /// The dense entry store, in table order (deterministic but
  /// history-dependent; see the header comment). Effectful loops over
  /// it must be order-independent.
  [[nodiscard]] const std::vector<std::pair<ip::ChannelId, FibEntry>>&
  entries() const {
    return dense_;
  }

 private:
  static constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};
  static constexpr std::uint32_t kNotFound = ~std::uint32_t{0};

  /// Packed probe key: | source 32b | dest 32b |. Bijective on the
  /// channel id, so slots store the key word and never re-compare ids.
  static std::uint64_t key_of(const ip::ChannelId& channel) {
    return (std::uint64_t{channel.source.value()} << 32) |
           std::uint64_t{channel.dest.value()};
  }

  /// splitmix64 finalizer — same mix as std::hash<ip::ChannelId>.
  static std::uint64_t mix(std::uint64_t key) {
    key ^= key >> 33;
    key *= 0xFF51AFD7ED558CCDull;
    key ^= key >> 33;
    key *= 0xC4CEB9FE1A85EC53ull;
    key ^= key >> 33;
    return key;
  }

  /// Linear probe for an occupied slot holding `key`.
  [[nodiscard]] std::uint32_t find_slot(std::uint64_t key) const {
    if (keys_.empty()) return kNotFound;
    std::uint64_t slot = mix(key) & mask_;
    while (keys_[slot] != kEmptySlot) {
      if (keys_[slot] == key) return static_cast<std::uint32_t>(slot);
      slot = (slot + 1) & mask_;
    }
    return kNotFound;
  }

  void grow_index();

  /// Dense entry store; index slots point into it by position.
  std::vector<std::pair<ip::ChannelId, FibEntry>> dense_;
  std::vector<std::uint64_t> keys_;  ///< packed key per slot, kEmptySlot if free
  std::vector<std::uint32_t> pos_;   ///< dense_ position per occupied slot
  std::uint64_t mask_ = 0;           ///< keys_.size() - 1 (power of two)
  FibStats* stats_;  ///< registry-owned block
};

/// The FIB of the EXPRESS forwarding plane, read by the audit. Kept as an alias so call sites read `Fib` while detlint and
/// the property tests can name the concrete container.
using Fib = FlatFib;

/// Convert a runtime entry to the Fig. 5 packed format. Requires the
/// channel to be single-source, iif < 32, and all oifs < 32.
[[nodiscard]] std::optional<PackedFibEntry> pack(const ip::ChannelId& channel,
                                                 const FibEntry& entry);

/// Reconstruct (channel, entry) from the packed form. The source address
/// round-trips exactly; the destination is rebuilt in 232/8.
[[nodiscard]] std::pair<ip::ChannelId, FibEntry> unpack(const PackedFibEntry& packed);

}  // namespace express
