#include "express/fib.hpp"

namespace express {

namespace {
constexpr std::size_t kInitialSlots = 16;
}  // namespace

FibEntry& FlatFib::upsert(const ip::ChannelId& channel) {
  // Grow at 7/8 load so probe chains stay short. Rebuilding re-inserts
  // in dense order, which keeps the index a pure function of history.
  if (keys_.empty() || (dense_.size() + 1) * 8 > keys_.size() * 7) {
    grow_index();
  }
  const std::uint64_t key = key_of(channel);
  std::uint64_t slot = mix(key) & mask_;
  while (keys_[slot] != kEmptySlot) {
    if (keys_[slot] == key) return dense_[pos_[slot]].second;
    slot = (slot + 1) & mask_;
  }
  keys_[slot] = key;
  pos_[slot] = static_cast<std::uint32_t>(dense_.size());
  dense_.emplace_back(channel, FibEntry{});
  stats_->entries = dense_.size();
  return dense_.back().second;
}

void FlatFib::erase(const ip::ChannelId& channel) {
  const std::uint32_t slot = find_slot(key_of(channel));
  if (slot == kNotFound) return;

  // Swap-remove in the dense store, repointing the index slot of the
  // entry that moved into the vacated position.
  const std::uint32_t at = pos_[slot];
  const std::uint32_t last = static_cast<std::uint32_t>(dense_.size() - 1);
  if (at != last) {
    dense_[at] = std::move(dense_[last]);
    pos_[find_slot(key_of(dense_[at].first))] = at;
  }
  dense_.pop_back();

  // Tombstone-free deletion: backward-shift the probe chain into the
  // hole. An element at `cur` may fill the hole only if its home slot
  // does not lie cyclically after the hole (else the shift would move
  // it in front of its home and break its own probe chain).
  std::uint64_t hole = slot;
  std::uint64_t cur = (hole + 1) & mask_;
  while (keys_[cur] != kEmptySlot) {
    const std::uint64_t home = mix(keys_[cur]) & mask_;
    if (((cur - home) & mask_) >= ((cur - hole) & mask_)) {
      keys_[hole] = keys_[cur];
      pos_[hole] = pos_[cur];
      hole = cur;
    }
    cur = (cur + 1) & mask_;
  }
  keys_[hole] = kEmptySlot;
  stats_->entries = dense_.size();
}

void FlatFib::grow_index() {
  const std::size_t slots = keys_.empty() ? kInitialSlots : keys_.size() * 2;
  keys_.assign(slots, kEmptySlot);
  pos_.assign(slots, 0);
  mask_ = slots - 1;
  for (std::uint32_t at = 0; at < dense_.size(); ++at) {
    std::uint64_t slot = mix(key_of(dense_[at].first)) & mask_;
    while (keys_[slot] != kEmptySlot) slot = (slot + 1) & mask_;
    keys_[slot] = key_of(dense_[at].first);
    pos_[slot] = at;
  }
}

const net::InterfaceSet* FlatFib::lookup(const ip::ChannelId& channel,
                                         std::uint32_t in_iface) {
  ++stats_->lookups;
  const std::uint32_t slot = find_slot(key_of(channel));
  if (slot == kNotFound) {
    // lint: drop-untraced (caller ForwardingPlane::forward classifies and traces; FIB has no clock)
    ++stats_->no_entry_drops;
    return nullptr;
  }
  const FibEntry& entry = dense_[pos_[slot]].second;
  if (entry.iif != in_iface) {
    // lint: drop-untraced (caller ForwardingPlane::forward classifies and traces; FIB has no clock)
    ++stats_->rpf_drops;
    return nullptr;
  }
  ++stats_->hits;
  return &entry.oifs;
}

std::optional<PackedFibEntry> pack(const ip::ChannelId& channel,
                                   const FibEntry& entry) {
  if (!channel.dest.is_single_source()) return std::nullopt;
  if (entry.iif >= 32 || !entry.oifs.fits_in_32()) return std::nullopt;
  PackedFibEntry p{};
  p.source = channel.source.value();
  const std::uint32_t index = channel.dest.channel_index();
  p.dest24[0] = static_cast<std::uint8_t>(index >> 16);
  p.dest24[1] = static_cast<std::uint8_t>((index >> 8) & 0xFF);
  p.dest24[2] = static_cast<std::uint8_t>(index & 0xFF);
  p.iif = static_cast<std::uint8_t>(entry.iif);
  p.oifs = entry.oifs.low32();
  return p;
}

std::pair<ip::ChannelId, FibEntry> unpack(const PackedFibEntry& packed) {
  const std::uint32_t index = (std::uint32_t{packed.dest24[0]} << 16) |
                              (std::uint32_t{packed.dest24[1]} << 8) |
                              std::uint32_t{packed.dest24[2]};
  ip::ChannelId channel{ip::Address{packed.source},
                        ip::Address::single_source(index)};
  FibEntry entry;
  entry.iif = packed.iif;
  for (std::uint32_t i = 0; i < 32; ++i) {
    if (packed.oifs & (1U << i)) entry.oifs.set(i);
  }
  return {channel, entry};
}

}  // namespace express
