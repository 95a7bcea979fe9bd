#include "ecmp/codec.hpp"

#include <algorithm>
#include <limits>

#include "ip/bytes.hpp"

namespace express::ecmp {

namespace {

constexpr std::uint8_t kFlagHasKey = 0x01;
constexpr std::uint8_t kFlagHasSeq = 0x02;
constexpr std::size_t kHeaderSize = 12;

void put_header(std::vector<std::uint8_t>& out, MessageType type,
                std::uint8_t flags, CountId count_id,
                const ip::ChannelId& channel) {
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(flags);
  ip::put_u16(out, count_id);
  ip::put_u32(out, channel.source.value());
  ip::put_u32(out, channel.dest.value());
}

/// Counts are 32 bits on the wire (10M-subscriber channels fit with
/// headroom); saturate rather than wrap if an aggregate overflows.
std::uint32_t saturate_u32(std::int64_t v) {
  if (v < 0) return 0;
  return static_cast<std::uint32_t>(
      std::min<std::int64_t>(v, std::numeric_limits<std::uint32_t>::max()));
}

}  // namespace

std::size_t encoded_size(const Message& msg) {
  return std::visit(
      [](const auto& m) -> std::size_t {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, CountQuery>) {
          return kHeaderSize + 8;  // timeout_ms + seq
        } else if constexpr (std::is_same_v<T, Count>) {
          std::size_t size = kHeaderSize + 4;  // count
          if (m.query_seq != 0) size += 4;
          if (m.key) size += 8;
          return size;
        } else if constexpr (std::is_same_v<T, CountResponse>) {
          return kHeaderSize + 4;  // status + pad
        } else {
          return kHeaderSize + 8;  // key
        }
      },
      msg);
}

void encode(const Message& msg, std::vector<std::uint8_t>& out) {
  std::visit(
      [&out](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, CountQuery>) {
          put_header(out, MessageType::kCountQuery, kFlagHasSeq, m.count_id,
                     m.channel);
          const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              m.timeout)
                              .count();
          ip::put_u32(out, saturate_u32(ms));
          ip::put_u32(out, m.query_seq);
        } else if constexpr (std::is_same_v<T, Count>) {
          std::uint8_t flags = 0;
          if (m.query_seq != 0) flags |= kFlagHasSeq;
          if (m.key) flags |= kFlagHasKey;
          put_header(out, MessageType::kCount, flags, m.count_id, m.channel);
          ip::put_u32(out, saturate_u32(m.count));
          if (m.query_seq != 0) ip::put_u32(out, m.query_seq);
          if (m.key) ip::put_u64(out, *m.key);
        } else if constexpr (std::is_same_v<T, CountResponse>) {
          put_header(out, MessageType::kCountResponse, 0, m.count_id,
                     m.channel);
          out.push_back(static_cast<std::uint8_t>(m.status));
          out.push_back(0);
          out.push_back(0);
          out.push_back(0);
        } else {
          put_header(out, MessageType::kKeyRegister, kFlagHasKey, 0, m.channel);
          ip::put_u64(out, m.key);
        }
      },
      msg);
}

std::vector<std::uint8_t> encode(const Message& msg) {
  std::vector<std::uint8_t> out;
  out.reserve(encoded_size(msg));
  encode(msg, out);
  return out;
}

std::optional<std::pair<Message, std::size_t>> decode(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) return std::nullopt;
  const auto type = static_cast<MessageType>(bytes[0]);
  const std::uint8_t flags = bytes[1];
  const CountId count_id = ip::get_u16(bytes, 2);
  ip::ChannelId channel{ip::Address{ip::get_u32(bytes, 4)},
                        ip::Address{ip::get_u32(bytes, 8)}};
  std::size_t at = kHeaderSize;
  auto need = [&](std::size_t n) { return bytes.size() >= at + n; };

  switch (type) {
    case MessageType::kCountQuery: {
      if (!need(8)) return std::nullopt;
      CountQuery q;
      q.channel = channel;
      q.count_id = count_id;
      q.timeout = sim::milliseconds(ip::get_u32(bytes, at));
      q.query_seq = ip::get_u32(bytes, at + 4);
      return std::pair<Message, std::size_t>{q, at + 8};
    }
    case MessageType::kCount: {
      if (!need(4)) return std::nullopt;
      Count c;
      c.channel = channel;
      c.count_id = count_id;
      c.count = ip::get_u32(bytes, at);
      at += 4;
      if (flags & kFlagHasSeq) {
        if (!need(4)) return std::nullopt;
        c.query_seq = ip::get_u32(bytes, at);
        at += 4;
      }
      if (flags & kFlagHasKey) {
        if (!need(8)) return std::nullopt;
        c.key = ip::get_u64(bytes, at);
        at += 8;
      }
      return std::pair<Message, std::size_t>{c, at};
    }
    case MessageType::kCountResponse: {
      if (!need(4)) return std::nullopt;
      CountResponse r;
      r.channel = channel;
      r.count_id = count_id;
      const std::uint8_t status = bytes[at];
      if (status > static_cast<std::uint8_t>(Status::kNotOnTree)) {
        return std::nullopt;
      }
      r.status = static_cast<Status>(status);
      return std::pair<Message, std::size_t>{r, at + 4};
    }
    case MessageType::kKeyRegister: {
      if (!need(8)) return std::nullopt;
      KeyRegister k;
      k.channel = channel;
      k.key = ip::get_u64(bytes, at);
      return std::pair<Message, std::size_t>{k, at + 8};
    }
  }
  return std::nullopt;
}

std::vector<Message> decode_all(std::span<const std::uint8_t> bytes) {
  std::vector<Message> out;
  std::size_t at = 0;
  while (at < bytes.size()) {
    auto parsed = decode(bytes.subspan(at));
    if (!parsed) break;
    out.push_back(std::move(parsed->first));
    at += parsed->second;
  }
  return out;
}

std::size_t messages_per_segment(const Message& msg) {
  const std::size_t size = encoded_size(msg);
  return size == 0 ? 0 : kMaxSegmentBytes / size;
}

}  // namespace express::ecmp
