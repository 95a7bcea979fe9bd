#include "obs/obs.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace express::obs {

HistogramData Histogram::sink_{};

const char* entity_kind_name(EntityKind kind) {
  switch (kind) {
    case EntityKind::kNone:
      return "none";
    case EntityKind::kNet:
      return "net";
    case EntityKind::kRouter:
      return "router";
    case EntityKind::kHost:
      return "host";
    case EntityKind::kLan:
      return "lan";
    case EntityKind::kLink:
      return "link";
    case EntityKind::kRelay:
      return "relay";
    case EntityKind::kAnon:
      return "anon";
  }
  return "unknown";
}

Entity Entity::anon() {
  // Monotonic process-global id: deterministic for a fixed construction
  // sequence, and never a wall-clock or address-derived value.
  static std::uint32_t next = 0;
  return {EntityKind::kAnon, next++};
}

std::string Entity::to_string() const {
  if (kind == EntityKind::kNet || kind == EntityKind::kNone) {
    return entity_kind_name(kind);
  }
  return std::string(entity_kind_name(kind)) + ":" + std::to_string(id);
}

void Histogram::observe(std::uint64_t v) const {
  HistogramData& d = *data_;
  const unsigned bucket =
      std::min<unsigned>(std::bit_width(v), kHistogramBuckets - 1);
  ++d.buckets[bucket];
  ++d.count;
  d.sum += v;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

void Registry::publish(std::string_view name, Entity entity, MetricKind kind,
                       const std::uint64_t* value) {
  entries_[Key{std::string(name), entity}] = Entry{kind, value, nullptr};
}

Histogram Registry::histogram(std::string_view name, Entity entity) {
  HistogramData& data = hists_.emplace_back();
  entries_[Key{std::string(name), entity}] =
      Entry{MetricKind::kHistogram, nullptr, &data};
  return Histogram(&data);
}

std::uint64_t Registry::value(std::string_view name, Entity entity) const {
  auto it = entries_.find(Key{std::string(name), entity});
  if (it == entries_.end() || it->second.kind == MetricKind::kHistogram) {
    return 0;
  }
  return *it->second.value;
}

std::uint64_t Registry::sum(std::string_view name) const {
  std::uint64_t total = 0;
  // Keys sort by name first, so the matching entries form one run.
  for (auto it = entries_.lower_bound(Key{std::string(name), Entity{}});
       it != entries_.end() && it->first.name == name; ++it) {
    if (it->second.kind != MetricKind::kHistogram) {
      total += *it->second.value;
    }
  }
  return total;
}

namespace {

void append_uint(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

}  // namespace

std::string Registry::snapshot_json(sim::Time at) const {
  // Canonical form: entries in std::map order (name, then entity kind,
  // then entity id); keys inside each object alphabetical; integers
  // only. Every byte below is a pure function of registry contents and
  // the passed sim time.
  std::string out = "{\n\"metrics\": [";
  bool first = true;
  for (const auto& [key, entry] : entries_) {
    out += first ? "\n" : ",\n";
    first = false;
    if (entry.kind == MetricKind::kHistogram) {
      const HistogramData& d = *entry.hist;
      out += "{\"buckets\":[";
      for (std::size_t i = 0; i < d.buckets.size(); ++i) {
        if (i != 0) out += ',';
        append_uint(out, d.buckets[i]);
      }
      out += "],\"count\":";
      append_uint(out, d.count);
      out += ",\"entity\":\"" + key.entity.to_string() + "\"";
      out += ",\"kind\":\"histogram\",\"name\":\"" + key.name + "\",\"sum\":";
      append_uint(out, d.sum);
      out += "}";
    } else {
      out += "{\"entity\":\"" + key.entity.to_string() + "\",\"kind\":\"";
      out += metric_kind_name(entry.kind);
      out += "\",\"name\":\"" + key.name + "\",\"value\":";
      append_uint(out, *entry.value);
      out += "}";
    }
  }
  out += "\n],\n\"sim_time_ns\": ";
  out += std::to_string(at.count());
  out += "\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

const char* trace_type_name(TraceType type) {
  switch (type) {
    case TraceType::kPacketSent:
      return "packet_sent";
    case TraceType::kPacketDelivered:
      return "packet_delivered";
    case TraceType::kPacketDropped:
      return "packet_dropped";
    case TraceType::kSubscriptionChange:
      return "subscription_change";
    case TraceType::kCountRoundStart:
      return "count_round_start";
    case TraceType::kCountRoundEnd:
      return "count_round_end";
    case TraceType::kTimerFire:
      return "timer_fire";
    case TraceType::kFaultInject:
      return "fault_inject";
    case TraceType::kFaultHeal:
      return "fault_heal";
    case TraceType::kPacketLost:
      return "packet_lost";
    case TraceType::kPacketReordered:
      return "packet_reordered";
    case TraceType::kRepairRoundStart:
      return "repair_round_start";
    case TraceType::kRepairRoundEnd:
      return "repair_round_end";
    case TraceType::kRetransmit:
      return "retransmit";
  }
  return "unknown";
}

void Trace::enable(std::size_t capacity) {
  clear();
  capacity_ = capacity;
  ring_.reserve(std::min<std::size_t>(capacity, 1u << 16));
}

void Trace::disable() {
  capacity_ = 0;
  ring_.clear();
  ring_.shrink_to_fit();
  emitted_ = 0;
}

void Trace::clear() {
  ring_.clear();
  emitted_ = 0;
}

void Trace::record(sim::Time t, Entity entity, TraceType type, std::uint64_t a,
                   std::uint64_t b, std::uint64_t c) {
  TraceRecord rec;
  rec.time_ns = t.count();
  rec.index = emitted_++;
  rec.entity = entity;
  rec.type = type;
  rec.a = a;
  rec.b = b;
  rec.c = c;
  if (ring_.size() < capacity_) {
    ring_.push_back(rec);
  } else {
    ring_[static_cast<std::size_t>(rec.index % capacity_)] = rec;
  }
}

const TraceRecord& Trace::at(std::size_t i) const {
  if (emitted_ <= capacity_) return ring_[i];
  // Ring full: slot of the oldest retained record is emitted_ % capacity_.
  return ring_[static_cast<std::size_t>((emitted_ + i) % capacity_)];
}

std::size_t Trace::count(const TraceFilter& filter) const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    if (filter.matches(at(i))) ++n;
  }
  return n;
}

std::string Trace::to_jsonl(const TraceFilter& filter) const {
  std::string out;
  for (std::size_t i = 0; i < size(); ++i) {
    const TraceRecord& rec = at(i);
    if (!filter.matches(rec)) continue;
    out += "{\"a\":";
    append_uint(out, rec.a);
    out += ",\"b\":";
    append_uint(out, rec.b);
    out += ",\"c\":";
    append_uint(out, rec.c);
    out += ",\"entity\":\"" + rec.entity.to_string() + "\",\"index\":";
    append_uint(out, rec.index);
    out += ",\"time_ns\":";
    out += std::to_string(rec.time_ns);
    out += ",\"type\":\"";
    out += trace_type_name(rec.type);
    out += "\"}\n";
  }
  return out;
}

Plane& Plane::global() {
  static Plane plane;
  return plane;
}

}  // namespace express::obs
