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

void* Registry::Arena::allocate(std::size_t size, std::size_t align) {
  // Chunks start small (a lone standalone module costs little) and
  // double up to a cap, so the slack at the end of the newest chunk
  // stays below kMaxChunk.
  constexpr std::size_t kMinChunk = 256;
  constexpr std::size_t kMaxChunk = 16 * 1024;
  std::size_t offset = (used_ + align - 1) & ~(align - 1);
  if (offset + size > capacity_) {
    capacity_ = std::max(size, std::clamp(2 * capacity_, kMinChunk, kMaxChunk));
    // operator new[] aligns a chunk for any align the callers assert.
    chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(capacity_));
    offset = 0;
  }
  used_ = offset + size;
  return chunks_.back().get() + offset;
}

const Registry::Name* Registry::find(std::string_view name) const {
  const auto it = std::ranges::lower_bound(names_, name, {}, &Name::text);
  return it != names_.end() && it->text == name ? &*it : nullptr;
}

void Registry::publish(std::string_view name, Entity entity, MetricKind kind,
                       const void* data) {
  auto name_it = std::ranges::lower_bound(names_, name, {}, &Name::text);
  if (name_it == names_.end() || name_it->text != name) {
    name_it = names_.insert(name_it, Name{std::string(name), {}});
  }
  std::vector<Column>& columns = name_it->columns;
  auto col = std::ranges::lower_bound(columns, entity.kind, {}, &Column::kind);
  if (col == columns.end() || col->kind != entity.kind) {
    col = columns.insert(col, Column{entity.kind, {}});
  }
  // Modules bind in ascending id order almost always: try the back first.
  std::vector<Slot>& slots = col->slots;
  auto slot = slots.end();
  if (!slots.empty() && slots.back().id >= entity.id) {
    slot = std::ranges::lower_bound(slots, entity.id, {}, &Slot::id);
  }
  if (slot != slots.end() && slot->id == entity.id) {
    *slot = Slot{entity.id, kind, data};  // re-registration: repoint
    return;
  }
  slots.insert(slot, Slot{entity.id, kind, data});
  ++size_;
}

Histogram Registry::histogram(std::string_view name, Entity entity) {
  auto* data = ::new (arena_.allocate(sizeof(HistogramData),
                                      alignof(HistogramData))) HistogramData{};
  publish(name, entity, MetricKind::kHistogram, data);
  return Histogram(data);
}

std::uint64_t Registry::value(std::string_view name, Entity entity) const {
  const Name* n = find(name);
  if (n == nullptr) return 0;
  const auto col =
      std::ranges::lower_bound(n->columns, entity.kind, {}, &Column::kind);
  if (col == n->columns.end() || col->kind != entity.kind) return 0;
  const auto slot =
      std::ranges::lower_bound(col->slots, entity.id, {}, &Slot::id);
  if (slot == col->slots.end() || slot->id != entity.id ||
      slot->kind == MetricKind::kHistogram) {
    return 0;
  }
  return slot->scalar();
}

std::uint64_t Registry::sum(std::string_view name) const {
  const Name* n = find(name);
  if (n == nullptr) return 0;
  std::uint64_t total = 0;
  for (const Column& col : n->columns) {
    for (const Slot& slot : col.slots) {
      if (slot.kind != MetricKind::kHistogram) {
        total += slot.scalar();
      }
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
  // Canonical form: entries in (name, then entity kind, then entity id)
  // order, which is the storage order of names_, columns and slots;
  // keys inside each object alphabetical; integers only. Every byte
  // below is a pure function of registry contents and the passed sim
  // time.
  std::string out = "{\n\"metrics\": [";
  bool first = true;
  for (const Name& name : names_) {
    for (const Column& col : name.columns) {
      for (const Slot& slot : col.slots) {
        out += first ? "\n" : ",\n";
        first = false;
        const std::string entity = Entity{col.kind, slot.id}.to_string();
        if (slot.kind == MetricKind::kHistogram) {
          const auto& d = *static_cast<const HistogramData*>(slot.data);
          out += "{\"buckets\":[";
          for (std::size_t i = 0; i < d.buckets.size(); ++i) {
            if (i != 0) out += ',';
            append_uint(out, d.buckets[i]);
          }
          out += "],\"count\":";
          append_uint(out, d.count);
          out += ",\"entity\":\"" + entity + "\"";
          out += ",\"kind\":\"histogram\",\"name\":\"" + name.text +
                 "\",\"sum\":";
          append_uint(out, d.sum);
          out += "}";
        } else {
          out += "{\"entity\":\"" + entity + "\",\"kind\":\"";
          out += metric_kind_name(slot.kind);
          out += "\",\"name\":\"" + name.text + "\",\"value\":";
          append_uint(out, slot.scalar());
          out += "}";
        }
      }
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
