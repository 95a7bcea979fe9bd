// Unified observability plane: metrics registry + deterministic event
// trace.
//
//   * Registry — named counters/gauges/histograms, each owned by an
//     Entity (router/host/link/...). A module declares its metrics
//     once, as a table of {&XStats::field, "metric.name"} rows passed
//     to Scope::bind<XStats>(). The registry carves one zeroed,
//     address-stable XStats block per call from a chunked arena and
//     publishes each listed field under its name; the module keeps the
//     returned pointer, so a fast-path increment (`++stats_->field`) is
//     one indirect add and `stats()` is a copy of the block.
//     snapshot_json() serializes the whole registry in a canonical form
//     (entries sorted by (name, entity), integers only, sim-time
//     stamped) that is byte-identical across identically seeded runs.
//   * Trace — a fixed-capacity ring of POD records (packet
//     sent/delivered/dropped, subscription change, count-round
//     start/end, timer fire, fault inject/heal) stamped with *sim*
//     time only (wall clocks are banned in src/ — detlint enforces
//     this here too). Disabled by default: emit() is a two-load branch
//     until enable() arms it. Export to JSONL, filter by entity/type;
//     scripts/tracediff.py pinpoints the first divergent record
//     between two captures.
//   * Plane / Scope — a Plane is one Registry + one Trace. Each
//     net::Network owns a private Plane so concurrently-live networks
//     (A/B benches, multi-testbed tests) never share counters; modules
//     constructed outside a Network resolve to a process-global Plane
//     under a fresh anonymous entity. A Scope is the (plane, entity)
//     pair a module binds once via resolved() and registers through.
//     Blocks belong to the registry, not the module, so they outlive
//     every module that writes them (a standalone module registered on
//     the process-global plane dies before that plane does).
//
// Determinism contract: nothing in this module reads wall clocks,
// addresses, or iteration order of unordered containers. The registry
// stores each metric name once, in a vector sorted by name bytes; under
// each name, one column per entity kind (ascending kind) holds a slot
// per entity (ascending id). That nesting is the (name, entity) order,
// so snapshot_json() walks it directly. Memory is one 16-byte slot per
// published field plus the blocks themselves, whatever the ids are:
// anonymous entity ids come from a process-global monotonic counter
// (unbounded), so in-process replays of the same construction sequence
// serialize identically, and no column is indexed by raw id.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"

namespace express::obs {

// ---------------------------------------------------------------------------
// Entities
// ---------------------------------------------------------------------------

enum class EntityKind : std::uint8_t {
  kNone = 0,  ///< unresolved scope (binds to kAnon on resolve())
  kNet,       ///< the network fabric itself
  kRouter,
  kHost,
  kLan,    ///< layer-2 hub nodes
  kLink,   ///< one (bidirectional) topology link
  kRelay,  ///< session-relay middleware on a host
  kAnon,   ///< standalone module outside any Network (unit tests, benches)
};

[[nodiscard]] const char* entity_kind_name(EntityKind kind);

/// Who a metric or trace record belongs to. Ordered (kind, id) so the
/// registry index — and with it every snapshot — has one canonical order.
struct Entity {
  EntityKind kind = EntityKind::kNone;
  std::uint32_t id = 0;

  static Entity network() { return {EntityKind::kNet, 0}; }
  static Entity router(std::uint32_t id) { return {EntityKind::kRouter, id}; }
  static Entity host(std::uint32_t id) { return {EntityKind::kHost, id}; }
  static Entity lan(std::uint32_t id) { return {EntityKind::kLan, id}; }
  static Entity link(std::uint32_t id) { return {EntityKind::kLink, id}; }
  static Entity relay(std::uint32_t id) { return {EntityKind::kRelay, id}; }
  /// A fresh process-unique anonymous entity (monotonic id).
  static Entity anon();

  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(const Entity&, const Entity&) = default;
};

// ---------------------------------------------------------------------------
// Metric tables and histogram handles
// ---------------------------------------------------------------------------

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One row of a module's metric table: a uint64 field of the module's
/// stats block and the registry name it is published under, as a
/// counter or a gauge (histograms have their own handle, below).
template <class S>
struct Metric {
  std::uint64_t S::*field;
  std::string_view name;
  MetricKind kind = MetricKind::kCounter;
};

inline constexpr std::size_t kHistogramBuckets = 32;

/// Power-of-two histogram payload: bucket i counts observed values v
/// with bit_width(v) == i, i.e. [2^(i-1), 2^i) for i >= 1 and {0} for
/// i == 0 (values wider than 31 bits land in the last bucket).
struct HistogramData {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};

class Histogram {
 public:
  Histogram() = default;

  void observe(std::uint64_t v) const;
  [[nodiscard]] const HistogramData& data() const { return *data_; }

 private:
  friend class Registry;
  explicit Histogram(HistogramData* data) : data_(data) {}

  static HistogramData sink_;
  HistogramData* data_ = &sink_;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Allocate a zeroed S that this registry owns (its address never
  /// changes) and publish each row's field under (row.name, entity).
  /// Re-registering a live (name, entity) repoints it at the new block:
  /// a fresh module instance starts from zero and size() does not grow.
  template <class S>
  [[nodiscard]] S* bind(Entity entity, std::initializer_list<Metric<S>> rows) {
    static_assert(std::is_trivially_destructible_v<S> &&
                  alignof(S) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    S* block = ::new (arena_.allocate(sizeof(S), alignof(S))) S{};
    for (const Metric<S>& row : rows) {
      assert(row.kind != MetricKind::kHistogram);
      publish(row.name, entity, row.kind, &(block->*row.field));
    }
    return block;
  }
  /// Register (or re-register, which starts a fresh zeroed histogram)
  /// a histogram and return its handle.
  Histogram histogram(std::string_view name, Entity entity);

  /// Scalar value of (name, entity), or 0 when absent.
  [[nodiscard]] std::uint64_t value(std::string_view name,
                                    Entity entity) const;
  /// Sum of a scalar metric over every entity carrying it.
  [[nodiscard]] std::uint64_t sum(std::string_view name) const;
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Canonical JSON snapshot: one object per metric, entries sorted by
  /// (name, entity), object keys sorted alphabetically, integers only,
  /// stamped with the simulated time. Byte-identical across identically
  /// seeded runs.
  [[nodiscard]] std::string snapshot_json(sim::Time at) const;

 private:
  /// One published metric of one entity. `data` points at a uint64
  /// field of a stats block, or at a HistogramData when kind says so.
  struct Slot {
    std::uint32_t id = 0;  ///< Entity::id
    MetricKind kind = MetricKind::kCounter;
    const void* data = nullptr;

    [[nodiscard]] std::uint64_t scalar() const {
      return *static_cast<const std::uint64_t*>(data);
    }
  };
  /// Every entity of one kind that carries a name, ascending by id.
  struct Column {
    EntityKind kind = EntityKind::kNone;
    std::vector<Slot> slots;
  };
  /// A metric name, stored once, and its columns ascending by kind.
  struct Name {
    std::string text;
    std::vector<Column> columns;
  };

  /// Chunked bump allocator for stats blocks and histograms. A chunk is
  /// never moved or freed before the registry, so carved storage stays
  /// put; every block of a chunk is trivially destructible.
  class Arena {
   public:
    [[nodiscard]] void* allocate(std::size_t size, std::size_t align);

   private:
    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    std::size_t used_ = 0;
    std::size_t capacity_ = 0;
  };

  void publish(std::string_view name, Entity entity, MetricKind kind,
               const void* data);
  [[nodiscard]] const Name* find(std::string_view name) const;

  /// Sorted by text, so snapshot_json() walks names, columns and slots
  /// in (name, entity) order without sorting anything.
  std::vector<Name> names_;
  std::size_t size_ = 0;
  Arena arena_;
};

// ---------------------------------------------------------------------------
// Event trace
// ---------------------------------------------------------------------------

enum class TraceType : std::uint8_t {
  kPacketSent = 0,
  kPacketDelivered,
  kPacketDropped,
  kSubscriptionChange,
  kCountRoundStart,
  kCountRoundEnd,
  kTimerFire,
  kFaultInject,
  kFaultHeal,
  // Lossy-link impairments and the reliable repair path. Appended only:
  // the numeric values above are pinned by existing traces.
  kPacketLost,       ///< impairment model dropped a copy on a link
  kPacketReordered,  ///< impairment model delayed a copy (reorder window)
  kRepairRoundStart, ///< reliable::Publisher NACK-count round begins
  kRepairRoundEnd,   ///< round done: a = round, b = outstanding NACKs
  kRetransmit,       ///< one block retransmitted (b: 1 = subcast)
};

[[nodiscard]] const char* trace_type_name(TraceType type);

/// Packet-drop reason codes carried in TraceRecord::a for
/// kPacketDropped records.
enum class DropReason : std::uint8_t {
  kLinkDown = 1,
  kNoRoute = 2,
  kTtlExpired = 3,
  kNoFibEntry = 4,
  kRpfFail = 5,
  kPolicy = 6,  ///< application-level policy (relay authorization, floor)
};

/// One POD trace record. a/b/c are type-specific operands (packet
/// bytes, channel words, sequence numbers, ...) — all derived from
/// simulation state, never from the environment.
struct TraceRecord {
  std::int64_t time_ns = 0;  ///< sim::Time, nanoseconds since start
  std::uint64_t index = 0;   ///< global emission index (never resets)
  Entity entity{};
  TraceType type = TraceType::kPacketSent;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

struct TraceFilter {
  std::optional<Entity> entity;
  std::optional<TraceType> type;

  [[nodiscard]] bool matches(const TraceRecord& rec) const {
    return (!entity || rec.entity == *entity) && (!type || rec.type == *type);
  }
};

/// Fixed-capacity ring of TraceRecords. Disabled (zero-capacity) by
/// default: emit() costs one load and one branch until enable() arms
/// it. When the ring is full the oldest records are overwritten; the
/// global `index` keeps growing, so exports reveal truncation.
class Trace {
 public:
  void enable(std::size_t capacity);
  void disable();
  [[nodiscard]] bool enabled() const { return capacity_ != 0; }

  void emit(sim::Time t, Entity entity, TraceType type, std::uint64_t a = 0,
            std::uint64_t b = 0, std::uint64_t c = 0) {
    if (capacity_ == 0) return;
    record(t, entity, type, a, b, c);
  }

  /// Total records ever emitted == the index the *next* record gets.
  [[nodiscard]] std::uint64_t next_index() const { return emitted_; }
  /// Records currently retained in the ring.
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// Retained record `i`, oldest first.
  [[nodiscard]] const TraceRecord& at(std::size_t i) const;

  [[nodiscard]] std::size_t count(const TraceFilter& filter = {}) const;
  /// One canonical JSON object per line (keys sorted), oldest first.
  [[nodiscard]] std::string to_jsonl(const TraceFilter& filter = {}) const;

  void clear();

 private:
  void record(sim::Time t, Entity entity, TraceType type, std::uint64_t a,
              std::uint64_t b, std::uint64_t c);

  std::vector<TraceRecord> ring_;
  std::size_t capacity_ = 0;
  std::uint64_t emitted_ = 0;
};

// ---------------------------------------------------------------------------
// Plane & scope
// ---------------------------------------------------------------------------

/// One observability domain: a registry and a trace that age together.
/// net::Network owns one; standalone modules share the global() plane.
struct Plane {
  Registry registry;
  Trace trace;

  /// Process-global fallback plane for modules constructed outside any
  /// Network (unit tests, micro-benches).
  static Plane& global();
};

/// The (plane, entity) pair a module observes through. Default (null
/// plane) means "unbound": resolved() binds it to the global plane
/// under a fresh anonymous entity. Modules should store the *resolved*
/// scope once and register every metric through it, so all their slots
/// share one entity.
struct Scope {
  Plane* plane = nullptr;
  Entity entity{};

  [[nodiscard]] Scope resolved() const {
    if (plane != nullptr && entity.kind != EntityKind::kNone) return *this;
    Scope s;
    s.plane = plane != nullptr ? plane : &Plane::global();
    s.entity = entity.kind != EntityKind::kNone ? entity : Entity::anon();
    return s;
  }

  template <class S>
  [[nodiscard]] S* bind(std::initializer_list<Metric<S>> rows) const {
    Scope s = resolved();
    return s.plane->registry.bind<S>(s.entity, rows);
  }
  [[nodiscard]] Histogram histogram(std::string_view name) const {
    Scope s = resolved();
    return s.plane->registry.histogram(name, s.entity);
  }

  [[nodiscard]] bool tracing() const {
    return plane != nullptr && plane->trace.enabled();
  }
  void emit(sim::Time t, TraceType type, std::uint64_t a = 0,
            std::uint64_t b = 0, std::uint64_t c = 0) const {
    if (plane != nullptr) plane->trace.emit(t, entity, type, a, b, c);
  }
};

}  // namespace express::obs
