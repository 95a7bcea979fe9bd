// The network fabric: glues topology, routing, scheduler, and nodes.
//
// Transmission model: each link direction is a FIFO transmitter — a
// packet starts serializing when the line is free (so small packets
// never overtake large ones, as on real links), takes wire_size /
// bandwidth to serialize, then propagates for the link delay. Per-link
// byte and packet counters feed the bandwidth-cost experiments. Unicast
// convenience routing walks the shortest path link by link so delay and
// link accounting stay faithful without requiring every node to
// implement an IP forwarding plane.
//
// In-flight copies: every copy the fabric hands to a node — a copy out
// one interface, a replication copy, a unicast packet's last hop or
// loopback — is a 16-byte record in a delivery batch, and the packet it
// carries is shared with the copy before it in the batch when the two
// are identical. A batch is one scheduler event. A copy joins the open
// batch (the delivery event last put on the scheduler) when that batch
// is due at the copy's arrival instant, nothing was scheduled since, and
// it has not started dispatching; otherwise it opens a new batch. Alone,
// the copy would have taken the very next sequence number at the same
// instant, so the global (time, seq) dispatch order, every wire counter
// and every trace record except kTimerFire stay as they were with one
// event per copy (set_fanout_batching(false), the test oracle). All
// senders of one tree level thus share one event per arrival instant.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ip/address.hpp"
#include "net/impairment.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace express::net {

struct LinkStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

struct NetworkStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t packets_dropped_link_down = 0;
  std::uint64_t packets_dropped_no_route = 0;
  std::uint64_t packets_dropped_ttl = 0;
  std::uint64_t packets_dropped_loss = 0;  ///< impairment-model losses
  std::uint64_t packets_reordered = 0;     ///< impairment-model reorders
};

/// Bookkeeping for a reader that keeps its own memory of node state
/// between reads (the invariant audit): nodes report each change of
/// the hard state such a reader inspects through
/// Network::note_state_change. An observer is not protocol state; it
/// schedules and sends nothing.
class StateObserver {
 public:
  StateObserver() = default;
  StateObserver(const StateObserver&) = delete;
  StateObserver& operator=(const StateObserver&) = delete;
  StateObserver(StateObserver&&) = delete;
  StateObserver& operator=(StateObserver&&) = delete;
  virtual ~StateObserver() = default;
  virtual void on_state_change(NodeId id) = 0;
};

/// Storage of the copies in flight (see the header comment).
struct DeliveryPoolStats {
  std::uint64_t in_flight = 0;       ///< copies scheduled, not yet delivered
  std::uint64_t peak_in_flight = 0;  ///< high-water mark of in_flight
  /// Bytes of copy and packet records the pool holds, live or free. It
  /// grows only with the peak number of records live at once.
  std::uint64_t retained_bytes = 0;
};

class Network {
 public:
  explicit Network(Topology topology)
      : topology_(std::move(topology)),
        routing_(topology_),
        link_free_(topology_.link_count()) {
    stats_ = plane_.registry.bind<NetworkStats>(
        obs::Entity::network(),
        {
            {&NetworkStats::packets_sent, "net.packets_sent"},
            {&NetworkStats::bytes_sent, "net.bytes_sent"},
            {&NetworkStats::packets_dropped_link_down, "net.drop.link_down"},
            {&NetworkStats::packets_dropped_no_route, "net.drop.no_route"},
            {&NetworkStats::packets_dropped_ttl, "net.drop.ttl"},
            {&NetworkStats::packets_dropped_loss, "net.drop.loss"},
            {&NetworkStats::packets_reordered, "net.reordered"},
        });
    link_stats_.resize(topology_.link_count());
    for (LinkId l = 0; l < topology_.link_count(); ++l) {
      link_stats_[l] = plane_.registry.bind<LinkStats>(
          obs::Entity::link(l), {{&LinkStats::packets, "net.link.packets"},
                                 {&LinkStats::bytes, "net.link.bytes"}});
    }
  }

  [[nodiscard]] sim::Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] const UnicastRouting& routing() const { return routing_; }
  [[nodiscard]] sim::Time now() const { return scheduler_.now(); }

  /// This network's observability plane: every module attached to the
  /// network registers its metrics (and emits trace records) here, so
  /// concurrently-live networks never share counters.
  [[nodiscard]] obs::Plane& obs() { return plane_; }
  [[nodiscard]] const obs::Plane& obs() const { return plane_; }

  /// The obs entity a topology node observes as (router/host/lan by
  /// node kind), and the bound scope modules should register through.
  [[nodiscard]] obs::Entity node_entity(NodeId id) const {
    switch (topology_.node(id).kind) {
      case NodeKind::kHost:
        return obs::Entity::host(id);
      case NodeKind::kLanHub:
        return obs::Entity::lan(id);
      case NodeKind::kRouter:
        break;
    }
    return obs::Entity::router(id);
  }
  [[nodiscard]] obs::Scope node_scope(NodeId id) {
    return obs::Scope{&plane_, node_entity(id)};
  }

  /// Construct and register a node of type T at topology node `id`.
  /// T's constructor must take (Network&, NodeId, extra args...). A
  /// node attaches once: replacing it would destroy an object whose
  /// scheduled `[this]` ticks still fire, so a second attach throws
  /// std::logic_error.
  template <typename T, typename... Args>
  T& attach(NodeId id, Args&&... args) {
    if (nodes_.size() < topology_.node_count()) {
      nodes_.resize(topology_.node_count());
    }
    if (nodes_.at(id) != nullptr) {
      throw std::logic_error("Network::attach: node already attached");
    }
    auto node = std::make_unique<T>(*this, id, std::forward<Args>(args)...);
    T& ref = *node;
    nodes_.at(id) = std::move(node);
    note_state_change(id);
    return ref;
  }

  /// Node `id`'s observed hard state changed (see StateObserver): one
  /// null check when no observer is installed. Never called on the
  /// data path.
  void note_state_change(NodeId id) const {
    if (state_observer_ != nullptr) state_observer_->on_state_change(id);
  }
  /// The one observer slot. It is filled from const readers, the way
  /// UnicastRouting fills its tree cache from const queries, and the
  /// observer is destroyed with the network.
  [[nodiscard]] StateObserver* state_observer() const {
    return state_observer_.get();
  }
  void set_state_observer(std::unique_ptr<StateObserver> observer) const {
    state_observer_ = std::move(observer);
  }

  [[nodiscard]] Node* node(NodeId id) {
    return id < nodes_.size() ? nodes_[id].get() : nullptr;
  }
  [[nodiscard]] const Node* node(NodeId id) const {
    return id < nodes_.size() ? nodes_[id].get() : nullptr;
  }

  /// Resolve a unicast address to its topology node (O(1), see
  /// Topology::find_by_address).
  [[nodiscard]] std::optional<NodeId> node_of(ip::Address address) const {
    return topology_.find_by_address(address);
  }

  /// Transmit a copy of `packet` from `from` out its interface `iface`.
  /// Returns false (and counts the drop) when the link is down; a copy
  /// lost to impairments still took its wire slot and counts as sent.
  /// TTL policy is the caller's business: the copy is sent as given.
  bool send_on_interface(NodeId from, std::uint32_t iface,
                         const Packet& packet);

  /// Test/bench knob: give every copy its own delivery event (the
  /// shape before batching). Delivery order is identical either way;
  /// only event counts differ.
  void set_fanout_batching(bool on) { fanout_batching_ = on; }

  /// Occupancy of the in-flight copy storage.
  [[nodiscard]] DeliveryPoolStats delivery_pool() const;

  /// Transmit to a directly attached neighbor (resolves the interface).
  void send_to_neighbor(NodeId from, NodeId neighbor, const Packet& packet);

  /// Route a unicast packet hop-by-hop from `from` to the topology node
  /// owning packet.dst, charging every traversed link, and deliver it
  /// there. Packets to unreachable destinations are counted and dropped.
  /// Intermediate nodes do NOT see the packet (pure IP transit).
  void send_unicast(NodeId from, Packet packet);

  /// Fail or restore a link; recomputes routing and notifies all nodes.
  void set_link_up(LinkId link, bool up);

  /// Apply `config` to one link (both directions). Loss and reorder
  /// dice come from the network-owned impairment RNG; reseed via
  /// seed_impairments() before traffic for reproducible campaigns.
  void set_link_impairments(LinkId link, const ImpairmentConfig& config);

  /// Apply `config` to every link. Equivalent to calling
  /// set_link_impairments() per link; per-link overrides can follow.
  void set_default_impairments(const ImpairmentConfig& config);

  /// Reseed the impairment RNG (also resets Gilbert burst state). A
  /// network whose links all carry neutral configs draws nothing.
  void seed_impairments(std::uint64_t seed);

  [[nodiscard]] const ImpairmentConfig& link_impairments(LinkId link) const {
    static const ImpairmentConfig kNeutral{};
    return link < impair_cfg_.size() ? impair_cfg_[link] : kNeutral;
  }

  /// Copies of the registry-bound blocks (see DESIGN.md §11).
  [[nodiscard]] NetworkStats stats() const { return *stats_; }
  [[nodiscard]] LinkStats link_stats(LinkId link) const {
    return *link_stats_.at(link);
  }

  /// Sum of bytes over all links (total delivered bandwidth-volume).
  [[nodiscard]] std::uint64_t total_link_bytes() const;

  /// Run the simulation until `deadline`.
  void run_until(sim::Time deadline) { scheduler_.run_until(deadline); }
  void run() { scheduler_.run(); }
  /// Earliest pending event (see sim::Scheduler::next_event_time).
  [[nodiscard]] std::optional<sim::Time> next_event_time() {
    return scheduler_.next_event_time();
  }

 private:
  /// Single funnel for handing a packet to its destination node: emits
  /// the kPacketDelivered trace record, then dispatches.
  void deliver_packet(NodeId to, const Packet& packet, std::uint32_t iface);

  void trace_drop(obs::DropReason reason, LinkId link) {
    plane_.trace.emit(scheduler_.now(), obs::Entity::network(),
                      obs::TraceType::kPacketDropped,
                      static_cast<std::uint64_t>(reason), link);
  }

  /// One copy crossing `link` out of `from`, the step every send path
  /// shares: a down link drops it (counted and traced); otherwise it
  /// takes FIFO wire time starting no earlier than `earliest` (counted
  /// and traced), then the impairment dice, which may lose it or add
  /// the reorder window to its arrival time at the peer.
  struct Crossing {
    enum Outcome : std::uint8_t { kArrives, kLinkDown, kLost };
    Outcome outcome = kArrives;
    sim::Time arrival{};  ///< at the peer; meaningful for kArrives only
  };
  Crossing cross_link(NodeId from, LinkId link, const Packet& packet,
                      std::uint32_t bytes, sim::Time earliest);

  /// Impairment dice for one copy crossing `link` out of `from`: the
  /// extra delay (0 or the reorder window), or nullopt when lost.
  /// Rolled after the wire time is reserved: a lost packet still
  /// occupied the wire, so surviving traffic keeps its exact FIFO
  /// timing whether or not loss is enabled. cross_link gates on
  /// impairments_armed_ so the disarmed fast path stays a single
  /// branch with zero RNG draws.
  std::optional<sim::Duration> roll_impairment(NodeId from, LinkId link,
                                               const Packet& packet);

  /// Hand a copy of `packet` to `to` on its interface `iface` at
  /// `arrival`: join the open batch or open a new one (see the header
  /// comment). The one place a delivery is scheduled.
  void schedule_delivery(sim::Time arrival, NodeId to, std::uint32_t iface,
                         const Packet& packet);
  /// The event of the batch whose first copy is `head`.
  void deliver_batch(std::uint32_t head);

  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// One copy in flight. The copies of a batch, and the free records,
  /// are singly linked through `next`.
  struct InFlight {
    NodeId to = 0;
    std::uint32_t iface = 0;   ///< arrival interface at `to`
    std::uint32_t packet = 0;  ///< index into packets_
    std::uint32_t next = kNil;
  };
  /// Records addressed by a 32-bit index, held in fixed pages of 256:
  /// an index costs a shift and a mask, growth never moves a record (so
  /// references stay valid, and a large pool is never held twice while
  /// it grows), and no record is released, so the store keeps the page
  /// count it peaked at.
  template <typename T>
  class Paged {
   public:
    T& operator[](std::uint32_t i) { return pages_[i >> kBits][i & kMask]; }
    /// Append `value`; returns its index.
    std::uint32_t push(T value) {
      if ((size_ & kMask) == 0) {
        pages_.push_back(std::make_unique<T[]>(std::size_t{kMask} + 1));
      }
      (*this)[size_] = std::move(value);
      return size_++;
    }
    [[nodiscard]] std::size_t bytes() const {
      return pages_.size() * (std::size_t{kMask} + 1) * sizeof(T);
    }

   private:
    static constexpr unsigned kBits = 8;
    static constexpr std::uint32_t kMask = (1U << kBits) - 1;
    std::vector<std::unique_ptr<T[]>> pages_;
    std::uint32_t size_ = 0;
  };

  /// The batch copies may still join (head == kNil: none).
  struct OpenBatch {
    sim::Time arrival{};
    std::uint64_t scheduled = 0;  ///< scheduler's count just after its event
    std::uint32_t head = kNil;
    InFlight* tail = nullptr;
  };

  Topology topology_;
  UnicastRouting routing_;
  /// Declared before scheduler_ so the scheduler can bind to it.
  obs::Plane plane_;
  sim::Scheduler scheduler_{obs::Scope{&plane_, obs::Entity::network()}};
  /// Declared before nodes_, so it outlives every node.
  mutable std::unique_ptr<StateObserver> state_observer_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Registry-owned blocks, one per link.
  std::vector<LinkStats*> link_stats_;
  /// Per link, per direction ([0]: a->b, [1]: b->a): when the
  /// transmitter becomes free (FIFO serialization).
  std::vector<std::array<sim::Time, 2>> link_free_;
  /// In-flight copy and packet records, recycled through free lists:
  /// the pool stays at its peak and the steady state allocates nothing.
  Paged<InFlight> copies_;
  std::uint32_t free_copy_ = kNil;
  Paged<Packet> packets_;
  std::vector<std::uint32_t> free_packets_;
  OpenBatch open_;
  std::uint64_t in_flight_ = 0;
  std::uint64_t peak_in_flight_ = 0;
  bool fanout_batching_ = true;
  /// Impairment state. The vectors stay empty until a config is set,
  /// and impairments_armed_ keeps the lossless packet path at one
  /// branch (no lookups, no RNG) — pinned traces depend on that.
  std::vector<ImpairmentConfig> impair_cfg_;
  /// Gilbert-Elliott "in bad state" flag per link direction.
  std::vector<std::array<std::uint8_t, 2>> impair_gilbert_bad_;
  sim::Rng impair_rng_;
  bool impairments_armed_ = false;
  NetworkStats* stats_ = nullptr;  ///< registry-owned block
};

}  // namespace express::net
