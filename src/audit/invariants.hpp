// Tree-invariant auditor (paper §3.2, §4.1).
//
// EXPRESS channel state is *hard state*: every router's upstream Count
// advertisement must equal the sum of its downstream advertisements,
// the distribution tree must agree with unicast RPF, and forwarding
// state must exist exactly where members do. Nothing in the protocol
// machinery checks this at runtime — the auditor does, from outside:
// it walks a quiescent Network, reads each ExpressRouter's hard state
// through the layered accessors, and cross-checks neighboring routers
// against each other. Four invariants, per channel:
//
//   (a) Count conservation (§3.2, §4.1): each downstream entry equals
//       the child's advertised_upstream (router child) or local
//       subscription count (host child); a router's own advertisement
//       is sign-consistent with its subtree sum, and exactly equal
//       under proactive counting (§6) at quiescence.
//   (b) RPF consistency (§3.2): a channel's upstream matches
//       routing().rpf_neighbor() once route-change hysteresis has
//       settled (routers with pending switches are skipped).
//   (c) No orphan forwarding state (§3.4): FIB entries and membership
//       state exist for exactly the same channels, subtree counts are
//       positive, and the replication set matches the members.
//   (d) No forwarding loops (§3.2): upstream pointers form a forest —
//       every walk toward the source terminates without revisiting a
//       router.
//
// The auditor is read-only and event-free: it schedules nothing and
// sends nothing, so it can run between any two events. Meaningful
// verdicts require quiescence (no control messages in flight); the
// chaos campaign driver (workload/chaos) samples it at event
// boundaries and records the first stable-clean instant per fault.
//
// Cost model: the router pass reads one node-kind byte per node and
// resolves a node's type only when it is a router node or a check names
// it as a neighbour; ExpressRouter and ExpressHost refuse to attach to a
// node of another kind, so the kind is an exact pre-filter. The rest is
// proportional to the on-tree (router, channel) pairs and their
// downstream entries: one walk over a pair's entries checks their
// counts, sums the subtree and collects the replication set (a member's
// interface found by a scan of the router's port records), the orphan
// check reports what that walk recorded, and the loop pass colours the
// pairs themselves, finding an upstream pair by binary search within its
// channel. The pairs are sorted for that pass only when they span
// channels out of order. The scratch is sized by the pairs, never by the
// node count; there are no per-call maps or sets, and an FIB is
// rescanned for orphans only when its size says one exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ip/channel.hpp"
#include "net/topology.hpp"

namespace express::net {
class Network;
}

namespace express::audit {

enum class Check : std::uint8_t {
  kCountConservation,
  kRpfConsistency,
  kOrphanState,
  kForwardingLoop,
};

[[nodiscard]] const char* check_name(Check check);

struct Violation {
  Check check = Check::kCountConservation;
  net::NodeId router = net::kInvalidNode;
  ip::ChannelId channel;
  std::string detail;  ///< human-readable diagnosis
  /// Trace position at audit time: when tracing is enabled, every event
  /// with obs::TraceRecord::index < trace_index preceded this violation
  /// (the anchor for replay-based diagnosis, DESIGN.md §11).
  std::uint64_t trace_index = 0;
};

struct AuditReport {
  std::vector<Violation> violations;
  std::size_t routers_audited = 0;
  std::size_t channels_audited = 0;  ///< (router, channel) pairs
  std::size_t edges_checked = 0;     ///< parent/child count agreements

  [[nodiscard]] bool clean() const { return violations.empty(); }
  [[nodiscard]] std::size_t count(Check check) const;
  /// One line per violation, for test failure messages and logs.
  [[nodiscard]] std::string to_string() const;
};

/// Walks a Network and verifies the four EXPRESS tree invariants over
/// every ExpressRouter it finds (non-EXPRESS nodes are ignored, so the
/// auditor also runs on mixed/baseline topologies and simply audits
/// the EXPRESS subset).
class InvariantAuditor {
 public:
  explicit InvariantAuditor(const net::Network& network)
      : network_(&network) {}

  [[nodiscard]] AuditReport run() const;

 private:
  const net::Network* network_;
};

}  // namespace express::audit
