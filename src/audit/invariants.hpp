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
// The auditor is event-free: it schedules nothing and sends nothing, so
// it can run between any two events, and it changes no protocol state.
// Its one write is bookkeeping: the first run() installs a memo as the
// network's state observer (net::StateObserver), which routers and
// hosts tell of every change to the hard state the checks read; the
// memo is destroyed with the network. Meaningful verdicts require
// quiescence (no control messages in flight); the chaos campaign driver
// (workload/chaos) samples it at event boundaries and records the first
// stable-clean instant per fault.
//
// Cost model: the report is assembled from per-router shares, each the
// output of one per-router pass over that router's (router, channel)
// pairs and their downstream entries: one walk over a pair's entries
// checks their counts, sums the subtree and collects the replication
// set (a member's interface found by a scan of the router's port
// records), and the orphan check reports what that walk recorded. The
// first run() walks every node (one node-kind byte per node; a node's
// type is resolved only for router nodes and the neighbours a check
// names, the kind being an exact pre-filter because ExpressRouter and
// ExpressHost refuse other kinds). After that a sample re-walks only the
// routers whose state was noted as changed and the routers holding
// state next to any noted node; a unicast routing change re-walks every
// router holding state, never the stateless rest. The loop pass colours
// all pairs, finding an upstream pair by binary search within its
// channel, and re-runs only when a pair's upstream pointer changed or a
// pair came or went. A sample with nothing changed costs one check of
// the routing version, plus the formatting of any standing violations.
// The memo holds two bits per node; per router with state, its counts
// and its findings as numbers (the detail text is formatted only into
// a report); and every pair's upstream pointer as the last loop pass
// saw it. An FIB is rescanned for orphans only when its size says one
// exists.
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
  /// Work of this call alone: EXPRESS routers whose per-router pass ran
  /// (every one on the first call, the changed few after). Not part of
  /// the verdict; an incremental and a full walk differ only here.
  std::size_t routers_walked = 0;

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

  /// The report of the network as it stands. Incremental: re-walks only
  /// what changed since the previous run() on the same network.
  [[nodiscard]] AuditReport run() const;

  /// The same report from a walk of every router against a scratch memo,
  /// leaving the installed one untouched: the reference run() is tested
  /// against.
  [[nodiscard]] AuditReport full_walk() const;

 private:
  const net::Network* network_;
};

}  // namespace express::audit
