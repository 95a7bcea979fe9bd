// ECMP neighbor sessions.
//
// ECMP runs over TCP or UDP per interface (paper §3.2): TCP mode keeps a
// connection per neighbor — one subscribe message and one unsubscribe per
// channel, a single keepalive detects failure, no per-channel refresh;
// UDP mode (for edge routers with many hosts) uses periodic CountQuery
// refreshes like IGMP, with no report suppression (like IGMPv3).
//
// The simulator does not re-implement the TCP state machine; what ECMP
// relies on is (a) reliable in-order delivery while the peer lives and
// (b) prompt failure detection. NeighborTable provides (b): liveness
// tracked from any ECMP traffic plus periodic neighbor-discovery
// queries (§3.3).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/topology.hpp"
#include "sim/time.hpp"

namespace express::ecmp {

enum class Mode : std::uint8_t {
  kTcp,  ///< connection per neighbor; unsolicited joins/leaves only
  kUdp,  ///< soft state; periodic query/refresh, explicit leaves
};

struct NeighborSession {
  net::NodeId neighbor = net::kInvalidNode;
  sim::Time last_heard{0};
  bool alive = true;
};

/// Tracks per-neighbor liveness for one router.
class NeighborTable {
 public:
  /// Record traffic (or an explicit keepalive/discovery reply) from
  /// `neighbor` at time `now`. Returns true only when a previously
  /// *failed* session revives — the TCP re-establishment on which the
  /// downstream neighbor re-announces all its channels (§3.2). First
  /// contact returns false: the initial join itself is the announcement.
  bool heard_from(net::NodeId neighbor, sim::Time now);

  /// Sweep for sessions silent longer than `timeout`; marks them dead
  /// and returns them (the router then subtracts their counts, §3.2).
  std::vector<NeighborSession> expire(sim::Time now, sim::Duration timeout);

 private:
  /// Ordered: expire() hands dead sessions to teardown in neighbor order.
  std::map<net::NodeId, NeighborSession> sessions_;
};

}  // namespace express::ecmp
