// Backup session relays (§4.2).
//
// "An application can select to use additional backup SRs for fault-
// tolerance, controlling their number, placement, and switch-over
// policy." StandbyCluster pairs a primary SR with a backup: the backup
// host subscribes to the primary channel, watches heartbeats, and
// activates its own relay when the primary goes silent. Participants
// fail over independently (hot: already subscribed; cold: subscribe on
// detection).
#pragma once

#include "relay/participant.hpp"
#include "relay/session_relay.hpp"
#include "sim/scheduler.hpp"

namespace express::relay {

class StandbyCluster {
 public:
  /// `backup_host` must be a different host than the primary SR's; it
  /// runs `backup` (inactive) and promotes it after kHeartbeatDeadline
  /// without a primary beacon.
  StandbyCluster(SessionRelay& primary, SessionRelay& backup,
                 ExpressHost& backup_host);
  ~StandbyCluster() { stop(); }

  [[nodiscard]] bool backup_active() const { return backup_.active(); }

  /// Start monitoring (subscribes the backup host to the primary channel).
  void start();
  /// Stop monitoring: cancels the watchdog timer (promotion no longer
  /// fires). Idempotent; also runs on destruction.
  void stop() { timer_.cancel(); }

 private:
  void arm_timer();
  void promote();

  SessionRelay& primary_;
  SessionRelay& backup_;
  ExpressHost& backup_host_;
  sim::EventHandle timer_;
};

}  // namespace express::relay
