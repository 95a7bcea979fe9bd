#include "relay/standby.hpp"

namespace express::relay {

StandbyCluster::StandbyCluster(SessionRelay& primary, SessionRelay& backup,
                               ExpressHost& backup_host)
    : primary_(primary), backup_(backup), backup_host_(backup_host) {}

void StandbyCluster::start() {
  backup_host_.new_subscription(primary_.channel());
  backup_host_.set_data_handler([this](const net::Packet& packet, sim::Time) {
    const ip::ChannelId from{packet.src, packet.dst};
    if (from == primary_.channel() && !backup_.active()) arm_timer();
  });
  arm_timer();
}

void StandbyCluster::arm_timer() {
  timer_.cancel();
  timer_ = backup_host_.network().scheduler().schedule_after(
      kHeartbeatDeadline, [this]() { promote(); });
}

void StandbyCluster::promote() {
  if (backup_.active()) return;
  backup_.start();
}

}  // namespace express::relay
