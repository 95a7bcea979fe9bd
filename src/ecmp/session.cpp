#include "ecmp/session.hpp"

namespace express::ecmp {

bool NeighborTable::heard_from(net::NodeId neighbor, sim::Time now) {
  auto [it, inserted] = sessions_.try_emplace(neighbor);
  NeighborSession& s = it->second;
  const bool revived = !inserted && !s.alive;
  s.neighbor = neighbor;
  s.last_heard = now;
  s.alive = true;
  return revived;
}

std::vector<NeighborSession> NeighborTable::expire(sim::Time now,
                                                   sim::Duration timeout) {
  std::vector<NeighborSession> dead;
  for (auto& [id, s] : sessions_) {
    if (s.alive && now - s.last_heard > timeout) {
      s.alive = false;
      dead.push_back(s);
    }
  }
  return dead;
}

}  // namespace express::ecmp
