#include "ecmp/session.hpp"

namespace express::ecmp {

bool NeighborTable::heard_from(net::NodeId neighbor, std::uint32_t iface,
                               sim::Time now) {
  auto [it, inserted] = sessions_.try_emplace(neighbor);
  NeighborSession& s = it->second;
  const bool revived = !inserted && !s.alive;
  s.neighbor = neighbor;
  s.iface = iface;
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

std::optional<NeighborSession> NeighborTable::kill(net::NodeId neighbor) {
  auto it = sessions_.find(neighbor);
  if (it == sessions_.end() || !it->second.alive) return std::nullopt;
  it->second.alive = false;
  return it->second;
}

bool NeighborTable::is_alive(net::NodeId neighbor) const {
  auto it = sessions_.find(neighbor);
  return it != sessions_.end() && it->second.alive;
}

std::size_t NeighborTable::alive_count() const {
  std::size_t n = 0;
  for (const auto& [id, s] : sessions_) {
    if (s.alive) ++n;
  }
  return n;
}

}  // namespace express::ecmp
