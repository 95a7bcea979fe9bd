// Shared test scaffolding — the library Testbed under the name the
// tests historically used, and a probe for channel teardown.
#pragma once

#include <cstdint>

#include "express/router.hpp"
#include "ip/channel.hpp"
#include "net/network.hpp"
#include "testbed/testbed.hpp"

namespace express::test {

using ExpressNetwork = ::express::Testbed;

/// Runs `network` one event at a time until `router` no longer holds
/// `channel`, and returns how many events that last step cancelled: the
/// timers the channel's teardown stopped. Returns 0 when the queue runs
/// dry with the channel still held.
inline std::uint64_t cancelled_by_teardown(net::Network& network,
                                           const ExpressRouter& router,
                                           const ip::ChannelId& channel) {
  sim::Scheduler& scheduler = network.scheduler();
  while (router.on_tree(channel)) {
    const std::uint64_t before = scheduler.stats().cancelled;
    if (!scheduler.step()) break;
    if (!router.on_tree(channel)) return scheduler.stats().cancelled - before;
  }
  return 0;
}

}  // namespace express::test
