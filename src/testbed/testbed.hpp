// A wired-up EXPRESS network: generated topology + routers + hosts.
//
// Shared by the test suite, the benchmark harness, and the examples —
// the few lines of glue every experiment needs: attach an ExpressRouter
// to every router node and an ExpressHost to every host node, and keep
// typed references to the pieces (source, receivers, root router).
// Hosts count deliveries (stats().data_received) but keep no per-packet
// log; attach a DeliveryLog (testbed/delivery_log.hpp) to a receiver's
// set_data_handler before the run to record its packets.
#pragma once

#include <memory>
#include <vector>

#include "express/host.hpp"
#include "express/router.hpp"
#include "net/network.hpp"
#include "sim/time.hpp"
#include "workload/topo_gen.hpp"

namespace express {

class Testbed {
 public:
  explicit Testbed(workload::GeneratedTopology generated,
                   RouterConfig router_config = {})
      : roles_(std::move(generated)),
        network_(std::make_unique<net::Network>(std::move(roles_.topology))) {
    for (net::NodeId router : roles_.routers) {
      routers_.push_back(
          &network_->attach<ExpressRouter>(router, router_config));
    }
    source_ = &network_->attach<ExpressHost>(roles_.source_host);
    for (net::NodeId host : roles_.receiver_hosts) {
      receivers_.push_back(&network_->attach<ExpressHost>(host));
    }
  }

  [[nodiscard]] net::Network& net() { return *network_; }
  [[nodiscard]] ExpressHost& source() { return *source_; }
  [[nodiscard]] ExpressHost& receiver(std::size_t i) { return *receivers_.at(i); }
  [[nodiscard]] std::size_t receiver_count() const { return receivers_.size(); }
  [[nodiscard]] ExpressRouter& router(std::size_t i) { return *routers_.at(i); }
  [[nodiscard]] std::size_t router_count() const { return routers_.size(); }

  /// The source's first-hop router (the channel tree root).
  [[nodiscard]] ExpressRouter& source_router() {
    for (std::size_t i = 0; i < roles_.routers.size(); ++i) {
      if (roles_.routers[i] == roles_.source_router) return *routers_[i];
    }
    return *routers_.front();
  }

  [[nodiscard]] const workload::GeneratedTopology& roles() const {
    return roles_;
  }

  /// Advance the simulation by `d`.
  void run_for(sim::Duration d) { network_->run_until(network_->now() + d); }

  /// Network-wide FIB entries (sums all routers).
  [[nodiscard]] std::size_t total_fib_entries() const {
    std::size_t n = 0;
    for (const ExpressRouter* r : routers_) n += r->fib().size();
    return n;
  }

  /// Network-wide §5.2 management state (sums all routers).
  [[nodiscard]] std::size_t total_management_bytes() const {
    std::size_t n = 0;
    for (const ExpressRouter* r : routers_) n += r->management_state_bytes();
    return n;
  }

  /// Network-wide ECMP control bytes sent by routers and hosts.
  [[nodiscard]] std::uint64_t total_control_bytes() const {
    std::uint64_t n = 0;
    for (const ExpressRouter* r : routers_) n += r->stats().control_bytes_sent;
    n += source_->stats().control_bytes_sent;
    for (const ExpressHost* h : receivers_) n += h->stats().control_bytes_sent;
    return n;
  }

 private:
  workload::GeneratedTopology roles_;
  std::unique_ptr<net::Network> network_;
  std::vector<ExpressRouter*> routers_;
  std::vector<ExpressHost*> receivers_;
  ExpressHost* source_ = nullptr;
};

}  // namespace express
