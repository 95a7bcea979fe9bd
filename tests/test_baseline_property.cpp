// Property suites for the baseline protocols, parameterized over seeds:
// whatever the topology and membership pattern, members receive the
// stream and non-members' applications see nothing.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "baseline/cbt.hpp"
#include "baseline/dvmrp.hpp"
#include "baseline/group_host.hpp"
#include "baseline/pim_sm.hpp"
#include "net/network.hpp"
#include "testbed/delivery_log.hpp"
#include "workload/topo_gen.hpp"

namespace express::test {
namespace {

const ip::Address kGroup(226, 4, 4, 4);
constexpr int kPackets = 5;

struct Harness {
  workload::GeneratedTopology roles;
  std::unique_ptr<net::Network> network;
  baseline::GroupHost* source = nullptr;
  std::vector<baseline::GroupHost*> receivers;

  void attach_hosts() {
    source = &network->attach<baseline::GroupHost>(roles.source_host);
    for (net::NodeId id : roles.receiver_hosts) {
      receivers.push_back(&network->attach<baseline::GroupHost>(id));
    }
  }
};

/// Run the common scenario; returns per-receiver delivered sequence sets.
std::vector<std::set<std::uint64_t>> run_scenario(Harness& h,
                                                  ip::Protocol control,
                                                  const std::vector<bool>& member) {
  std::vector<DeliveryLog> logs(h.receivers.size());
  for (std::size_t i = 0; i < h.receivers.size(); ++i) {
    h.receivers[i]->set_data_handler(logs[i].handler());
    if (member[i]) h.receivers[i]->join_group(kGroup, control);
  }
  h.network->run_until(sim::seconds(2));
  for (int p = 1; p <= kPackets; ++p) {
    h.source->send_to_group(kGroup, 400, static_cast<std::uint64_t>(p));
    h.network->run_until(h.network->now() + sim::seconds(1));
  }
  std::vector<std::set<std::uint64_t>> delivered(h.receivers.size());
  for (std::size_t i = 0; i < h.receivers.size(); ++i) {
    for (const auto& d : logs[i]) {
      delivered[i].insert(d.sequence);
    }
  }
  return delivered;
}

void check_delivery(const std::vector<std::set<std::uint64_t>>& delivered,
                    const std::vector<bool>& member,
                    bool allow_duplicates_suppressed = true) {
  (void)allow_duplicates_suppressed;
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    if (member[i]) {
      EXPECT_EQ(delivered[i].size(), static_cast<std::size_t>(kPackets))
          << "member " << i << " missing packets";
    } else {
      EXPECT_TRUE(delivered[i].empty()) << "non-member " << i << " leaked";
    }
  }
}

std::vector<bool> random_membership(std::size_t n, sim::Rng& rng) {
  std::vector<bool> member(n, false);
  bool any = false;
  for (std::size_t i = 0; i < n; ++i) {
    member[i] = rng.chance(0.5);
    any |= member[i];
  }
  if (!any) member[0] = true;
  return member;
}

class BaselineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BaselineProperty, DvmrpDeliversToMembersOnly) {
  sim::Rng rng(GetParam());
  Harness h;
  h.roles = workload::make_kary_tree(2, 3);
  auto roles_copy = h.roles;
  h.network = std::make_unique<net::Network>(std::move(roles_copy.topology));
  for (net::NodeId r : h.roles.routers) {
    h.network->attach<baseline::DvmrpRouter>(r);
  }
  h.attach_hosts();
  const auto member = random_membership(h.receivers.size(), rng);
  check_delivery(run_scenario(h, ip::Protocol::kIgmp, member), member);
}

TEST_P(BaselineProperty, PimSmDeliversToMembersOnly) {
  sim::Rng rng(GetParam() * 31 + 7);
  Harness h;
  h.roles = workload::make_kary_tree(2, 3);
  baseline::PimConfig config;
  // Random RP placement each seed: correctness must not depend on it.
  config.rp = h.roles.topology
                  .node(h.roles.routers[rng.below(
                      static_cast<std::uint32_t>(h.roles.routers.size()))])
                  .address;
  config.spt_switchover = rng.chance(0.5);
  auto roles_copy = h.roles;
  h.network = std::make_unique<net::Network>(std::move(roles_copy.topology));
  for (net::NodeId r : h.roles.routers) {
    h.network->attach<baseline::PimSmRouter>(r, config);
  }
  h.attach_hosts();
  const auto member = random_membership(h.receivers.size(), rng);
  check_delivery(run_scenario(h, ip::Protocol::kPim, member), member);
}

TEST_P(BaselineProperty, CbtDeliversToMembersOnly) {
  sim::Rng rng(GetParam() * 977 + 13);
  Harness h;
  h.roles = workload::make_kary_tree(2, 3);
  baseline::CbtConfig config;
  config.core = h.roles.topology
                    .node(h.roles.routers[rng.below(
                        static_cast<std::uint32_t>(h.roles.routers.size()))])
                    .address;
  auto roles_copy = h.roles;
  h.network = std::make_unique<net::Network>(std::move(roles_copy.topology));
  for (net::NodeId r : h.roles.routers) {
    h.network->attach<baseline::CbtRouter>(r, config);
  }
  h.attach_hosts();
  const auto member = random_membership(h.receivers.size(), rng);
  check_delivery(run_scenario(h, ip::Protocol::kCbt, member), member);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace express::test
