// Stock ticker — the paper's long-running accounting example (§5.1) as
// a running system plus an ISP's bill.
//
// A ticker channel runs for a (scaled) day with subscriber churn. The
// ISP side of the EXPRESS story is accounting (§2.2.3): the channel has
// one identifiable owner to bill, the network can measure the resources
// it uses (FIB entries via the tree, links via a network-layer count),
// and proactive counting keeps an audience profile for usage-based
// pricing — none of which the group model offers.
//
// Build & run:  ./build/examples/stock_ticker
#include <cstdio>

#include "costmodel/fib_cost.hpp"
#include "costmodel/mgmt_cost.hpp"
#include "testbed/scenario.hpp"
#include "workload/churn.hpp"

int main() {
  using namespace express;

  sim::Rng rng(314);
  RouterConfig config;
  config.proactive = counting::CurveParams{0.3, 60.0, 4.0};
  Testbed bed(workload::make_transit_stub(5, 3, 6, rng), config);  // 90 hosts
  ExpressHost& exchange = bed.source();
  const ip::ChannelId ticker = exchange.allocate_channel();
  std::printf("ticker channel %s, %zu routers, %zu potential subscribers\n",
              ticker.to_string().c_str(), bed.router_count(),
              bed.receiver_count());

  // A scaled trading day: 1 simulated hour of churn (mean subscription
  // 20 min, mean off-time 10 min), quotes every 10 s.
  const auto day = sim::seconds(3600);
  scenario::replay_churn(
      bed, ticker,
      workload::poisson_churn(static_cast<std::uint32_t>(bed.receiver_count()),
                              day, sim::seconds(1200), sim::seconds(600), rng));
  scenario::send_train(
      bed, ticker,
      {.period = sim::seconds(10), .count = 360, .bytes = 300});

  // The ISP samples the audience every 5 minutes from the head-end
  // router's proactively-maintained count, and the peak FIB footprint.
  auto audience_minutes = std::make_shared<double>(0.0);
  auto peak_entries = std::make_shared<std::size_t>(0);
  for (int minute = 5; minute <= 60; minute += 5) {
    bed.net().scheduler().schedule_at(sim::seconds(60 * minute), [&, minute]() {
      const auto live = bed.source_router().subtree_count(ticker);
      *audience_minutes += static_cast<double>(live) * 5;
      *peak_entries = std::max(*peak_entries, bed.total_fib_entries());
      std::printf("  t=%2d min: live audience %lld, network FIB entries %zu\n",
                  minute, static_cast<long long>(live),
                  bed.total_fib_entries());
    });
  }
  bed.run_for(day + sim::seconds(1));

  std::uint64_t quotes_delivered = 0;
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    quotes_delivered += bed.receiver(i).stats().data_received;
  }

  // --- the bill ----------------------------------------------------------
  using namespace express::costmodel;
  const FibCostParams fib_model;
  const double entry_year_cost =
      entry_cost(fib_model, fib_model.router_lifetime_seconds);
  const double fib_year_cost = static_cast<double>(*peak_entries) * entry_year_cost;
  const double mgmt_year_cost =
      static_cast<double>(bed.router_count()) * channel_lifetime_cost();

  std::printf("\n--- ISP accounting for channel %s ---\n",
              ticker.to_string().c_str());
  std::printf("quotes delivered:            %llu\n",
              static_cast<unsigned long long>(quotes_delivered));
  std::printf("audience (subscriber-min):   %.0f over the hour\n",
              *audience_minutes);
  std::printf("peak FIB entries:            %zu (12 B each)\n", *peak_entries);
  std::printf("FIB memory, annualized:      $%.4f\n", fib_year_cost);
  std::printf("management state (DRAM):     $%.6f\n", mgmt_year_cost);
  std::printf("billable party:              %s (the channel source)\n",
              ticker.source.to_string().c_str());
  std::printf("paper's comparison point:    community cable leases at "
              "$1.00/viewer/month\n");
  return 0;
}
