// Ablation: route-change hysteresis (§3.2).
//
// "Hysteresis is applied to prevent route oscillation." We flap a link
// on the primary path and count the protocol churn (joins + prunes)
// with hysteresis disabled vs enabled, plus the delivery behaviour of a
// stream crossing the flap.
#include "common.hpp"
#include "express/host.hpp"
#include "express/router.hpp"
#include "net/network.hpp"

namespace {

using namespace express;

struct FlapRun {
  std::uint64_t joins = 0;
  std::uint64_t prunes = 0;
  std::size_t delivered = 0;
};

FlapRun run(sim::Duration hysteresis, int flaps, sim::Duration flap_period) {
  net::Topology topo;
  const auto ra = topo.add_router();
  const auto rb = topo.add_router();
  const auto rc = topo.add_router();
  const auto rd = topo.add_router();
  const auto src = topo.add_host();
  const auto dst = topo.add_host();
  topo.add_link(ra, src, sim::milliseconds(1));
  topo.add_link(ra, rb, sim::milliseconds(1), 1);
  const auto flappy = topo.add_link(rb, rd, sim::milliseconds(1), 1);
  topo.add_link(ra, rc, sim::milliseconds(1), 2);
  topo.add_link(rc, rd, sim::milliseconds(1), 2);
  topo.add_link(rd, dst, sim::milliseconds(1));

  net::Network network(std::move(topo));
  RouterConfig config;
  config.route_change_hysteresis = hysteresis;
  std::vector<ExpressRouter*> routers;
  for (auto id : {ra, rb, rc, rd}) {
    routers.push_back(&network.attach<ExpressRouter>(id, config));
  }
  auto& source = network.attach<ExpressHost>(src);
  auto& sink = network.attach<ExpressHost>(dst);
  const ip::ChannelId ch = source.allocate_channel();
  sink.new_subscription(ch);
  network.run_until(sim::seconds(1));

  // Stream packets continuously while the link flaps.
  for (int i = 0; i < 200; ++i) {
    network.scheduler().schedule_at(
        sim::seconds(1) + sim::milliseconds(50 * i),
        [&source, &ch, i]() { source.send(ch, 200, static_cast<std::uint64_t>(i)); });
  }
  for (int f = 0; f < flaps; ++f) {
    const sim::Time at = sim::seconds(2) + flap_period * (2 * f);
    network.scheduler().schedule_at(
        at, [&network, flappy]() { network.set_link_up(flappy, false); });
    network.scheduler().schedule_at(at + flap_period, [&network, flappy]() {
      network.set_link_up(flappy, true);
    });
  }
  network.run_until(sim::seconds(20));

  FlapRun out;
  for (auto* r : routers) {
    out.joins += r->stats().joins_sent;
    out.prunes += r->stats().prunes_sent;
  }
  out.delivered = sink.stats().data_received;
  return out;
}

}  // namespace

int main() {
  using namespace express::bench;

  banner("ABL-hysteresis / §3.2", "route-flap damping");
  note("primary link flaps down/up every 200 ms, 10 times; a 20-pkt/s");
  note("stream crosses the flap; 200 packets total.");
  Table table({"hysteresis", "joins", "prunes", "delivered / 200"});
  for (auto h : {sim::milliseconds(0), sim::milliseconds(50),
                 sim::milliseconds(500), sim::seconds(2)}) {
    const FlapRun r = run(h, 10, sim::milliseconds(200));
    table.row({fmt(sim::to_seconds(h), 2) + " s", fmt_int(r.joins),
               fmt_int(r.prunes), fmt_int(r.delivered)});
  }
  table.print();
  note("the §3.2 tradeoff: without damping every flap re-plumbs the tree");
  note("(2x the join/prune churn) but the stream rides the backup path");
  note("during outages; with hysteresis past the flap period the control");
  note("plane stays quiet and only the packets inside the brief outages");
  note("are lost. The application-visible choice is churn vs availability.");
  return 0;
}
