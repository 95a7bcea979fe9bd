// Ablation: proactive-counting parameter sweep (alpha, tau).
//
// Fig. 8 shows two points of a whole design space; this sweep maps the
// accuracy/bandwidth frontier so a deployment can pick parameters (the
// paper: "reasonable parameter choices give a useful level of accuracy
// at modest network cost").
#include <map>

#include "common.hpp"
#include "testbed/scenario.hpp"
#include "workload/churn.hpp"

namespace {

using namespace express;

struct SweepPoint {
  std::uint64_t router_counts = 0;  // network-wide Count messages
  double mean_abs_error = 0;
};

SweepPoint run(double alpha, double tau,
               const std::vector<workload::ChurnEvent>& schedule,
               const std::map<int, std::int64_t>& actual) {
  RouterConfig config;
  config.proactive = counting::CurveParams{0.3, tau, alpha};
  Testbed bed(workload::make_kary_tree(2, 5, {}, 8), config);
  const ip::ChannelId ch = bed.source().allocate_channel();
  scenario::replay_churn(bed, ch, schedule);
  SweepPoint point;
  double error_sum = 0;
  int samples = 0;
  ExpressRouter& root = bed.source_router();
  for (int t = 0; t <= 400; t += 2) {
    bed.net().scheduler().schedule_at(sim::seconds(t), [&, t]() {
      error_sum +=
          std::abs(static_cast<double>(root.subtree_count(ch) - actual.at(t)));
      ++samples;
    });
  }
  bed.run_for(sim::seconds(401));
  for (std::size_t i = 0; i < bed.router_count(); ++i) {
    point.router_counts += bed.router(i).stats().counts_sent;
  }
  point.mean_abs_error = error_sum / samples;
  return point;
}

}  // namespace

int main() {
  using namespace express::bench;

  banner("ABL-curve / §6", "proactive counting (alpha, tau) sweep");
  sim::Rng rng(2026);
  workload::Fig8Params params;
  const auto schedule = workload::fig8_schedule(params, rng);
  std::map<int, std::int64_t> actual;
  {
    std::int64_t current = 0;
    std::size_t next = 0;
    for (int t = 0; t <= 400; t += 2) {
      while (next < schedule.size() && schedule[next].at <= sim::seconds(t)) {
        current += schedule[next].join ? 1 : -1;
        ++next;
      }
      actual[t] = current;
    }
  }

  Table table({"alpha", "tau (s)", "Count msgs (network)", "mean |error|"});
  for (double tau : {30.0, 120.0, 300.0}) {
    for (double alpha : {1.5, 2.5, 4.0, 8.0}) {
      const SweepPoint p = run(alpha, tau, schedule, actual);
      table.row({fmt(alpha, 1), fmt(tau, 0), fmt_int(p.router_counts),
                 fmt(p.mean_abs_error, 1)});
    }
  }
  table.print();
  note("the frontier: larger alpha or smaller tau buys accuracy with");
  note("messages; Fig. 8's (4, 120) and (2.5, 120) are two points on it.");
  return 0;
}
