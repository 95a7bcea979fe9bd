// SOAK — deterministic chaos campaign over an EXPRESS transit-stub
// network, gated by the invariant auditor (src/audit).
//
// A seeded fault schedule (link flaps, router deaths, partitions) is
// driven through a live network under Poisson subscription churn; after
// every heal the auditor samples at event boundaries until quiescence
// and records the fault's convergence time (heal -> first stable
// audit-clean instant). The gate (scripts/soak.sh) requires every fault
// to converge with zero outstanding violations.
//
//   ./build/bench/soak_chaos --out BENCH_soak.json          # 200 faults
//   ./build/bench/soak_chaos --quick --out /dev/null        # CI smoke
//   ./build/bench/soak_chaos --faults 500 --seed 42         # custom
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "audit/invariants.hpp"
#include "obs/obs.hpp"
#include "common.hpp"
#include "testbed/scenario.hpp"
#include "workload/chaos.hpp"
#include "workload/topo_gen.hpp"

namespace {

using namespace express;

struct Options {
  std::size_t faults = 200;
  std::uint64_t seed = 1;
  bool quick = false;
  std::string out = "BENCH_soak.json";
};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
      opt.faults = 20;
    } else if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      opt.faults = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: soak_chaos [--quick] [--faults N] [--seed S] "
                   "[--out FILE]\n");
      std::exit(2);
    }
  }
  return opt;
}

void write_json(const std::string& path, const Options& opt,
                const workload::ChaosReport& report,
                const obs::Registry& registry, double wall_s) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "soak_chaos: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"soak_chaos\",\n");
  std::fprintf(f, "  \"version\": 1,\n");
  std::fprintf(f, "  \"quick\": %s,\n", opt.quick ? "true" : "false");
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(opt.seed));
  std::fprintf(f, "  \"faults\": %llu,\n",
               static_cast<unsigned long long>(report.faults_injected));
  std::fprintf(f, "  \"violations\": %llu,\n",
               static_cast<unsigned long long>(report.violations));
  std::fprintf(f, "  \"unconverged\": %llu,\n",
               static_cast<unsigned long long>(report.unconverged));
  std::fprintf(f, "  \"audits_run\": %llu,\n",
               static_cast<unsigned long long>(report.audits_run));
  std::fprintf(f, "  \"max_convergence_s\": %.6f,\n",
               sim::to_seconds(report.max_convergence()));
  std::fprintf(f, "  \"mean_convergence_s\": %.6f,\n",
               report.mean_convergence_seconds());
  // Drop block straight from the metrics registry (same slots the
  // NetworkStats view reads; keys unchanged).
  std::fprintf(f, "  \"drops\": {\n");
  std::fprintf(f, "    \"link_down\": %llu,\n",
               static_cast<unsigned long long>(
                   registry.sum("net.drop.link_down")));
  std::fprintf(f, "    \"no_route\": %llu,\n",
               static_cast<unsigned long long>(
                   registry.sum("net.drop.no_route")));
  std::fprintf(f, "    \"ttl\": %llu\n",
               static_cast<unsigned long long>(registry.sum("net.drop.ttl")));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"wall_s\": %.3f,\n", wall_s);
  std::fprintf(f, "  \"per_fault\": [\n");
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const auto& o = report.outcomes[i];
    std::fprintf(f,
                 "    {\"index\": %llu, \"kind\": \"%s\", "
                 "\"converged\": %s, \"convergence_s\": %.6f, "
                 "\"violations\": %llu}%s\n",
                 static_cast<unsigned long long>(o.index),
                 workload::fault_kind_name(o.kind),
                 o.converged ? "true" : "false",
                 o.converged ? sim::to_seconds(o.convergence) : -1.0,
                 static_cast<unsigned long long>(o.violations),
                 i + 1 < report.outcomes.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("  wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  // Topology, fault schedule, and churn all hang off one seed: the same
  // invocation is bit-identical run to run (the determinism the repro
  // gates depend on).
  sim::Rng topo_rng(opt.seed);
  Testbed bed(workload::make_transit_stub(4, 3, 2, topo_rng));
  const ip::ChannelId ch = bed.source().allocate_channel();
  // Standing members in every third stub keep the tree spanning the
  // core for the whole campaign, so faults hit live forwarding state.
  for (std::size_t i = 0; i < bed.receiver_count(); i += 3) {
    bed.receiver(i).new_subscription(ch);
  }
  bed.run_for(sim::seconds(2));

  workload::FaultPlanConfig plan;
  plan.fault_count = opt.faults;
  sim::Rng fault_rng(opt.seed ^ 0x9e3779b97f4a7c15ULL);
  const auto schedule =
      workload::make_fault_schedule(bed.net().topology(), plan, fault_rng);

  // The chaos churn window outlasts the campaign's window + hold: joins
  // and leaves keep arriving while links are down and while the heal
  // settles, so every fault hits a network mid-churn (the auditor then
  // measures convergence of a *moving* tree, not a frozen one).
  sim::Rng churn_rng(opt.seed + 1);
  auto churn = [&](std::size_t) {
    scenario::churn_window(bed, ch, churn_rng);
  };
  auto audit = [&] {
    return audit::InvariantAuditor(bed.net()).run().violations.size();
  };

  bench::banner("SOAK", "chaos campaign under invariant audit");
  const auto t0 = std::chrono::steady_clock::now();
  const workload::ChaosReport report = workload::run_chaos_campaign(
      bed.net(), schedule, workload::ChaosConfig{}, audit, churn);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  bench::Table table({"metric", "value"});
  table.row({"faults", std::to_string(report.faults_injected)});
  table.row({"violations", std::to_string(report.violations)});
  table.row({"unconverged", std::to_string(report.unconverged)});
  table.row({"audits run", std::to_string(report.audits_run)});
  table.row({"max convergence (s)",
             bench::fmt(sim::to_seconds(report.max_convergence()), 3)});
  table.row({"mean convergence (s)",
             bench::fmt(report.mean_convergence_seconds(), 3)});
  table.row({"wall (s)", bench::fmt(wall_s, 2)});
  table.print();

  if (report.violations > 0) {
    // Outstanding violations survive to the end of the run; dump the
    // final audit so the failure is diagnosable from the soak log.
    const auto final_report = audit::InvariantAuditor(bed.net()).run();
    std::printf("\noutstanding violations at end of campaign:\n%s",
                final_report.to_string().c_str());
  }

  write_json(opt.out, opt, report, bed.net().obs().registry, wall_s);

  // Non-zero exit on any violation or unconverged fault makes the
  // binary its own gate even without scripts/soak.sh.
  return (report.violations == 0 && report.unconverged == 0) ? 0 : 1;
}
