// obs_capture: record the observability plane for a pinned seeded
// scenario and export it as artifacts. The default run is the same
// seeded-churn scenario test_determinism pins counter-by-counter:
//
//   --seed N            scenario RNG seed (default 7, the pinned run)
//   --trace-out P       event trace JSONL (default trace.jsonl)
//   --metrics-out P     metrics registry snapshot JSON (default metrics.json)
//   --scenario S        churn (default) or chaos (fault campaign)
//   --trace-cap N       trace ring capacity (default 1<<16; raise it if
//                       the ring wraps and drops the oldest records)
//
// Two runs with the same flags must produce byte-identical files, and
// scripts/obs_golden.sh pins the seed-7 churn and chaos artifacts to
// tests/golden/obs_capture.sha256; diff divergent captures with
// scripts/tracediff.py to find the first event where the runs disagree
// (see DESIGN.md §11, EXPERIMENTS.md).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "audit/invariants.hpp"
#include "obs/obs.hpp"
#include "testbed/testbed.hpp"
#include "workload/chaos.hpp"
#include "workload/churn.hpp"
#include "workload/topo_gen.hpp"

namespace {

using namespace express;

struct Options {
  std::uint64_t seed = 7;
  std::string trace_out = "trace.jsonl";
  std::string metrics_out = "metrics.json";
  std::string scenario = "churn";
  std::size_t trace_cap = 1 << 16;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: obs_capture [--seed N] [--trace-out P] "
               "[--metrics-out P]\n"
               "                   [--scenario churn|chaos] [--trace-cap N]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto arg = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0;
    };
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg("--seed")) {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg("--trace-out")) {
      opt.trace_out = next();
    } else if (arg("--metrics-out")) {
      opt.metrics_out = next();
    } else if (arg("--scenario")) {
      opt.scenario = next();
      if (opt.scenario != "churn" && opt.scenario != "chaos") usage();
    } else if (arg("--trace-cap")) {
      opt.trace_cap = static_cast<std::size_t>(
          std::strtoull(next(), nullptr, 10));
    } else {
      usage();
    }
  }
  return opt;
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs_capture: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return true;
}

/// Mirror of test_determinism's run_seeded_churn: 16 receivers over a
/// binary router tree, Poisson join/leave churn, periodic channel data.
void run_churn(Testbed& bed, std::uint64_t seed) {
  net::Network& net = bed.net();
  const ip::ChannelId channel = bed.source().allocate_channel();

  sim::Rng rng(seed);
  const sim::Duration horizon = sim::seconds(10);
  const auto events = workload::poisson_churn(
      static_cast<std::uint32_t>(bed.receiver_count()), horizon,
      sim::seconds(5), sim::seconds(3), rng);
  for (const auto& ev : events) {
    net.scheduler().schedule_at(ev.at, [&bed, channel, ev] {
      if (ev.join) {
        bed.receiver(ev.host_index).new_subscription(channel);
      } else {
        bed.receiver(ev.host_index).delete_subscription(channel);
      }
    });
  }
  const std::vector<std::uint8_t> header(32, 0x5A);
  std::uint64_t seq = 0;
  for (sim::Time at = sim::milliseconds(200); at < horizon;
       at += sim::milliseconds(200)) {
    net.scheduler().schedule_at(at, [&bed, channel, header, s = seq++] {
      bed.source().send(channel, 500, s, header);
    });
  }
  net.run();
}

/// A short deterministic fault campaign over the same tree: every
/// receiver subscribed, link flaps / router deaths / partitions drawn
/// from `seed`, churn plus periodic data scheduled into each fault
/// window, the invariant auditor sampled through every settle phase.
void run_chaos(Testbed& bed, std::uint64_t seed) {
  net::Network& net = bed.net();
  const ip::ChannelId channel = bed.source().allocate_channel();
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    net.scheduler().schedule_at(sim::milliseconds(1), [&bed, channel, i] {
      bed.receiver(i).new_subscription(channel);
    });
  }
  net.run_until(sim::milliseconds(100));

  workload::FaultPlanConfig plan;
  plan.fault_count = 6;
  sim::Rng fault_rng(seed);
  const auto schedule =
      workload::make_fault_schedule(net.topology(), plan, fault_rng);

  sim::Rng churn_rng(seed ^ 0x5DEECE66DULL);
  std::uint64_t seq = 0;
  auto churn = [&](std::size_t) {
    const auto events = workload::poisson_churn(
        static_cast<std::uint32_t>(bed.receiver_count() - 1), sim::seconds(4),
        sim::seconds(2), sim::seconds(2), churn_rng);
    for (const auto& ev : events) {
      // Churn over receivers 1..n-1; receiver 0 stays subscribed so the
      // channel tree never collapses mid-fault.
      const std::size_t idx = ev.host_index + 1;
      net.scheduler().schedule_at(
          net.now() + (ev.at - sim::Time{}), [&bed, channel, idx, ev] {
            if (ev.join) {
              bed.receiver(idx).new_subscription(channel);
            } else {
              bed.receiver(idx).delete_subscription(channel);
            }
          });
    }
    for (int k = 0; k < 10; ++k) {
      net.scheduler().schedule_at(net.now() + sim::milliseconds(50 * (k + 1)),
                                  [&bed, channel, &seq] {
                                    bed.source().send(channel, 300, ++seq);
                                  });
    }
  };
  auto audit = [&net] {
    return audit::InvariantAuditor(net).run().violations.size();
  };
  const workload::ChaosReport report = workload::run_chaos_campaign(
      net, schedule, workload::ChaosConfig{}, audit, churn);
  if (report.unconverged != 0 || report.violations != 0) {
    std::fprintf(stderr, "obs_capture: chaos campaign dirty (%llu/%llu)\n",
                 static_cast<unsigned long long>(report.unconverged),
                 static_cast<unsigned long long>(report.violations));
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  Testbed bed(workload::make_kary_tree(2, 3, {}, 2));
  net::Network& net = bed.net();
  net.obs().trace.enable(opt.trace_cap);

  if (opt.scenario == "chaos") {
    run_chaos(bed, opt.seed);
  } else {
    run_churn(bed, opt.seed);
  }

  if (!write_file(opt.trace_out, net.obs().trace.to_jsonl()) ||
      !write_file(opt.metrics_out,
                  net.obs().registry.snapshot_json(net.now()))) {
    return 1;
  }

  std::printf(
      "obs_capture: scenario=%s seed=%llu events=%llu metrics=%zu -> %s, "
      "%s\n",
      opt.scenario.c_str(), static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(net.obs().trace.next_index()),
      net.obs().registry.size(), opt.trace_out.c_str(),
      opt.metrics_out.c_str());
  return 0;
}
