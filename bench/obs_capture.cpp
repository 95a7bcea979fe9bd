// obs_capture: record the observability plane for a pinned seeded
// scenario and export it as artifacts. Both scenarios are declared in
// src/testbed/scenario.hpp and run on its capture_tree(): the default
// is scenario::run_seeded_churn, the run test_determinism pins
// counter-by-counter; --scenario chaos is scenario::run_capture_chaos.
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

#include "obs/obs.hpp"
#include "testbed/scenario.hpp"

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

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  Testbed bed(scenario::capture_tree());
  net::Network& net = bed.net();
  net.obs().trace.enable(opt.trace_cap);

  if (opt.scenario == "chaos") {
    const workload::ChaosReport report =
        scenario::run_capture_chaos(bed, opt.seed);
    if (report.unconverged != 0 || report.violations != 0) {
      std::fprintf(stderr, "obs_capture: chaos campaign dirty (%llu/%llu)\n",
                   static_cast<unsigned long long>(report.unconverged),
                   static_cast<unsigned long long>(report.violations));
      return 1;
    }
  } else {
    scenario::run_seeded_churn(bed, {.seed = opt.seed});
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
