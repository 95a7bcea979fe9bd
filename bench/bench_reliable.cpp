// RELIABLE — reliable repair-path harness over a lossy transit-stub.
//
// The paper's reliable-multicast recipe (§2.2.1 + §2.1): multicast the
// blocks, count per-block NACKs through the routers, and repair either
// channel-wide or by subcast through an on-tree router whose subtree
// covers the loss. This bench pins the end-to-end behavior of
// reliable::Publisher::run_to_completion on a transit-stub topology
// with 1% Bernoulli loss localized on one stub's host drop links,
// comparing the two repair modes on identical impairment seeds:
//
//   subcast      — repair_candidates = [lossy stub router]; each round
//                  counts the candidate's loss subtree (remote
//                  kNackTotalId) and repairs through it when it covers.
//   channel_wide — no candidates; every repair floods the channel.
//
// Reported per mode: blocks delivered, repair rounds, repair bytes
// (total link bytes across the repair phase), retransmissions split
// subcast vs channel-wide, and the per-round NACK convergence with its
// round-over-round drift through counting::relative_error — the same
// curve §4.1 uses for proactive updates, here reporting how fast the
// outstanding-NACK count collapses.
//
// Output: a human table and canonical integer-only JSON (byte-identical
// across identically seeded runs — no wall-clock keys):
//
//   ./build/bench/bench_reliable --out BENCH_reliable.json   # full
//   ./build/bench/bench_reliable --quick --out /dev/null     # CI smoke
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "counting/error_curve.hpp"
#include "testbed/testbed.hpp"
#include "net/impairment.hpp"
#include "reliable/publisher.hpp"
#include "sim/random.hpp"
#include "workload/topo_gen.hpp"

namespace {

using namespace express;

constexpr std::uint64_t kImpairmentSeed = 0xE5E5;
constexpr double kLossP = 0.01;       // 1% Bernoulli per lossy link (full)
constexpr double kQuickLossP = 0.05;  // fewer blocks need hotter dice to
                                      // exercise the repair path in smoke runs

struct ModeResult {
  bool delivered_all = false;
  std::uint32_t repair_rounds = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t subcast_repairs = 0;
  std::uint64_t channel_repairs = 0;
  std::uint64_t repair_bytes = 0;  ///< link bytes across the repair phase
  std::int64_t residual_nacks = 0;
  std::uint64_t packets_lost = 0;  ///< impairment drops, whole run
  std::uint64_t subscribers = 0;
  std::uint64_t lossy_links = 0;
  std::vector<std::uint64_t> round_outstanding;  ///< NACK total per round
};

/// One full campaign: build the testbed, localize loss on one stub's
/// host drop links, publish, then drive run_to_completion in the given
/// repair mode. Fresh network + identical seeds per call, so the two
/// modes see the same publish-phase losses.
ModeResult run_mode(bool subcast, std::uint32_t blocks, double loss_p) {
  sim::Rng topo_rng(7);
  Testbed bed(workload::make_transit_stub(4, 3, 2, topo_rng));

  const ip::ChannelId channel = bed.source().allocate_channel();
  std::vector<std::unique_ptr<reliable::Subscriber>> subs;
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    subs.push_back(std::make_unique<reliable::Subscriber>(bed.receiver(i),
                                                          channel, blocks));
  }
  bed.run_for(sim::seconds(2));  // settle joins

  // The lossy stub: the *last* receiver's first-hop router. (The first
  // receiver shares its stub with the source host — subcasting through
  // the source's own router is the whole tree, which would make the
  // §2.1 comparison vacuous.) Impair every host drop cable behind it,
  // so all loss lives in one remote subtree and the candidate's
  // covering test has something to find.
  const net::Topology& topo = bed.net().topology();
  const net::NodeId lossy_host = bed.roles().receiver_hosts.back();
  const net::NodeId stub = topo.neighbor_via(lossy_host, 0);

  net::ImpairmentConfig impair;
  impair.loss.kind = net::LossModel::Kind::kBernoulli;
  impair.loss.p = loss_p;
  ModeResult result;
  bed.net().seed_impairments(kImpairmentSeed);
  for (const net::Port& port : topo.node(stub).ports) {
    if (topo.node(port.peer).kind != net::NodeKind::kHost) continue;
    bed.net().set_link_impairments(port.link, impair);
    ++result.lossy_links;
  }

  reliable::PublisherConfig config;
  if (subcast) config.repair_candidates.push_back(topo.address(stub));
  reliable::Publisher publisher(bed.source(), channel, config);
  publisher.publish(blocks);
  bed.run_for(sim::seconds(5));  // drain the publish phase

  // Trace only the repair phase, with room for every per-hop event of
  // several full NACK rounds (a 256-block round floods ~40 links), so
  // no kRepairRoundEnd record of the convergence report is overwritten.
  bed.net().obs().trace.enable(1u << 18);
  const std::uint64_t bytes_before = bed.net().total_link_bytes();
  std::optional<reliable::CompletionReport> report;
  publisher.run_to_completion(
      [&report](reliable::CompletionReport r) { report = r; });
  bed.net().run();
  result.repair_bytes = bed.net().total_link_bytes() - bytes_before;

  if (report) {
    result.repair_rounds = report->rounds;
    result.retransmissions = report->retransmissions;
    result.subcast_repairs = report->subcast_repairs;
    result.channel_repairs = report->channel_repairs;
    result.residual_nacks = report->residual_nacks;
  }
  result.delivered_all = report && report->complete;
  for (const auto& sub : subs) {
    if (!sub->complete()) result.delivered_all = false;
  }
  result.packets_lost = bed.net().stats().packets_dropped_loss;
  result.subscribers = bed.receiver_count();

  const obs::Trace& trace = bed.net().obs().trace;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const obs::TraceRecord& rec = trace.at(i);
    if (rec.type == obs::TraceType::kRepairRoundEnd) {
      result.round_outstanding.push_back(rec.b);
    }
  }
  return result;
}

/// Round-over-round drift of the outstanding-NACK count in ppm,
/// through the §4.1 relative-error curve. Entry i compares round i+1
/// against round i; rounds whose predecessor already hit zero are
/// skipped (the curve reports +inf for transitions from zero).
std::vector<std::int64_t> round_errors_ppm(
    const std::vector<std::uint64_t>& outstanding) {
  std::vector<std::int64_t> ppm;
  for (std::size_t i = 1; i < outstanding.size(); ++i) {
    const auto prev = static_cast<std::int64_t>(outstanding[i - 1]);
    const auto cur = static_cast<std::int64_t>(outstanding[i]);
    if (prev == 0) continue;
    ppm.push_back(std::llround(counting::relative_error(prev, cur) * 1e6));
  }
  return ppm;
}

void write_int_array(std::FILE* f, const char* key,
                     const std::vector<std::int64_t>& values,
                     const char* trailer) {
  std::fprintf(f, "    \"%s\": [", key);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "%s%lld", i == 0 ? "" : ", ",
                 static_cast<long long>(values[i]));
  }
  std::fprintf(f, "]%s\n", trailer);
}

void write_mode_json(std::FILE* f, const char* key, const ModeResult& r,
                     const char* trailer) {
  std::fprintf(f, "  \"%s\": {\n", key);
  std::fprintf(f, "    \"delivered_all\": %s,\n",
               r.delivered_all ? "true" : "false");
  std::fprintf(f, "    \"repair_rounds\": %u,\n", r.repair_rounds);
  std::fprintf(f, "    \"retransmissions\": %llu,\n",
               static_cast<unsigned long long>(r.retransmissions));
  std::fprintf(f, "    \"subcast_repairs\": %llu,\n",
               static_cast<unsigned long long>(r.subcast_repairs));
  std::fprintf(f, "    \"channel_repairs\": %llu,\n",
               static_cast<unsigned long long>(r.channel_repairs));
  std::fprintf(f, "    \"repair_bytes\": %llu,\n",
               static_cast<unsigned long long>(r.repair_bytes));
  std::fprintf(f, "    \"residual_nacks\": %lld,\n",
               static_cast<long long>(r.residual_nacks));
  std::fprintf(f, "    \"packets_lost\": %llu,\n",
               static_cast<unsigned long long>(r.packets_lost));
  std::vector<std::int64_t> rounds(r.round_outstanding.begin(),
                                   r.round_outstanding.end());
  write_int_array(f, "round_outstanding", rounds, ",");
  write_int_array(f, "round_error_ppm", round_errors_ppm(r.round_outstanding),
                  "");
  std::fprintf(f, "  }%s\n", trailer);
}

void write_json(const std::string& path, bool quick, std::uint32_t blocks,
                double loss_p, const ModeResult& sub, const ModeResult& chan) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_reliable: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_reliable\",\n");
  std::fprintf(f, "  \"version\": 1,\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"blocks\": %u,\n", blocks);
  std::fprintf(f, "  \"subscribers\": %llu,\n",
               static_cast<unsigned long long>(sub.subscribers));
  std::fprintf(f, "  \"loss_model\": \"bernoulli\",\n");
  std::fprintf(f, "  \"loss_p_ppm\": %lld,\n",
               std::llround(loss_p * 1e6));
  std::fprintf(f, "  \"lossy_links\": %llu,\n",
               static_cast<unsigned long long>(sub.lossy_links));
  write_mode_json(f, "subcast", sub, ",");
  write_mode_json(f, "channel_wide", chan, ",");
  std::fprintf(f, "  \"subcast_saves_bytes\": %lld\n",
               static_cast<long long>(chan.repair_bytes) -
                   static_cast<long long>(sub.repair_bytes));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("  wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace express::bench;
  bool quick = false;
  std::string out = "BENCH_reliable.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --out requires a path\n");
        return 2;
      }
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "error: unknown option '%s'\nusage: %s [--quick] [--out "
                   "<path>]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }

  banner("RELIABLE", "repair to completion under loss: subcast vs channel");
  const std::uint32_t blocks = quick ? 64 : 256;
  const double loss_p = quick ? kQuickLossP : kLossP;
  const ModeResult sub = run_mode(/*subcast=*/true, blocks, loss_p);
  const ModeResult chan = run_mode(/*subcast=*/false, blocks, loss_p);

  Table table({"mode", "metric", "value"});
  auto emit_rows = [&table](const char* mode, const ModeResult& r) {
    table.row({mode, "delivered_all", r.delivered_all ? "yes" : "NO"});
    table.row({mode, "repair rounds", fmt_int(r.repair_rounds)});
    table.row({mode, "retransmissions", fmt_int(r.retransmissions)});
    table.row({mode, "subcast repairs", fmt_int(r.subcast_repairs)});
    table.row({mode, "channel repairs", fmt_int(r.channel_repairs)});
    table.row({mode, "repair bytes", fmt_int(r.repair_bytes)});
    table.row({mode, "packets lost", fmt_int(r.packets_lost)});
  };
  emit_rows("subcast", sub);
  emit_rows("channel_wide", chan);
  table.print();
  note("same impairment seed in both modes: identical publish-phase loss;");
  note("repair bytes = total link bytes across the repair phase.");
  if (chan.repair_bytes <= sub.repair_bytes) {
    note("WARNING: subcast repair did not save bytes on this run");
  }

  write_json(out, quick, blocks, loss_p, sub, chan);
  return !sub.delivered_all || !chan.delivered_all;
}
