// perfbench — one episode of one end-to-end benchmark workload.
//
//   perfbench --workload broadcast|churn|chaos --seed N [--trace] [--tiny]
//
// Builds the workload's network from the seed, runs it once in this
// (fresh, single-threaded) process and prints one JSON object as the
// last line of stdout: the end-to-end figures, the deterministic
// outputs the caller cross-checks between runs, and a list of failed
// correctness checks (empty when the run was correct). The process
// exits 1 when any check failed. run.py launches it repeatedly, takes
// medians and prints the benchmark's result line.
//
// With --trace the same episode is additionally attributed by layer,
// purely from outside the simulator: wall-clock spans around the public
// calls this program makes (Network construction, Network::attach,
// Scheduler::step, the host API, InvariantAuditor::run, a standalone
// UnicastRouting build and recompute) and exact counters read from the
// network's obs::Registry. Each Scheduler::step span is labelled by the
// first obs::Trace record the step emitted after the scheduler's own
// kTimerFire. Tracing must not perturb the simulation; run.py checks
// that the traced episode reproduces the untraced one's outputs.
//
// --tiny shrinks every workload to a few hundred nodes for the
// benchmark's own tests.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/invariants.hpp"
#include "ecmp/count_id.hpp"
#include "express/host.hpp"
#include "express/router.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "obs/obs.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "workload/chaos.hpp"
#include "workload/churn.hpp"
#include "workload/topo_gen.hpp"

namespace {

using namespace express;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A field of /proc/self/status ("VmRSS", "VmHWM") in MiB.
double proc_status_mb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Independent, reproducible random stream `stream` of workload seed
/// `seed` (splitmix64 of the pair), so topology, packet sizes, churn,
/// queries and faults never share draws.
sim::Rng stream_rng(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return sim::Rng(z ^ (z >> 31));
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile (p in (0, 100]).
double percentile_of(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ---------------------------------------------------------------------
// Outside-in attribution
// ---------------------------------------------------------------------

/// Step classes, from the first trace record a step emits after its
/// kTimerFire: a packet arriving at a router or host, a counting round
/// starting or ending, a locally originated action (a timer that sends
/// or does nothing visible), or anything else (subscription changes,
/// drops, faults).
enum StepClass : std::size_t {
  kRouterRx,
  kHostRx,
  kTimer,
  kCount,
  kOther,
  kStepClasses
};
constexpr std::array<const char*, kStepClasses> kStepLabels = {
    "step.router_rx", "step.host_rx", "step.timer", "step.count", "step.other"};

StepClass classify_step(const obs::Trace& trace, std::uint64_t first,
                        std::uint64_t end) {
  const std::uint64_t oldest = trace.next_index() - trace.size();
  for (std::uint64_t i = std::max(first, oldest); i < end; ++i) {
    const obs::TraceRecord& rec = trace.at(i - oldest);
    switch (rec.type) {
      case obs::TraceType::kTimerFire:
        continue;
      case obs::TraceType::kPacketDelivered:
        if (rec.entity.kind == obs::EntityKind::kRouter) return kRouterRx;
        if (rec.entity.kind == obs::EntityKind::kHost) return kHostRx;
        return kOther;
      case obs::TraceType::kCountRoundStart:
      case obs::TraceType::kCountRoundEnd:
        return kCount;
      case obs::TraceType::kPacketSent:
        return kTimer;
      default:
        return kOther;
    }
  }
  return kTimer;
}

/// Wall time and call count per span label. Disarmed (no clock reads)
/// in untraced runs.
class Spans {
 public:
  explicit Spans(bool armed) : armed_(armed) {}

  [[nodiscard]] bool armed() const { return armed_; }

  template <class F>
  void time(const std::string& label, F&& f) {
    if (!armed_) {
      f();
      return;
    }
    const auto t0 = Clock::now();
    f();
    add(label, seconds_since(t0));
  }

  void add(const std::string& label, double seconds, std::uint64_t n = 1) {
    Span& s = spans_[label];
    s.seconds += seconds;
    s.calls += n;
  }

  [[nodiscard]] double seconds(const std::string& label) const {
    auto it = spans_.find(label);
    return it == spans_.end() ? 0.0 : it->second.seconds;
  }
  [[nodiscard]] std::uint64_t calls(const std::string& label) const {
    auto it = spans_.find(label);
    return it == spans_.end() ? 0 : it->second.calls;
  }
  void clear() { spans_.clear(); }

 private:
  struct Span {
    double seconds = 0;
    std::uint64_t calls = 0;
  };
  bool armed_;
  std::map<std::string, Span> spans_;
};

// ---------------------------------------------------------------------
// The wired-up network under test
// ---------------------------------------------------------------------

/// Routers and hosts attached here (not by express::Testbed) so
/// that Network construction and attach are separately timed spans.
struct World {
  workload::GeneratedTopology roles;
  std::unique_ptr<net::Network> net;
  std::vector<ExpressRouter*> routers;
  ExpressHost* source = nullptr;
  std::vector<ExpressHost*> receivers;
  ip::ChannelId channel;
  Spans* spans = nullptr;

  World(workload::GeneratedTopology generated, Spans& s)
      : roles(std::move(generated)), spans(&s) {
    spans->time("net.ctor", [&] {
      net = std::make_unique<net::Network>(std::move(roles.topology));
    });
    spans->time("attach", [&] {
      for (net::NodeId id : roles.routers) {
        routers.push_back(&net->attach<ExpressRouter>(id));
      }
      source = &net->attach<ExpressHost>(roles.source_host);
      for (net::NodeId id : roles.receiver_hosts) {
        receivers.push_back(&net->attach<ExpressHost>(id));
      }
    });
    channel = source->allocate_channel();
    if (spans->armed()) net->obs().trace.enable(std::size_t{1} << 16);
  }

  /// A call into the host API, timed as one "host" span.
  template <class F>
  void host_call(F&& f) {
    spans->time("host", std::forward<F>(f));
  }

  /// net.run_until(deadline); traced runs drive the same events one
  /// Scheduler::step at a time and then let run_until advance the
  /// clock to the deadline, exactly as the untraced call leaves it.
  void run_until(sim::Time deadline) {
    if (spans->armed()) {
      sim::Scheduler& sched = net->scheduler();
      const obs::Trace& trace = net->obs().trace;
      while (true) {
        const std::optional<sim::Time> next = sched.next_event_time();
        if (!next || *next > deadline) break;
        const std::uint64_t first = trace.next_index();
        const auto t0 = Clock::now();
        sched.step();
        const double dt = seconds_since(t0);
        const StepClass c = classify_step(trace, first, trace.next_index());
        spans->add(kStepLabels[c], dt);
      }
    }
    net->run_until(deadline);
  }

  void run_for(sim::Duration d) { run_until(net->now() + d); }

  /// Sum over routers of §5.2 management state plus packed FIB bytes.
  [[nodiscard]] std::uint64_t state_bytes() const {
    std::uint64_t n = 0;
    for (const ExpressRouter* r : routers) {
      n += r->management_state_bytes() + r->fib().packed_bytes();
    }
    return n;
  }
  [[nodiscard]] std::uint64_t fib_entries() const {
    std::uint64_t n = 0;
    for (const ExpressRouter* r : routers) n += r->fib().size();
    return n;
  }
  /// Same sum as express::Testbed::total_control_bytes(); main()
  /// checks it against the registry's control-byte counters.
  [[nodiscard]] std::uint64_t control_bytes() const {
    std::uint64_t n = source->stats().control_bytes_sent;
    for (const ExpressRouter* r : routers) n += r->stats().control_bytes_sent;
    for (const ExpressHost* h : receivers) n += h->stats().control_bytes_sent;
    return n;
  }
  [[nodiscard]] std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const ExpressHost* h : receivers) n += h->stats().data_received;
    return n;
  }
  [[nodiscard]] double delivery_log_mb() const {
    std::size_t bytes = source->deliveries().capacity();
    for (const ExpressHost* h : receivers) bytes += h->deliveries().capacity();
    return static_cast<double>(bytes * sizeof(ExpressHost::Delivery)) /
           (1024.0 * 1024.0);
  }

  /// Peak sampling between run_until slices: never adds sim events.
  void sample_state() {
    state_bytes_peak = std::max(state_bytes_peak, state_bytes());
    fib_entries_peak = std::max(fib_entries_peak, fib_entries());
  }
  std::uint64_t state_bytes_peak = 0;
  std::uint64_t fib_entries_peak = 0;
};

/// Registry sums read at the start and end of the timed phase:
/// {registry metric, reported name}.
constexpr std::array<std::pair<const char*, const char*>, 16> kCounters = {{
    {"net.packets_sent", "net.packets_sent"},
    {"net.drop.link_down", "drop.link_down"},
    {"net.drop.no_route", "drop.no_route"},
    {"net.drop.ttl", "drop.ttl"},
    {"net.drop.loss", "drop.loss"},
    {"express.fwd.data_copies_sent", "fwd.copies"},
    {"express.fib.lookups", "fib.lookups"},
    {"express.sub.subscribe_events", "sub.subscribe_events"},
    {"express.sub.unsubscribe_events", "sub.unsubscribe_events"},
    {"express.sub.joins_sent", "sub.joins_sent"},
    {"express.sub.prunes_sent", "sub.prunes_sent"},
    {"ecmp.transport.counts_sent", "ecmp.counts_sent"},
    {"ecmp.transport.queries_sent", "ecmp.queries_sent"},
    {"ecmp.transport.responses_sent", "ecmp.responses_sent"},
    {"express.counting.rounds_started", "counting.rounds_started"},
    {"express.counting.rounds_timed_out", "counting.rounds_timed_out"},
}};

using CounterValues = std::map<std::string, std::uint64_t>;

CounterValues read_counters(const World& w) {
  CounterValues v;
  for (const auto& [metric, name] : kCounters) {
    v[name] = w.net->obs().registry.sum(metric);
  }
  return v;
}

// ---------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------

struct Result {
  std::map<std::string, double> values;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double v) { values[name] = v; }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }

  void print(const char* workload, std::uint64_t seed, bool traced) const {
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d",
                workload, static_cast<unsigned long long>(seed),
                traced ? 1 : 0);
    std::printf(", \"attempted\": %llu, \"failed\": %llu",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    std::printf(", \"values\": {");
    const char* sep = "";
    for (const auto& [name, v] : values) {
      std::printf("%s\"%s\": %.17g", sep, name.c_str(), v);
      sep = ", ";
    }
    std::printf("}, \"errors\": [");
    for (std::size_t i = 0; i < errors.size(); ++i) {
      std::printf("%s\"%s\"", i == 0 ? "" : ", ", errors[i].c_str());
    }
    std::printf("]}\n");
  }
};

/// Everything a workload hands back to the common reporting code.
struct Episode {
  std::unique_ptr<World> world;
  double setup_s = 0;
  double run_s = 0;
  CounterValues counters_before;
  CounterValues counters_after;
  std::uint64_t events = 0;
  std::uint64_t routing_versions = 0;
  Spans setup_spans{false};
  Spans run_spans{false};
};

/// Bracket the timed phase: counters, event count, routing version and
/// the spans recorded during set-up and during the phase.
class TimedPhase {
 public:
  TimedPhase(Episode& ep, Spans& spans) : ep_(ep), spans_(spans) {
    World& w = *ep_.world;
    ep_.setup_spans = spans;
    spans.clear();
    ep_.counters_before = read_counters(w);
    events0_ = w.net->scheduler().executed_events();
    version0_ = w.net->routing().version();
    t0_ = Clock::now();
  }

  void finish() {
    ep_.run_s = seconds_since(t0_);
    World& w = *ep_.world;
    ep_.counters_after = read_counters(w);
    ep_.events = w.net->scheduler().executed_events() - events0_;
    ep_.routing_versions = w.net->routing().version() - version0_;
    ep_.run_spans = spans_;
  }

 private:
  Episode& ep_;
  Spans& spans_;
  std::uint64_t events0_ = 0;
  std::uint64_t version0_ = 0;
  Clock::time_point t0_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool tiny = false;
};

// ---------------------------------------------------------------------
// broadcast: data plane
// ---------------------------------------------------------------------

/// Every receiver subscribed; the source sends a paced train of
/// seeded-size packets. Exercises the scheduler, link fan-out, FIB
/// lookups and host delivery, and no control plane at all.
workload::GeneratedTopology broadcast_topology(const Options& opt) {
  return opt.tiny ? workload::make_kary_tree(2, 3, {}, 2)
                  : workload::make_kary_tree(4, 4, {}, 5);
}

Episode run_broadcast(const Options& opt, Spans& spans, Result& res) {
  const std::uint32_t packets = opt.tiny ? 40 : 4000;
  Episode ep;
  const auto t0 = Clock::now();
  ep.world = std::make_unique<World>(broadcast_topology(opt), spans);
  World& w = *ep.world;
  for (ExpressHost* h : w.receivers) {
    w.host_call([&] { h->new_subscription(w.channel); });
  }
  w.run_for(sim::seconds(2));
  ep.setup_s = seconds_since(t0);
  w.sample_state();

  sim::Rng sizes = stream_rng(opt.seed, 1);
  TimedPhase phase(ep, spans);
  const sim::Time start = w.net->now();
  sim::Time at = start;
  for (std::uint32_t i = 0; i < packets; ++i) {
    w.run_until(at);
    const auto bytes = static_cast<std::uint32_t>(sizes.between(64, 1400));
    w.host_call([&] { w.source->send(w.channel, bytes, i); });
    if (i % 100 == 99) w.sample_state();
    at += sim::milliseconds(10) + sim::Duration{sizes.between(0, 2'000'000)};
  }
  w.run_until(at + sim::seconds(1));
  phase.finish();
  w.sample_state();

  std::uint64_t missed = 0;
  std::uint64_t unwanted = 0;
  for (const ExpressHost* h : w.receivers) {
    const HostStats s = h->stats();
    missed += s.data_received < packets ? packets - s.data_received : 0;
    unwanted += s.unwanted_data + (s.data_received > packets
                                       ? s.data_received - packets
                                       : 0);
  }
  res.attempted = std::uint64_t{packets} * w.receivers.size();
  res.failed = missed + unwanted;
  res.check(missed == 0, "broadcast: " + std::to_string(missed) +
                             " expected deliveries missing");
  res.check(unwanted == 0, "broadcast: " + std::to_string(unwanted) +
                               " unwanted or duplicate deliveries");
  return ep;
}

// ---------------------------------------------------------------------
// churn: control plane
// ---------------------------------------------------------------------

/// Seeded Poisson join/leave over a fixed sim horizon, a low-rate data
/// train, and a source subscriber-count query every sim second.
/// Exercises subscription, ECMP transport, counting and RPF reads.
///
/// The tree is small and the horizon long: on a 1,878-node tree, whose
/// routing table is 81 MB, the timed phase varied 1.2-1.7 times as much
/// from process to process as on this 470-node one (5 MB).
workload::GeneratedTopology churn_topology(const Options& opt) {
  return opt.tiny ? workload::make_kary_tree(2, 3, {}, 2)
                  : workload::make_kary_tree(4, 3, {}, 6);
}

Episode run_churn(const Options& opt, Spans& spans, Result& res) {
  const sim::Duration horizon =
      opt.tiny ? sim::seconds(10) : sim::seconds(2400);
  const sim::Duration query_timeout = sim::seconds(2);
  // Set-up takes about 20 ms at this size, so setup_s is the median of
  // several set-ups; the last world runs the scenario.
  constexpr int kSetups = 5;
  Episode ep;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    ep.world.reset();
    spans.clear();
    const auto t0 = Clock::now();
    ep.world = std::make_unique<World>(churn_topology(opt), spans);
    ep.world->run_for(sim::seconds(1));
    setups.push_back(seconds_since(t0));
  }
  ep.setup_s = median_of(setups);
  World& w = *ep.world;
  w.sample_state();

  sim::Rng churn_rng = stream_rng(opt.seed, 2);
  sim::Rng sizes = stream_rng(opt.seed, 1);
  const auto churn = workload::poisson_churn(
      static_cast<std::uint32_t>(w.receivers.size()), horizon,
      sim::seconds(10), sim::seconds(10), churn_rng);

  // One merged, time-ordered action list; the loop runs the network
  // up to each action's time and then makes the call, so host calls and
  // scheduler steps are separate spans.
  enum Kind : std::uint8_t { kChurn, kData, kQuery, kSample };
  struct Action {
    sim::Time at;
    Kind kind;
    std::size_t index;
  };
  std::vector<Action> actions;
  const sim::Time start = w.net->now() + sim::milliseconds(1);
  for (std::size_t i = 0; i < churn.size(); ++i) {
    actions.push_back({start + churn[i].at, kChurn, i});
  }
  sim::Rng query_rng = stream_rng(opt.seed, 3);
  const std::int64_t horizon_ms = horizon.count() / 1'000'000;
  for (std::int64_t ms = 0; ms < horizon_ms; ms += 100) {
    actions.push_back({start + sim::milliseconds(ms + 50), kData, 0});
  }
  for (std::int64_t s = 0; s * 1000 < horizon_ms; ++s) {
    const auto jitter = sim::Duration{query_rng.between(0, 500'000'000)};
    actions.push_back({start + sim::seconds(s) + jitter, kQuery, 0});
    actions.push_back({start + sim::seconds(s) + sim::milliseconds(999),
                       kSample, 0});
  }
  std::stable_sort(
      actions.begin(), actions.end(),
      [](const Action& a, const Action& b) { return a.at < b.at; });

  struct Query {
    sim::Time issued{};
    std::int64_t truth = 0;
    bool answered = false;
    bool complete = false;
    std::int64_t count = 0;
    sim::Time answered_at{};
  };
  std::vector<Query> queries;
  queries.reserve(static_cast<std::size_t>(horizon_ms / 1000) + 1);
  std::int64_t subscribers = 0;  // poisson_churn alternates join, leave
  std::uint64_t sequence = 0;

  TimedPhase phase(ep, spans);
  for (const Action& a : actions) {
    w.run_until(a.at);
    switch (a.kind) {
      case kChurn: {
        const workload::ChurnEvent& ev = churn[a.index];
        ExpressHost* h = w.receivers[ev.host_index];
        if (ev.join) {
          ++subscribers;
          w.host_call([&] { h->new_subscription(w.channel); });
        } else {
          --subscribers;
          w.host_call([&] { h->delete_subscription(w.channel); });
        }
        break;
      }
      case kData: {
        const auto bytes = static_cast<std::uint32_t>(sizes.between(64, 1400));
        w.host_call([&] { w.source->send(w.channel, bytes, sequence++); });
        break;
      }
      case kQuery: {
        const std::size_t q = queries.size();
        queries.push_back(Query{w.net->now(), subscribers});
        w.host_call([&] {
          w.source->count_query(
              w.channel, ecmp::kSubscriberId, query_timeout,
              [&queries, &w, q](CountResult r) {
                queries[q].answered = true;
                queries[q].complete = r.complete;
                queries[q].count = r.count;
                queries[q].answered_at = w.net->now();
              });
        });
        break;
      }
      case kSample:
        w.sample_state();
        break;
    }
  }
  w.run_until(start + horizon + query_timeout + sim::seconds(1));
  phase.finish();
  w.sample_state();

  std::uint64_t unanswered = 0;
  double error_ppm_sum = 0;
  std::vector<double> latency_ms;
  for (const Query& q : queries) {
    if (!q.answered || !q.complete) {
      ++unanswered;
      continue;
    }
    const auto truth =
        static_cast<double>(std::max<std::int64_t>(q.truth, 1));
    error_ppm_sum +=
        std::fabs(static_cast<double>(q.count - q.truth)) / truth * 1e6;
    latency_ms.push_back(sim::to_seconds(q.answered_at - q.issued) * 1e3);
  }
  res.attempted = queries.size();
  res.failed = unanswered;
  res.check(unanswered == 0, "churn: " + std::to_string(unanswered) + " of " +
                                 std::to_string(queries.size()) +
                                 " count queries unanswered or incomplete");
  res.check(subscribers == 0, "churn: schedule did not end with an empty tree");
  res.set("count_error_ppm",
          latency_ms.empty()
              ? 0.0
              : error_ppm_sum / static_cast<double>(latency_ms.size()));
  res.set("counting.query_ms_p99", percentile_of(latency_ms, 99));
  return ep;
}

// ---------------------------------------------------------------------
// chaos: write path
// ---------------------------------------------------------------------

/// A seeded fault schedule under churn, audited at every event boundary
/// after each heal (as bench/soak_chaos does). Exercises routing
/// recompute on every link change, router re-join and the auditor.
workload::GeneratedTopology chaos_topology(const Options& opt) {
  sim::Rng topo_rng = stream_rng(opt.seed, 0);
  return opt.tiny ? workload::make_transit_stub(4, 3, 2, topo_rng)
                  : workload::make_transit_stub(16, 8, 4, topo_rng);
}

Episode run_chaos(const Options& opt, Spans& spans, Result& res) {
  Episode ep;
  const auto t0 = Clock::now();
  ep.world = std::make_unique<World>(chaos_topology(opt), spans);
  World& w = *ep.world;
  // Standing members in every third stub keep the tree spanning the
  // core, so faults hit live forwarding state.
  for (std::size_t i = 0; i < w.receivers.size(); i += 3) {
    w.host_call([&] { w.receivers[i]->new_subscription(w.channel); });
  }
  w.run_for(sim::seconds(2));
  ep.setup_s = seconds_since(t0);
  w.sample_state();

  // A fixed mix of fault kinds and a fixed hold. With the default
  // weighted draw of kinds the number of link changes (and routing
  // recomputes) per episode varied 2.6x between seeds, and with the
  // default 0.2-2 s hold the audit count varied by a quarter.
  const std::array<workload::FaultKind, 10> mix = {
      workload::FaultKind::kLinkFlap,   workload::FaultKind::kRouterDown,
      workload::FaultKind::kLinkFlap,   workload::FaultKind::kPartition,
      workload::FaultKind::kLinkFlap,   workload::FaultKind::kLinkFlap,
      workload::FaultKind::kRouterDown, workload::FaultKind::kLinkFlap,
      workload::FaultKind::kPartition,  workload::FaultKind::kLinkFlap};
  const std::size_t fault_count = opt.tiny ? 2 : mix.size();
  sim::Rng fault_rng = stream_rng(opt.seed, 4);
  std::vector<workload::Fault> schedule;
  for (std::size_t i = 0; i < fault_count; ++i) {
    workload::FaultPlanConfig plan;
    plan.fault_count = 1;
    plan.min_hold = plan.max_hold = sim::seconds(1);
    plan.link_flap_weight = mix[i] == workload::FaultKind::kLinkFlap;
    plan.router_down_weight = mix[i] == workload::FaultKind::kRouterDown;
    plan.partition_weight = mix[i] == workload::FaultKind::kPartition;
    for (workload::Fault& f :
         workload::make_fault_schedule(w.net->topology(), plan, fault_rng)) {
      schedule.push_back(std::move(f));
    }
  }

  // Churn outlasts the churn window and the hold, so joins and leaves
  // keep arriving while links are down and while the heal settles. A
  // short data train rides in each churn window.
  sim::Rng churn_rng = stream_rng(opt.seed, 2);
  sim::Rng sizes = stream_rng(opt.seed, 1);
  std::uint64_t sequence = 0;
  auto churn = [&](std::size_t) {
    w.sample_state();
    const auto events = workload::poisson_churn(
        static_cast<std::uint32_t>(w.receivers.size() - 1), sim::seconds(4),
        sim::seconds(2), sim::seconds(2), churn_rng);
    sim::Scheduler& sched = w.net->scheduler();
    for (const auto& ev : events) {
      sched.schedule_at(w.net->now() + ev.at, [&w, ev] {
        ExpressHost* h = w.receivers[ev.host_index + 1];
        if (ev.join) {
          w.host_call([&] { h->new_subscription(w.channel); });
        } else {
          w.host_call([&] { h->delete_subscription(w.channel); });
        }
      });
    }
    for (std::int64_t ms = 50; ms < 1000; ms += 100) {
      const auto bytes = static_cast<std::uint32_t>(sizes.between(64, 1400));
      sched.schedule_at(
          w.net->now() + sim::milliseconds(ms), [&w, bytes, s = sequence++] {
            w.host_call([&] { w.source->send(w.channel, bytes, s); });
          });
    }
  };
  // The campaign calls the auditor at every event boundary after each
  // heal, so state is also sampled there, while links are down and
  // routers re-join (outside the audit span).
  auto audit = [&] {
    std::size_t violations = 0;
    spans.time("audit", [&] {
      violations = audit::InvariantAuditor(*w.net).run().violations.size();
    });
    w.sample_state();
    return violations;
  };

  TimedPhase phase(ep, spans);
  const workload::ChaosReport report = workload::run_chaos_campaign(
      *w.net, schedule, workload::ChaosConfig{}, audit, churn);
  phase.finish();
  w.sample_state();

  std::vector<double> convergence;
  std::uint64_t bad = 0;
  for (const workload::FaultOutcome& o : report.outcomes) {
    if (o.converged && o.violations == 0) {
      convergence.push_back(sim::to_seconds(o.convergence));
    } else {
      ++bad;
    }
  }
  res.attempted = report.faults_injected;
  res.failed = bad;
  res.check(report.faults_injected == fault_count,
            "chaos: fewer faults injected than scheduled");
  res.check(report.violations == 0,
            "chaos: " + std::to_string(report.violations) +
                " audit violations outstanding at quiescence");
  res.check(report.unconverged == 0,
            "chaos: " + std::to_string(report.unconverged) +
                " faults left unconverged");
  res.set("convergence_p50_s", median_of(convergence));
  res.set("convergence_max_s", sim::to_seconds(report.max_convergence()));
  return ep;
}

// ---------------------------------------------------------------------
// Standalone routing probe (traced runs only)
// ---------------------------------------------------------------------

struct RoutingProbe {
  double build_s = 0;
  double rss_mb = 0;
  double recompute_s = 0;
};

/// Build UnicastRouting on the workload's own topology outside any
/// Network: build time, the RSS it adds while alive, and the median of
/// a few recompute() calls (at least one, about 0.5 s of them).
RoutingProbe probe_routing(const workload::GeneratedTopology& generated) {
  RoutingProbe p;
  malloc_trim(0);
  const double rss0 = proc_status_mb("VmRSS");
  const auto t0 = Clock::now();
  auto routing = std::make_unique<net::UnicastRouting>(generated.topology);
  p.build_s = seconds_since(t0);
  p.rss_mb = proc_status_mb("VmRSS") - rss0;
  std::vector<double> recomputes;
  double total = 0;
  while (recomputes.empty() || (total < 0.5 && recomputes.size() < 50)) {
    const auto t1 = Clock::now();
    routing->recompute();
    recomputes.push_back(seconds_since(t1));
    total += recomputes.back();
  }
  p.recompute_s = median_of(recomputes);
  return p;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload broadcast|churn|chaos --seed N "
               "[--trace] [--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
      opt.workload = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opt.trace = true;
    } else if (std::strcmp(argv[i], "--tiny") == 0) {
      opt.tiny = true;
    } else {
      return usage();
    }
  }

  Spans spans(opt.trace);
  Result res;
  Episode ep;
  workload::GeneratedTopology (*topology)(const Options&) = nullptr;
  if (opt.workload == "broadcast") {
    ep = run_broadcast(opt, spans, res);
    topology = broadcast_topology;
  } else if (opt.workload == "churn") {
    ep = run_churn(opt, spans, res);
    topology = churn_topology;
  } else if (opt.workload == "chaos") {
    ep = run_chaos(opt, spans, res);
    topology = chaos_topology;
  } else {
    return usage();
  }
  World& w = *ep.world;

  auto delta = [&](const char* name) {
    return static_cast<double>(ep.counters_after.at(name) -
                               ep.counters_before.at(name));
  };

  // Quality figures a workload does not produce read 0.
  for (const char* name : {"count_error_ppm", "convergence_p50_s",
                           "convergence_max_s", "counting.query_ms_p99"}) {
    res.values.try_emplace(name, 0.0);
  }
  res.set("fail_ratio",
          static_cast<double>(res.failed) /
              static_cast<double>(std::max<std::uint64_t>(res.attempted, 1)));
  res.set("setup_s", ep.setup_s);
  res.set("run_s", ep.run_s);
  res.set("delivered", static_cast<double>(w.delivered()));
  res.set("control_bytes", static_cast<double>(w.control_bytes()));
  const obs::Registry& registry = w.net->obs().registry;
  res.check(w.control_bytes() ==
                registry.sum("ecmp.transport.control_bytes_sent") +
                    registry.sum("express.host.control_bytes_sent"),
            "control_bytes: host and router stats disagree with the "
            "obs::Registry sums");
  res.set("state_bytes_peak", static_cast<double>(w.state_bytes_peak));
  res.set("sim.events", static_cast<double>(ep.events));

  if (opt.trace) {
    const Spans& run = ep.run_spans;
    double steps_s = 0;
    for (const std::string label : kStepLabels) {
      steps_s += run.seconds(label);
      res.set("sim." + label + "_s", run.seconds(label));
      res.set("sim." + label + "_n", static_cast<double>(run.calls(label)));
    }
    res.set("sim.step.unattributed_s", ep.run_s - steps_s -
                                           run.seconds("host") -
                                           run.seconds("audit"));
    const double hops = delta("net.packets_sent");
    res.set("net.packets_sent", hops);
    res.set("net.ns_per_hop", hops > 0 ? steps_s * 1e9 / hops : 0.0);
    res.set("net.drops", delta("drop.link_down") + delta("drop.no_route") +
                             delta("drop.ttl") + delta("drop.loss"));
    res.set("fwd.copies", delta("fwd.copies"));
    res.set("fib.lookups", delta("fib.lookups"));
    res.set("fib.entries_peak", static_cast<double>(w.fib_entries_peak));
    res.set("host.delivery_log_mb", w.delivery_log_mb());
    for (const char* name :
         {"sub.subscribe_events", "sub.unsubscribe_events", "sub.joins_sent",
          "sub.prunes_sent", "ecmp.counts_sent", "ecmp.queries_sent",
          "ecmp.responses_sent", "counting.rounds_started",
          "counting.rounds_timed_out"}) {
      res.set(name, delta(name));
    }
    const auto per_call_us = [&](const char* label) {
      const std::uint64_t n = run.calls(label);
      return n > 0 ? run.seconds(label) * 1e6 / static_cast<double>(n) : 0.0;
    };
    res.set("sub.host_call_us", per_call_us("host"));
    res.set("audit.calls", static_cast<double>(run.calls("audit")));
    res.set("audit.s", run.seconds("audit"));
    res.set("audit.us_per_call", per_call_us("audit"));
    res.set("net.ctor_s", ep.setup_spans.seconds("net.ctor"));
    res.set("attach.s", ep.setup_spans.seconds("attach"));
    res.set("obs.registry_entries",
            static_cast<double>(w.net->obs().registry.size()));
  }
  // Peak RSS belongs to the episode; the routing probe below comes after.
  res.set("peak_rss_mb", proc_status_mb("VmHWM"));

  if (opt.trace) {
    ep.world.reset();
    const RoutingProbe probe = probe_routing(topology(opt));
    res.set("routing.build_s", probe.build_s);
    res.set("routing.rss_mb", probe.rss_mb);
    res.set("routing.recompute_s", probe.recompute_s);
    res.set("routing.recomputes", static_cast<double>(ep.routing_versions));
    res.set("routing.recompute_total_s",
            probe.recompute_s * static_cast<double>(ep.routing_versions));
  }

  res.print(opt.workload.c_str(), opt.seed, opt.trace);
  return res.errors.empty() ? 0 : 1;
}
