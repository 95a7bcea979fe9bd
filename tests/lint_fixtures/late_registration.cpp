// archlint fixture: registry slots created on the traffic path (fire)
// versus in the constructor (does not fire).
#include <cstdint>

#include "obs/obs.hpp"

namespace fixture {

struct MeterStats {
  std::uint64_t packets = 0;
};

class Meter {
 public:
  explicit Meter(obs::Scope scope)
      : scope_(scope),
        early_(scope_.bind<MeterStats>(
            {{&MeterStats::packets, "fixture.early"}})) {}

  void on_first_packet() {
    // VIOLATION (late-registration): slot existence now depends on
    // whether traffic arrived, so snapshots diverge run-to-run.
    late_ = scope_.bind<MeterStats>({{&MeterStats::packets, "fixture.late"}});
  }

  void on_first_sample() {
    // VIOLATION (late-registration): histograms follow the same rule.
    latency_ = scope_.histogram("fixture.latency");
  }

 private:
  obs::Scope scope_;
  MeterStats* early_;
  MeterStats* late_ = nullptr;
  obs::Histogram latency_;
};

}  // namespace fixture
