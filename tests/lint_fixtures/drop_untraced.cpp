// archlint fixture: drop fields bumped without a paired trace emit
// (fire), next to properly traced bumps (do not fire).
#include <cstdint>

#include "obs/obs.hpp"

namespace fixture {

struct PlaneStats {
  std::uint64_t drops = 0;
  std::uint64_t dropped_bytes = 0;
};

class Plane {
 public:
  void on_bad_packet() {
    // VIOLATION (drop-untraced): metric moves, replay sees nothing.
    ++stats_->drops;
  }

  void on_bad_burst(std::uint64_t bytes) {
    // VIOLATION (drop-untraced): same, through a compound assignment.
    stats_->dropped_bytes += bytes;
  }

  void on_bad_packet_traced(long now) {
    ++stats_->drops;
    scope_.emit(now, obs::TraceType::kPacketDropped, 0, 0);
  }

 private:
  obs::Scope scope_;
  PlaneStats* stats_ = nullptr;
};

}  // namespace fixture
