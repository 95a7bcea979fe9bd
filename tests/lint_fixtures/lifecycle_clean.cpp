// archlint fixture: the clean counterparts of handle_leak.cpp,
// drop_untraced.cpp and late_registration.cpp in one file — a stored
// handle cancelled by the destructor, a justified fire-and-forget, and
// constructor-path slot registration. Must produce zero findings.
#include <cstdint>

#include "obs/obs.hpp"
#include "sim/scheduler.hpp"

namespace fixture {

struct TidyStats {
  std::uint64_t packets = 0;
};

class Tidy {
 public:
  explicit Tidy(obs::Scope scope) : scope_(scope) {
    stats_ = scope_.bind<TidyStats>({{&TidyStats::packets, "fixture.packets"}});
  }
  ~Tidy() { timer_.cancel(); }

  void arm() {
    timer_ = scheduler_->schedule_after(sim::seconds(1), [] {});
    // lint: fire-and-forget (one-shot probe; the event outlives no one)
    scheduler_->schedule_after(sim::seconds(2), [] {});
  }

 private:
  obs::Scope scope_;
  TidyStats* stats_ = nullptr;
  sim::Scheduler* scheduler_ = nullptr;
  sim::EventHandle timer_;
};

}  // namespace fixture
