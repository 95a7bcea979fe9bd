// Opt-in per-packet record of the channel data one host delivered.
//
// Hosts keep counters (stats().data_received), not logs. A test, bench or
// example that needs the packets themselves (sequences, arrival times,
// senders) attaches a DeliveryLog before the run:
//
//   DeliveryLog log;
//   host.set_data_handler(log.handler());
//
// The handler type is ExpressHost::DataHandler, which GroupHost shares,
// so one log type serves both host kinds. A group packet is recorded
// with channel {sender, group}. The log must outlive the host's use of
// its handler, so it is neither copyable nor movable.
#pragma once

#include <cstddef>
#include <vector>

#include "express/host.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace express {

class DeliveryLog {
 public:
  using Delivery = ExpressHost::Delivery;

  DeliveryLog() = default;
  DeliveryLog(const DeliveryLog&) = delete;
  DeliveryLog& operator=(const DeliveryLog&) = delete;

  /// A data handler that appends every delivered packet, in arrival order.
  [[nodiscard]] ExpressHost::DataHandler handler() {
    return [this](const net::Packet& packet, sim::Time at) {
      records_.push_back(Delivery{{packet.src, packet.dst}, packet.sequence,
                                  packet.data_bytes, at});
    };
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  [[nodiscard]] const Delivery& operator[](std::size_t i) const {
    return records_.at(i);
  }
  [[nodiscard]] const Delivery& back() const { return records_.back(); }
  [[nodiscard]] auto begin() const { return records_.begin(); }
  [[nodiscard]] auto end() const { return records_.end(); }

 private:
  std::vector<Delivery> records_;
};

}  // namespace express
