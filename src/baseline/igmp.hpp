// IGMP membership mechanics, for comparison with ECMP's UDP mode.
//
// Two pieces:
//  * A shared-LAN round model for IGMPv2 report suppression vs the
//    suppression-free IGMPv3 / ECMP behaviour (§3.2: "Unlike IGMPv2,
//    but like the proposed IGMPv3, there is no report suppression").
//    Suppression saves LAN bandwidth but hides the member count — the
//    very information ECMP is designed to collect.
//  * IGMPv3-style source filter records (include/exclude lists), which
//    the paper calls "far more general" than EXPRESS's single-source
//    designation — at the cost of protocol complexity. The filter
//    algebra here is what a v3 host stack maintains per group.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "ip/address.hpp"

namespace express::baseline {

struct IgmpRoundResult {
  std::uint32_t reports_sent = 0;     ///< reports that reached the wire
  std::uint32_t reports_suppressed = 0;
  /// What the querier can conclude: with suppression only "members > 0";
  /// without it, the exact member count.
  std::int64_t observed_count = 0;
  bool count_is_exact = false;
};

/// Simulate one general-query round on a shared LAN with `members`
/// members. With suppression (IGMPv2) the member whose random response
/// delay expires first reports and every later one hears it and stays
/// silent; who wins does not change what the querier learns. Without
/// suppression (IGMPv3 / ECMP UDP mode) every member reports.
IgmpRoundResult igmp_query_round(std::uint32_t members, bool suppression);

/// IGMPv3 per-(interface, group) source filter state.
class SourceFilter {
 public:
  enum class Mode : std::uint8_t { kInclude, kExclude };

  /// Initial state: INCLUDE({}) — receive nothing.
  SourceFilter() = default;

  static SourceFilter include(std::vector<ip::Address> sources);
  static SourceFilter exclude(std::vector<ip::Address> sources);

  [[nodiscard]] Mode mode() const { return mode_; }

  /// Would traffic from `source` be delivered under this filter?
  [[nodiscard]] bool accepts(ip::Address source) const;

  /// Merge another app's filter on the same group (RFC 3376 §3.2 rules:
  /// the interface state is the union of what any app wants).
  void merge(const SourceFilter& other);

  /// True if this filter is equivalent to an EXPRESS channel
  /// subscription: INCLUDE of exactly one source.
  [[nodiscard]] bool is_single_source() const {
    return mode_ == Mode::kInclude && sources_.size() == 1;
  }

 private:
  Mode mode_ = Mode::kInclude;
  std::set<ip::Address> sources_;
};

}  // namespace express::baseline
