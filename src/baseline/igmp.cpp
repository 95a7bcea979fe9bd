#include "baseline/igmp.hpp"

#include <algorithm>
#include <iterator>

namespace express::baseline {

IgmpRoundResult igmp_query_round(std::uint32_t members, bool suppression) {
  IgmpRoundResult result;
  if (members == 0) {
    result.count_is_exact = true;
    return result;
  }
  if (!suppression) {
    result.reports_sent = members;
    result.observed_count = members;
    result.count_is_exact = true;
    return result;
  }
  // v2: the earliest delay wins, the rest hear it and suppress. (On a
  // real LAN a few extra reports race through; the single-winner model
  // is the intended steady state.)
  result.reports_sent = 1;
  result.reports_suppressed = members - 1;
  result.observed_count = 1;  // querier learns only "at least one"
  result.count_is_exact = (members == 1);
  return result;
}

SourceFilter SourceFilter::include(std::vector<ip::Address> sources) {
  SourceFilter f;
  f.mode_ = Mode::kInclude;
  f.sources_.insert(sources.begin(), sources.end());
  return f;
}

SourceFilter SourceFilter::exclude(std::vector<ip::Address> sources) {
  SourceFilter f;
  f.mode_ = Mode::kExclude;
  f.sources_.insert(sources.begin(), sources.end());
  return f;
}

bool SourceFilter::accepts(ip::Address source) const {
  const bool listed = sources_.contains(source);
  return mode_ == Mode::kInclude ? listed : !listed;
}

void SourceFilter::merge(const SourceFilter& other) {
  // RFC 3376: the interface must accept anything either record accepts.
  if (mode_ == Mode::kInclude && other.mode_ == Mode::kInclude) {
    sources_.insert(other.sources_.begin(), other.sources_.end());
    return;
  }
  if (mode_ == Mode::kExclude && other.mode_ == Mode::kExclude) {
    // EXCLUDE(A) union EXCLUDE(B) accepts ~A or ~B = ~(A intersect B).
    std::erase_if(sources_,
                  [&](ip::Address s) { return !other.sources_.contains(s); });
    return;
  }
  // Mixed: EXCLUDE(X) union INCLUDE(Y) = EXCLUDE(X - Y).
  const SourceFilter& excl = (mode_ == Mode::kExclude) ? *this : other;
  const SourceFilter& incl = (mode_ == Mode::kExclude) ? other : *this;
  std::set<ip::Address> remaining;
  std::ranges::set_difference(excl.sources_, incl.sources_,
                              std::inserter(remaining, remaining.end()));
  mode_ = Mode::kExclude;
  sources_ = std::move(remaining);
}

}  // namespace express::baseline
