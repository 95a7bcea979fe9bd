// Report equality for the incremental invariant audit: two reports
// match when they hold the same violations (check, router, channel,
// detail and trace position, in the same order) and the same counters.
// routers_walked is the work of one call, not part of the verdict, and
// is left out.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "audit/invariants.hpp"

namespace express::test {

inline testing::AssertionResult same_verdict(const audit::AuditReport& got,
                                             const audit::AuditReport& want) {
  if (got.routers_audited != want.routers_audited ||
      got.channels_audited != want.channels_audited ||
      got.edges_checked != want.edges_checked) {
    return testing::AssertionFailure()
           << "counters (routers, channels, edges) differ: ("
           << got.routers_audited << ", " << got.channels_audited << ", "
           << got.edges_checked << ") vs (" << want.routers_audited << ", "
           << want.channels_audited << ", " << want.edges_checked << ")";
  }
  bool same = got.violations.size() == want.violations.size();
  for (std::size_t i = 0; same && i < got.violations.size(); ++i) {
    const audit::Violation& a = got.violations[i];
    const audit::Violation& b = want.violations[i];
    same = a.check == b.check && a.router == b.router &&
           a.channel == b.channel && a.detail == b.detail &&
           a.trace_index == b.trace_index;
  }
  if (!same) {
    return testing::AssertionFailure() << "violations differ:\n"
                                       << got.to_string() << "vs\n"
                                       << want.to_string();
  }
  return testing::AssertionSuccess();
}

}  // namespace express::test
