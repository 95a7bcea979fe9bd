// IGMP mechanics: v2 report suppression vs v3/ECMP explicit counts, and
// the v3 source-filter algebra the paper compares EXPRESS against.
#include <gtest/gtest.h>

#include "baseline/igmp.hpp"

namespace express::baseline {
namespace {

TEST(IgmpRound, SuppressionHidesTheCount) {
  const auto result = igmp_query_round(100, /*suppression=*/true);
  EXPECT_EQ(result.reports_sent, 1u);
  EXPECT_EQ(result.reports_suppressed, 99u);
  EXPECT_FALSE(result.count_is_exact);  // querier learns only "non-zero"
}

TEST(IgmpRound, NoSuppressionYieldsExactCount) {
  // ECMP UDP mode / IGMPv3 behaviour: every member answers.
  const auto result = igmp_query_round(100, /*suppression=*/false);
  EXPECT_EQ(result.reports_sent, 100u);
  EXPECT_EQ(result.observed_count, 100);
  EXPECT_TRUE(result.count_is_exact);
}

TEST(IgmpRound, EmptyLanIsSilent) {
  for (bool suppression : {true, false}) {
    const auto result = igmp_query_round(0, suppression);
    EXPECT_EQ(result.reports_sent, 0u);
    EXPECT_TRUE(result.count_is_exact);
  }
}

TEST(IgmpRound, SingleMemberIsExactEitherWay) {
  const auto result = igmp_query_round(1, true);
  EXPECT_EQ(result.reports_sent, 1u);
  EXPECT_TRUE(result.count_is_exact);
}

const ip::Address kS1(10, 0, 0, 1);
const ip::Address kS2(10, 0, 0, 2);
const ip::Address kS3(10, 0, 0, 3);

TEST(SourceFilter, DefaultReceivesNothing) {
  SourceFilter f;
  EXPECT_FALSE(f.accepts(kS1));
  EXPECT_EQ(f.mode(), SourceFilter::Mode::kInclude);
}

TEST(SourceFilter, IncludeAcceptsOnlyListed) {
  auto f = SourceFilter::include({kS1, kS2});
  EXPECT_TRUE(f.accepts(kS1));
  EXPECT_TRUE(f.accepts(kS2));
  EXPECT_FALSE(f.accepts(kS3));
}

TEST(SourceFilter, ExcludeRejectsOnlyListed) {
  auto f = SourceFilter::exclude({kS1});
  EXPECT_FALSE(f.accepts(kS1));
  EXPECT_TRUE(f.accepts(kS2));
  // EXCLUDE({}) is "receive everything" — the classic any-source join.
  auto open = SourceFilter::exclude({});
  EXPECT_TRUE(open.accepts(kS1));
}

TEST(SourceFilter, MergeIncludeInclude) {
  auto a = SourceFilter::include({kS1});
  a.merge(SourceFilter::include({kS2}));
  EXPECT_EQ(a.mode(), SourceFilter::Mode::kInclude);
  EXPECT_TRUE(a.accepts(kS1));
  EXPECT_TRUE(a.accepts(kS2));
  EXPECT_FALSE(a.accepts(kS3));
}

TEST(SourceFilter, MergeExcludeExcludeIntersects) {
  auto a = SourceFilter::exclude({kS1, kS2});
  a.merge(SourceFilter::exclude({kS2, kS3}));
  EXPECT_EQ(a.mode(), SourceFilter::Mode::kExclude);
  EXPECT_FALSE(a.accepts(kS2));  // excluded by both
  EXPECT_TRUE(a.accepts(kS1));   // someone wants it
  EXPECT_TRUE(a.accepts(kS3));
}

TEST(SourceFilter, MergeMixedSubtracts) {
  auto a = SourceFilter::exclude({kS1, kS2});
  a.merge(SourceFilter::include({kS2}));
  EXPECT_EQ(a.mode(), SourceFilter::Mode::kExclude);
  EXPECT_FALSE(a.accepts(kS1));
  EXPECT_TRUE(a.accepts(kS2));  // the include rescued kS2
  EXPECT_TRUE(a.accepts(kS3));

  auto b = SourceFilter::include({kS2});
  b.merge(SourceFilter::exclude({kS1, kS2}));
  EXPECT_EQ(b.mode(), SourceFilter::Mode::kExclude);
  EXPECT_TRUE(b.accepts(kS2));
  EXPECT_FALSE(b.accepts(kS1));
}

TEST(SourceFilter, MergeIsAcceptanceUnion) {
  // Property over a small universe: after merge, accepts(s) must equal
  // a.accepts(s) || b.accepts(s) for every s.
  std::vector<SourceFilter> cases = {
      SourceFilter::include({}),          SourceFilter::include({kS1}),
      SourceFilter::include({kS1, kS2}),  SourceFilter::exclude({}),
      SourceFilter::exclude({kS2}),       SourceFilter::exclude({kS1, kS3}),
  };
  for (const auto& a : cases) {
    for (const auto& b : cases) {
      SourceFilter merged = a;
      merged.merge(b);
      for (ip::Address s : {kS1, kS2, kS3}) {
        EXPECT_EQ(merged.accepts(s), a.accepts(s) || b.accepts(s))
            << "source " << s.to_string();
      }
    }
  }
}

TEST(SourceFilter, SingleSourceEquivalence) {
  // INCLUDE({S}) is the IGMPv3 spelling of an EXPRESS channel
  // subscription — the one case the paper keeps, discarding the rest of
  // the generality.
  EXPECT_TRUE(SourceFilter::include({kS1}).is_single_source());
  EXPECT_FALSE(SourceFilter::include({kS1, kS2}).is_single_source());
  EXPECT_FALSE(SourceFilter::exclude({kS1}).is_single_source());
  EXPECT_FALSE(SourceFilter::include({}).is_single_source());
}

}  // namespace
}  // namespace express::baseline
