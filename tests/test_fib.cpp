// Unit tests for the FIB: Fig. 5 packed format, fast-path lookup
// semantics (exact (S,E) match + RPF interface check), and drop
// accounting.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "express/fib.hpp"
#include "net/interface_set.hpp"
#include "sim/random.hpp"

namespace express {
namespace {

ip::ChannelId channel(std::uint32_t host, std::uint32_t index) {
  return ip::ChannelId{ip::Address{0x0A000000u + host},
                       ip::Address::single_source(index)};
}

TEST(PackedFib, EntryIsTwelveBytes) {
  // Fig. 5: | source 32 | dest 24 | iif | oifs 32 | = 12 bytes.
  static_assert(sizeof(PackedFibEntry) == 12);
  EXPECT_EQ(sizeof(PackedFibEntry), 12u);
}

TEST(PackedFib, PackUnpackRoundTrip) {
  FibEntry e;
  e.iif = 7;
  e.oifs.set(0);
  e.oifs.set(13);
  e.oifs.set(31);
  const auto ch = channel(1, 0x00ABCDEF);
  auto packed = pack(ch, e);
  ASSERT_TRUE(packed.has_value());
  auto [ch2, e2] = unpack(*packed);
  EXPECT_EQ(ch2, ch);
  EXPECT_EQ(e2.iif, e.iif);
  EXPECT_TRUE(e2.oifs == e.oifs);
}

TEST(PackedFib, RejectsOutOfBudgetEntries) {
  FibEntry wide;
  wide.iif = 0;
  wide.oifs.set(32);  // beyond the 32-interface hardware budget
  EXPECT_FALSE(pack(channel(1, 1), wide).has_value());

  FibEntry high_iif;
  high_iif.iif = 32;
  EXPECT_FALSE(pack(channel(1, 1), high_iif).has_value());

  FibEntry ok;
  ok.iif = 31;
  ok.oifs.set(31);
  EXPECT_TRUE(pack(channel(1, 1), ok).has_value());

  // Non-single-source destinations cannot be packed (24-bit dest field).
  FibEntry e;
  ip::ChannelId bad{ip::Address(10, 0, 0, 1), ip::Address(225, 0, 0, 1)};
  EXPECT_FALSE(pack(bad, e).has_value());
}

TEST(Fib, LookupRequiresExactChannelMatch) {
  // §2: (S,E) and (S',E) are unrelated despite the shared E.
  Fib fib;
  FibEntry& e = fib.upsert(channel(1, 5));
  e.iif = 0;
  e.oifs.set(1);
  EXPECT_NE(fib.lookup(channel(1, 5), 0), nullptr);
  EXPECT_EQ(fib.lookup(channel(2, 5), 0), nullptr);  // same E, other S
  EXPECT_EQ(fib.stats().no_entry_drops, 1u);
}

TEST(Fib, RpfCheckDropsWrongInterface) {
  Fib fib;
  FibEntry& e = fib.upsert(channel(1, 5));
  e.iif = 3;
  e.oifs.set(1);
  EXPECT_EQ(fib.lookup(channel(1, 5), 0), nullptr);
  EXPECT_EQ(fib.stats().rpf_drops, 1u);
  EXPECT_NE(fib.lookup(channel(1, 5), 3), nullptr);
  EXPECT_EQ(fib.stats().hits, 1u);
  EXPECT_EQ(fib.stats().lookups, 2u);
}

TEST(Fib, NoEntryPacketsAreCountedAndDropped) {
  // §3.4: unlike PIM-SM/DVMRP there is no rendezvous forwarding or
  // flooding — a miss is just counted.
  Fib fib;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fib.lookup(channel(9, static_cast<std::uint32_t>(i)), 0), nullptr);
  }
  EXPECT_EQ(fib.stats().no_entry_drops, 10u);
  EXPECT_EQ(fib.stats().hits, 0u);
}

TEST(Fib, EraseRemovesEntry) {
  Fib fib;
  fib.upsert(channel(1, 1));
  EXPECT_EQ(fib.size(), 1u);
  fib.erase(channel(1, 1));
  EXPECT_EQ(fib.size(), 0u);
  EXPECT_EQ(fib.find(channel(1, 1)), nullptr);
}

TEST(Fib, PackedBytesMatchesEntryCount) {
  Fib fib;
  for (std::uint32_t i = 0; i < 100; ++i) fib.upsert(channel(1, i));
  EXPECT_EQ(fib.packed_bytes(), 1200u);  // 100 entries * 12 bytes
}

TEST(Fib, FindDoesNotInflateHitStats) {
  // Regression: the RPF-check path probes the table with find() (twice,
  // in the worst case: once for the subcast relay check, once for the
  // audit) before the forwarding lookup() runs. hits must count once
  // per lookup(), never per probe.
  Fib fib;
  FibEntry& e = fib.upsert(channel(1, 5));
  e.iif = 2;
  e.oifs.set(1);
  ASSERT_NE(fib.find(channel(1, 5)), nullptr);
  ASSERT_NE(static_cast<const Fib&>(fib).find(channel(1, 5)), nullptr);
  EXPECT_EQ(fib.stats().hits, 0u);
  EXPECT_EQ(fib.stats().lookups, 0u);
  EXPECT_NE(fib.lookup(channel(1, 5), 2), nullptr);
  EXPECT_EQ(fib.stats().hits, 1u);
  EXPECT_EQ(fib.stats().lookups, 1u);
}

TEST(FlatFib, BackwardShiftDeletionKeepsChainsProbeable) {
  // Dense sequential keys build long probe chains; deleting every other
  // entry exercises the backward-shift path. Every survivor must stay
  // findable and every deleted key must miss (a stale shift would
  // orphan chain members behind the hole).
  Fib fib;
  for (std::uint32_t i = 0; i < 500; ++i) fib.upsert(channel(3, i)).iif = i;
  for (std::uint32_t i = 0; i < 500; i += 2) fib.erase(channel(3, i));
  EXPECT_EQ(fib.size(), 250u);
  for (std::uint32_t i = 0; i < 500; ++i) {
    const FibEntry* e = fib.find(channel(3, i));
    if (i % 2 == 0) {
      EXPECT_EQ(e, nullptr) << "deleted key " << i << " still found";
    } else {
      ASSERT_NE(e, nullptr) << "live key " << i << " lost";
      EXPECT_EQ(e->iif, i);
    }
  }
}

TEST(FlatFib, RandomOpsMatchUnorderedMapReference) {
  // Property test: a random insert/erase/find workload against a
  // std::unordered_map reference model, through several growth rounds
  // and heavy deletion (backward shift + dense swap-remove).
  Fib fib;
  std::unordered_map<ip::ChannelId, FibEntry> model;
  sim::Rng rng(0xF1B);
  constexpr std::uint32_t kHosts = 4;
  constexpr std::uint32_t kIndices = 400;
  for (int op = 0; op < 30000; ++op) {
    const auto ch = channel(1 + rng.below(kHosts), rng.below(kIndices));
    switch (rng.below(4)) {
      case 0:
      case 1: {  // upsert, biased so the table actually fills
        const std::uint32_t iif = rng.below(32);
        const std::uint32_t oif = rng.below(64);
        FibEntry& e = fib.upsert(ch);
        e.iif = iif;
        e.oifs.set(oif);
        FibEntry& m = model[ch];
        m.iif = iif;
        m.oifs.set(oif);
        break;
      }
      case 2: {
        fib.erase(ch);
        model.erase(ch);
        break;
      }
      case 3: {
        const FibEntry* got = fib.find(ch);
        auto it = model.find(ch);
        if (it == model.end()) {
          EXPECT_EQ(got, nullptr);
        } else {
          ASSERT_NE(got, nullptr);
          EXPECT_EQ(got->iif, it->second.iif);
          EXPECT_TRUE(got->oifs == it->second.oifs);
        }
        break;
      }
    }
    if (op % 5000 == 4999) {  // periodic full cross-check
      ASSERT_EQ(fib.size(), model.size());
      for (const auto& [mch, mentry] : model) {
        const FibEntry* got = fib.find(mch);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->iif, mentry.iif);
        EXPECT_TRUE(got->oifs == mentry.oifs);
      }
      for (const auto& [fch, fentry] : fib.entries()) {
        EXPECT_EQ(model.count(fch), 1u);
      }
    }
  }
  EXPECT_EQ(fib.size(), model.size());
}

TEST(FlatFib, IterationOrderIsDeterministic) {
  // entries() order is a pure function of the op history: two tables
  // fed the identical sequence must agree element for element.
  Fib a;
  Fib b;
  sim::Rng rng(77);
  std::vector<std::pair<bool, ip::ChannelId>> ops;
  for (int i = 0; i < 2000; ++i) {
    ops.emplace_back(rng.below(3) != 0, channel(1, rng.below(150)));
  }
  for (const auto& [insert, ch] : ops) {
    if (insert) {
      a.upsert(ch);
      b.upsert(ch);
    } else {
      a.erase(ch);
      b.erase(ch);
    }
  }
  ASSERT_EQ(a.entries().size(), b.entries().size());
  for (std::size_t i = 0; i < a.entries().size(); ++i) {
    EXPECT_EQ(a.entries()[i].first, b.entries()[i].first);
  }
}

TEST(InterfaceSet, SetClearTest) {
  net::InterfaceSet s;
  EXPECT_TRUE(s.empty());
  s.set(0);
  s.set(63);
  s.set(64);
  s.set(200);
  EXPECT_TRUE(s.test(0));
  EXPECT_TRUE(s.test(63));
  EXPECT_TRUE(s.test(64));
  EXPECT_TRUE(s.test(200));
  EXPECT_FALSE(s.test(1));
  EXPECT_EQ(s.count(), 4u);
  s.clear(63);
  EXPECT_FALSE(s.test(63));
  EXPECT_EQ(s.count(), 3u);
}

TEST(InterfaceSet, ForEachAscending) {
  net::InterfaceSet s;
  s.set(5);
  s.set(70);
  s.set(2);
  std::vector<std::uint32_t> seen;
  s.for_each([&](std::uint32_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{2, 5, 70}));
}

TEST(InterfaceSet, FitsIn32) {
  net::InterfaceSet s;
  s.set(31);
  EXPECT_TRUE(s.fits_in_32());
  EXPECT_EQ(s.low32(), 1u << 31);
  s.set(32);
  EXPECT_FALSE(s.fits_in_32());
}

TEST(InterfaceSet, UnionAndDifferenceAcrossWordCounts) {
  // PIM's oif inheritance: (*,G) | (S,G), minus RPT-pruned branches,
  // with operands of different lengths on either side.
  net::InterfaceSet star, sg, pruned;
  star.set(1);
  star.set(2);
  sg.set(130);
  pruned.set(2);
  pruned.set(70);
  net::InterfaceSet oifs;
  oifs |= star;
  oifs -= pruned;  // longer operand: only the shared words are touched
  oifs |= sg;      // grows to sg's length
  std::vector<std::uint32_t> seen;
  oifs.for_each([&](std::uint32_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{1, 130}));
  oifs -= star;  // shorter operand: the high words stay
  seen.clear();
  oifs.for_each([&](std::uint32_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{130}));
}

TEST(InterfaceSet, EqualityIgnoresTrailingZeros) {
  net::InterfaceSet a, b;
  a.set(100);
  a.clear(100);
  EXPECT_TRUE(a == b);
  a.set(3);
  b.set(3);
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace express
