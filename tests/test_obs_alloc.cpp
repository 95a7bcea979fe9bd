// Heap-traffic gates for the metrics registry (DESIGN.md §11).
//
// This binary links the counting operator new/delete of
// alloc_counter.cpp, pinning the registry's storage design with
// deterministic work counters: binding a table whose names are already
// interned touches the allocator only when a slot column or an arena
// chunk grows, and an entity costs its entries whatever its id is.
#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_counter.hpp"
#include "obs/obs.hpp"

namespace express::obs {
namespace {

/// An 8-row table, the shape of a mid-sized module's stats block.
struct EightStats {
  std::uint64_t f0 = 0, f1 = 0, f2 = 0, f3 = 0, f4 = 0, f5 = 0, f6 = 0, f7 = 0;
};

EightStats* bind_eight(Registry& reg, Entity entity) {
  return reg.bind<EightStats>(entity, {{&EightStats::f0, "alloc.f0"},
                                       {&EightStats::f1, "alloc.f1"},
                                       {&EightStats::f2, "alloc.f2"},
                                       {&EightStats::f3, "alloc.f3"},
                                       {&EightStats::f4, "alloc.f4"},
                                       {&EightStats::f5, "alloc.f5"},
                                       {&EightStats::f6, "alloc.f6"},
                                       {&EightStats::f7, "alloc.f7"}});
}

TEST(ObsRegistryAllocation, BindingOnFreshRoutersIsAllocationLight) {
  Registry reg;
  (void)bind_eight(reg, Entity::router(0));  // interns the eight names
  constexpr std::uint32_t kRouters = 10'000;
  const std::uint64_t before = test::allocation_count();
  for (std::uint32_t id = 1; id <= kRouters; ++id) {
    ++bind_eight(reg, Entity::router(id))->f7;
  }
  const std::uint64_t allocations = test::allocation_count() - before;
  EXPECT_LT(static_cast<double>(allocations) / kRouters, 0.1)
      << allocations << " allocations for " << kRouters << " binds";
  EXPECT_EQ(reg.size(), 8u * (kRouters + 1));
  EXPECT_EQ(reg.sum("alloc.f7"), kRouters);
}

TEST(ObsRegistryAllocation, AnEntityCostsItsEntriesNotItsId) {
  // Anonymous ids are process-global and unbounded: storage indexed by
  // raw id would cost megabytes here. The fresh registry pays for the
  // names, one slot per row and the first arena chunk.
  for (const std::uint32_t id : {1'000'000u, 4'000'000'000u}) {
    Registry reg;
    const std::uint64_t before = test::allocated_bytes();
    bind_eight(reg, Entity{EntityKind::kAnon, id})->f0 = 3;
    const std::uint64_t bytes = test::allocated_bytes() - before;
    EXPECT_LT(bytes, 4096u) << "anon:" << id;
    EXPECT_EQ(reg.value("alloc.f0", Entity{EntityKind::kAnon, id}), 3u);
  }
}

}  // namespace
}  // namespace express::obs
