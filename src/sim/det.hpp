// Deterministic iteration over hash containers.
//
// The simulator's value as a reproduction substrate rests on bit-for-bit
// deterministic replay (DESIGN.md §7): any loop whose body emits packets,
// mutates protocol state, or appends to an ordered result must not run in
// std::unordered_* iteration order, which is a function of the hash seed,
// the library implementation, and the container's insertion/rehash
// history. These helpers snapshot a hash container's elements and yield
// them in ascending key order, turning an order-sensitive loop into a
// deterministic one at the cost of one O(n log n) sort — acceptable off
// the per-packet fast path, where all such effectful sweeps live.
//
// scripts/lint.sh (check: unordered-effectful-loop) flags direct
// effectful iteration; the fix is either one of these helpers or a
// `// lint: order-independent (reason)` annotation proving commutativity.
#pragma once

#include <algorithm>
#include <vector>

namespace express::det {

/// Pointers to a map's (key, value) pairs, sorted by ascending key.
/// The pointers stay valid across inserts/erases of *other* elements
/// (node-based containers), so the usual erase-current patterns work:
///
///   for (auto* kv : det::sorted_items(channels_)) {
///     auto& [channel, state] = *kv;  // deterministic order
///     ...
///   }
template <typename Map>
[[nodiscard]] std::vector<typename Map::value_type*> sorted_items(Map& map) {
  std::vector<typename Map::value_type*> items;
  items.reserve(map.size());
  for (auto& kv : map) items.push_back(&kv);  // lint: order-independent (sorted below)
  std::sort(items.begin(), items.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return items;
}

/// The same snapshot written into a caller-owned buffer (its previous
/// contents are discarded), so a sweep over many maps reuses one
/// allocation instead of making one per map.
template <typename Map>
void sorted_items_into(const Map& map,
                       std::vector<const typename Map::value_type*>& items) {
  items.clear();
  items.reserve(map.size());
  for (const auto& kv : map) items.push_back(&kv);  // lint: order-independent (sorted below)
  std::sort(items.begin(), items.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
}

template <typename Map>
[[nodiscard]] std::vector<const typename Map::value_type*> sorted_items(
    const Map& map) {
  std::vector<const typename Map::value_type*> items;
  sorted_items_into(map, items);
  return items;
}

/// A set's (or map's) keys, copied and sorted ascending. Use when the
/// loop erases arbitrary elements of the container it iterates.
template <typename Container>
[[nodiscard]] std::vector<typename Container::key_type> sorted_keys(
    const Container& container) {
  std::vector<typename Container::key_type> keys;
  keys.reserve(container.size());
  for (const auto& element : container) {  // lint: order-independent (sorted below)
    if constexpr (requires { element.first; }) {
      keys.push_back(element.first);
    } else {
      keys.push_back(element);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace express::det
