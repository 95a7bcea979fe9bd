// Lint fixture: MUST trip `unordered-effectful-loop` exactly once.
//
// Two classes each declare a member `sg_`: one a hash map, one an
// ordered std::map. A container name resolves in its declaring class,
// so only the loop over the hash map is flagged; the other class's
// loop, defined out of line, is the positive control. Never compiled;
// consumed by `scripts/lint.sh --self-test`.
#include <map>
#include <unordered_map>

struct Net {
  void send_to(int neighbor);
};

class SparseRouter {
 public:
  void prune_all() {
    for (const auto& [group, state] : sg_) {
      net_.send_to(state);  // emission order leaks hash order
    }
  }

 private:
  std::unordered_map<int, int> sg_;
  Net net_;
};

class DenseRouter {
 public:
  void graft_all();

 private:
  std::map<int, int> sg_;
  Net net_;
};

void DenseRouter::graft_all() {
  // Positive control: this class's `sg_` is ordered, so an effectful
  // loop over it must NOT be flagged.
  for (const auto& [group, state] : sg_) {
    net_.send_to(state);
  }
}
