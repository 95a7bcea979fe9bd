// Lint fixture: MUST trip `unordered-effectful-loop`.
//
// Iterating a hash map while emitting messages makes the packet trace
// depend on the hash seed and insertion history — the exact bug class
// behind PR 3's flush_all fix. Never compiled; consumed by
// `scripts/lint.sh --self-test`.
#include <map>
#include <unordered_map>

struct Net {
  void send_to(int neighbor);
};

struct Router {
  std::unordered_map<int, int> peers_;
  std::map<int, int> sessions_;
  Net net_;

  void announce_all() {
    for (const auto& [peer, state] : peers_) {
      net_.send_to(peer);  // emission order leaks hash order
    }
  }

  void reannounce_all() {
    // Positive control: an ordered container carries its own order, so
    // an effectful loop over it must NOT be flagged.
    for (const auto& [peer, state] : sessions_) {
      net_.send_to(peer);
    }
  }
};
