// Lint fixture: MUST trip `unordered-effectful-loop` on a FlatFib.
//
// FlatFib::entries() exposes the open-addressed table order. It is
// deterministic, but it is a function of the entire upsert/erase
// history (swap-remove + backward-shift deletion reshuffle positions),
// so emitting messages in that order is the same replay hazard as
// iterating an unordered_map. Never compiled; consumed by
// `scripts/lint.sh --self-test`.

struct FlatFib;

struct Control {
  void send_refresh(int channel);
};

struct Router {
  FlatFib& fib();
  Control control_;

  void refresh_all() {
    for (const auto& entry : fib().entries()) {
      control_.send_refresh(entry.first);  // emission order leaks table order
    }
  }

  void audit_all() {
    // Positive control: an effectful loop that argues its order away
    // is sanctioned, and must NOT be flagged.
    // lint: order-independent (refreshes are idempotent and commute)
    for (const auto& entry : fib().entries()) {
      control_.send_refresh(entry.first);
    }
  }
};
