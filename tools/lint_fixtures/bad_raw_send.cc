// simlint fixture: raw fire-and-forget Network sends in reliability paths.
// NOT compiled. Each send wakes a Continuation that no suspended sender
// awaits, and nothing retransmits, acks or excuses the message, so a single
// drop under a FaultPlan strands whoever is gated on its effect — the
// Replicated::invalidate_all bug class.
#include <coroutine>

namespace fixture {

struct Continuation {
  void (*run)(Continuation*) = nullptr;
};

struct Wake {
  Wake(Continuation* c);
  Wake(std::coroutine_handle<> h);
};

struct Network {
  void send(unsigned src, unsigned dst, unsigned words, int kind, Wake w);
};

/// Counts arrivals; its run step calls arrive().
struct Barrier : Continuation {
  int remaining = 0;
  void arrive();
};

struct Invalidator {
  Network* network_ = nullptr;
  Barrier barrier_;
  Continuation notice_;

  void bad_fire_and_forget_invalidate(unsigned from, unsigned to) {
    // The barrier waits for this message's effect, but a dropped copy
    // never arrives and nothing retries: the writer hangs forever.
    network_->send(from, to, 4, 0, &barrier_);  // EXPECT-LINT: SS002
  }

  void bad_unacked_notification(unsigned from, unsigned to,
                                std::coroutine_handle<> h) {
    // A handle is in scope, but the send wakes something else.
    (void)h;
    network_->send(from, to, 2, 0, &notice_);  // EXPECT-LINT: SS002
  }
};

}  // namespace fixture
