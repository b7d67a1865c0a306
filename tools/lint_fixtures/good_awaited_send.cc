// simlint fixture: the send shapes SS002 must not flag — a send whose wake
// is the handle of the coroutine suspending on it (an awaited send: the
// caller observes completion), and sends routed through the reliable
// transport. NOT compiled.
#include <coroutine>

namespace fixture {

struct Wake {
  Wake(std::coroutine_handle<> h);
};

struct Network {
  void send(unsigned src, unsigned dst, unsigned words, int kind, Wake w);
};

struct Reliable {
  void* send(unsigned src, unsigned dst, unsigned words, unsigned budget);
};

struct Transport {
  Network* network_ = nullptr;
  Reliable* reliable_ = nullptr;

  void* good_awaited_delivery(unsigned src, unsigned dst, unsigned total);

  void* good_reliable_path(unsigned src, unsigned dst, unsigned words) {
    // The transport owns retransmission, dedup and acks.
    return reliable_->send(src, dst, words, /*budget=*/0);
  }
};

template <class F>
void* suspend_to(F f);

void* Transport::good_awaited_delivery(unsigned src, unsigned dst,
                                       unsigned total) {
  // The sender suspends until the network wakes it: a drop cannot strand
  // silently because the reliable layer above this one is what decides to
  // use the raw path (fault-free runs only).
  return suspend_to([this, src, dst, total](std::coroutine_handle<> h) {
    network_->send(src, dst, total, 0, h);
  });
}

}  // namespace fixture
