// simlint fixture: an awaited send whose delivery is a resume event. The
// awaiter hands the suspended caller's handle to `send_resume`, and the
// network resumes it at the arrival time: the caller observes completion,
// so SS002 must not flag it. NOT compiled.
#include <coroutine>

namespace fixture {

struct Network {
  void send_resume(unsigned src, unsigned dst, unsigned words, int kind,
                   std::coroutine_handle<> h);
};

struct Runtime {
  Network* network_ = nullptr;

  // The awaiter of one message, kept in the suspended caller's frame.
  struct Transfer {
    Runtime* rt;
    unsigned src;
    unsigned dst;
    unsigned words;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> caller) {
      rt->network_->send_resume(src, dst, words, 0, caller);
    }
    void await_resume() const noexcept {}
  };

  Transfer transfer(unsigned src, unsigned dst, unsigned words) {
    return Transfer{this, src, dst, words};
  }
};

struct Coherence {
  Network* network_ = nullptr;

  void good_resume_delivery(unsigned src, unsigned dst,
                            std::coroutine_handle<> h) {
    network_->send_resume(src, dst, 4, 1, h);
  }
};

}  // namespace fixture
