// simlint fixture: the GCC 12.2 prvalue-awaiter double-destroy hazard.
// NOT compiled — pattern food for tools/simlint --self-test.
#include <memory>

#include "sim/task.h"

namespace fixture {

struct State {
  std::coroutine_handle<> waiter;
};

cm::sim::Task<> bad_shared_ptr_capture(std::shared_ptr<State> st) {
  // The lambda copies a shared_ptr into a prvalue awaiter: its destructor
  // runs twice under GCC 12.2 and the refcount goes wrong silently.
  // EXPECT-LINT: CL001 (the next line)
  co_await cm::sim::suspend_to([st](std::coroutine_handle<> h) {
    st->waiter = h;
  });
}

cm::sim::Task<> bad_init_capture() {
  auto st = std::make_shared<State>();
  co_await cm::sim::suspend_to(  // EXPECT-LINT: CL001
      [keep = std::make_shared<State>()](std::coroutine_handle<> h) {
        keep->waiter = h;
      });
  co_return;
}

}  // namespace fixture
