// simlint fixture: the two sanctioned suspend_to idioms — a named-lvalue
// awaiter for owning captures, and direct awaits for trivially-destructible
// ones. NOT compiled — pattern food for tools/simlint --self-test.
#include <memory>

#include "sim/task.h"

namespace fixture {

struct State {
  std::coroutine_handle<> waiter;
};

cm::sim::Task<> good_named_lvalue(std::shared_ptr<State> st) {
  // Owning capture, but the awaiter is a named local: destroyed once.
  auto arm_and_wait = cm::sim::suspend_to([st](std::coroutine_handle<> h) {
    st->waiter = h;
  });
  co_await arm_and_wait;
}

cm::sim::Task<> good_trivial_captures(State* st, int cost) {
  // Raw pointer + int captures: trivially destructible, the double-destroy
  // is harmless, and the direct await is the tree's common idiom.
  co_await cm::sim::suspend_to([st, cost](std::coroutine_handle<> h) {
    st->waiter = h;
  });
}

cm::sim::Task<> good_by_reference(std::shared_ptr<State>& st) {
  // By-reference capture of an owning type: the lambda holds a reference,
  // not the object, so no destructor runs in the awaiter at all.
  co_await cm::sim::suspend_to([&st](std::coroutine_handle<> h) {
    st->waiter = h;
  });
}

}  // namespace fixture
