// simlint fixture: host lock guards held across a co_await suspension.
// NOT compiled — pattern food for tools/simlint --self-test. A std::mutex
// guard that survives the suspension stays locked while the engine runs
// other events, and any of them that takes the mutex deadlocks the one
// event loop.
#include <mutex>

namespace fixture {

struct Channel {
  std::mutex mu;
  int backlog = 0;
};

void* await_something();

void bad_guard_across_await(Channel& ch) {
  const std::lock_guard<std::mutex> g(ch.mu);
  ch.backlog++;
  co_await await_something();  // EXPECT-LINT: CL004
}

void bad_unique_lock_in_nested_scope(Channel& ch) {
  {
    std::unique_lock<std::mutex> hold(ch.mu);
    ch.backlog++;
    co_await await_something();  // EXPECT-LINT: CL004
  }
}

}  // namespace fixture
