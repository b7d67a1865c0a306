// simlint fixture: the correct lock shapes CL004 must not flag — a guard
// whose scope closes before the suspension, host-only functions with no
// co_await at all (the engine's inbox pattern), and the simulator's own
// awaitable sim::AsyncMutex. NOT compiled.
#include <mutex>

namespace fixture {

struct Channel {
  std::mutex mu;
  int backlog = 0;
};

struct AsyncMutex {
  void* lock();
  void unlock();
};

void* await_something();

void good_scope_closes_before_await(Channel& ch) {
  {
    const std::lock_guard<std::mutex> g(ch.mu);
    ch.backlog++;
  }
  co_await await_something();
}

// A host function takes a lock with no coroutine in sight; plain host
// functions are never CL004 business.
void good_host_only_function(Channel& ch) {
  const std::lock_guard<std::mutex> g(ch.mu);
  ch.backlog++;
}

// sim::AsyncMutex is designed to be held across suspensions: it parks the
// activation, not a host thread.
void good_async_mutex(AsyncMutex& m, Channel& ch) {
  co_await m.lock();
  ch.backlog++;
  m.unlock();
}

}  // namespace fixture
