// simlint fixture: mutable static-storage state — shared by every
// simulation in the process, so one run's history leaks into the next.
// NOT compiled.
#include <cstdint>
#include <vector>

namespace fixture {

static std::uint64_t g_event_count = 0;  // EXPECT-LINT: SS001

static std::vector<int> g_audit_log;  // EXPECT-LINT: SS001

struct Dispatcher {
  // A static member is one instance shared by every engine's dispatcher.
  inline static unsigned next_ticket_ = 0;  // EXPECT-LINT: SS001
};

std::uint64_t bad_function_local_counter() {
  static std::uint64_t calls = 0;  // EXPECT-LINT: SS001
  return ++calls;
}

unsigned bad_thread_local_cache() {
  // thread_local is per-host-thread, which makes results depend on which
  // thread ran the simulation.
  thread_local unsigned last_hit = 0;  // EXPECT-LINT: SS001
  return ++last_hit;
}

}  // namespace fixture
