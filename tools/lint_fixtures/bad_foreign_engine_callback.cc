// simlint fixture: event callbacks that touch an Engine other than the
// one they are scheduled on. NOT compiled — pattern food for the
// --self-test. Two engines are two independent simulations: a callback
// running on one reads and schedules against the other's clock, which
// is not its own.
#include <cstdint>

namespace fixture {

struct Engine {
  void at(std::uint64_t, void (*)());
  template <class F>
  void at(std::uint64_t, F&&);
  template <class F>
  void at_on(unsigned, std::uint64_t, F&&);
};

void bad_schedules_into_other_engine(Engine& eng, Engine& replica) {
  eng.at(100, [&replica] {  // EXPECT-LINT: CL003
    replica.at(200, [] {});
  });
}

void bad_homed_callback_reads_other_engine(Engine& primary, Engine& shadow) {
  primary.at_on(3, 500, [&] {  // EXPECT-LINT: CL003
    shadow.at_on(3, 600, [] {});
  });
}

}  // namespace fixture
