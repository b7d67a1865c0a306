// simlint fixture: event callbacks that stay on their own engine — the
// common, correct shapes CL003 must not flag. NOT compiled.
#include <cstdint>

namespace fixture {

struct Engine {
  template <class F>
  void at(std::uint64_t, F&&);
  template <class F>
  void at_on(unsigned, std::uint64_t, F&&);
  std::uint64_t now() const;
};

struct Stats {
  std::uint64_t words = 0;
};

// Rescheduling into the same engine is the bread-and-butter event shape.
void good_same_engine_reschedule(Engine& eng) {
  eng.at(100, [&eng] { eng.at(200, [] {}); });
}

// A second engine elsewhere in the function is fine as long as the
// callback never touches it.
void good_other_engine_untouched(Engine& eng, Engine& other) {
  other.at(50, [] {});
  eng.at_on(2, 100, [&eng] { (void)eng.now(); });
}

// Non-engine captures (stats slots, plain data) are never CL003 business.
void good_plain_captures(Engine& eng, Stats& sc) {
  eng.at_on(1, 100, [&sc] { sc.words++; });
}

}  // namespace fixture
