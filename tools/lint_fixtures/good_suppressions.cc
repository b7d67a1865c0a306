// simlint fixture: the suppression machinery. A `// simlint: allow RULE`
// directive silences exactly that rule on exactly one line (trailing form:
// its own line; standalone-comment form: the next line); and a directive
// never bleeds onto other lines or other rules. NOT compiled.
#include <cstdint>
#include <cstdlib>

namespace fixture {

unsigned trailing_form_silences_ds002() {
  return static_cast<unsigned>(rand());  // simlint: allow DS002
}

unsigned standalone_form_silences_next_line() {
  // simlint: allow DS002 (justification prose may follow the rule ids)
  return static_cast<unsigned>(rand());
}

unsigned directive_does_not_bleed_to_later_lines() {
  unsigned a = 1;  // simlint: allow DS002 (nothing to silence here)
  a += static_cast<unsigned>(rand());  // EXPECT-LINT: DS002
  return a;
}

std::uint64_t wrong_rule_id_silences_nothing() {
  // EXPECT-LINT: SS001 (the next line's allow names another rule)
  static std::uint64_t calls = 0;  // simlint: allow DS002
  return ++calls;
}

}  // namespace fixture
