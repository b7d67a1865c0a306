// The sampler's smoke-test program: spends about 0.3 s of CPU time in one
// named function, so that a profile of it must put most samples there
// (tools/profile_report --self-test).
#include <cstdint>
#include <cstdio>
#include <ctime>

namespace {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

[[gnu::noinline]] std::uint64_t spin_for_profile(double seconds) {
  const double end = cpu_seconds() + seconds;
  std::uint64_t x = 1;
  do {
    for (int i = 0; i < 100'000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
  } while (cpu_seconds() < end);
  return x;
}

int main() {
  const std::uint64_t x = spin_for_profile(0.3);
  std::printf("%llx\n", static_cast<unsigned long long>(x));
}
