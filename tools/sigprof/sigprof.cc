// SIGPROF sampler, loaded into any program of this repo with LD_PRELOAD.
//
// While the program runs, ITIMER_PROF interrupts it every 4 ms of CPU time
// (the kernel rounds the interval up to its tick) and the handler records
// the interrupted program counter. At exit the library writes
// `sigprof.<pid>.out` to the working directory: a header, one
// `<hex pc> <count>` line per distinct pc, and a copy of /proc/self/maps,
// from which tools/profile_report maps each pc to a binary and an address
// addr2line understands. The header's `rusage` line holds the process's
// user and system CPU time and its minor page faults (getrusage), which
// tell time the kernel spent faulting pages in from time spent in code.
//
//   LD_PRELOAD=build/tools/libcm_sigprof.so build/examples/mobile_objects
//   python3 tools/profile_report sigprof.*.out
//
// The handler only stores into a static array, so it is async-signal-safe;
// samples past the array's end are counted as dropped. A program that exits
// through _exit or a fatal signal writes nothing.
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>

namespace {

constexpr long kIntervalUs = 4'000;
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;  // 70 min at 4 ms

// Zero pages until a sample lands in them.
std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_taken{0};

std::uintptr_t interrupted_pc(const void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "sigprof: no program counter for this architecture"
#endif
}

void on_sigprof(int, siginfo_t*, void* context) {
  const std::size_t i = g_taken.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) g_pcs[i] = interrupted_pc(context);
}

[[gnu::constructor]] void start_sampling() {
  struct sigaction sa = {};
  sa.sa_sigaction = &on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return;
  itimerval every{};
  every.it_interval.tv_usec = kIntervalUs;
  every.it_value.tv_usec = kIntervalUs;
  setitimer(ITIMER_PROF, &every, nullptr);
}

void copy_maps(std::FILE* out) {
  std::FILE* maps = std::fopen("/proc/self/maps", "r");
  if (maps == nullptr) return;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, maps)) > 0) {
    std::fwrite(buf, 1, n, out);
  }
  std::fclose(maps);
}

[[gnu::destructor]] void write_samples() {
  const itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  const std::size_t taken = g_taken.load(std::memory_order_relaxed);
  const std::size_t kept = std::min(taken, kMaxSamples);
  std::sort(g_pcs, g_pcs + kept);

  const long pid = getpid();
  char path[64];
  std::snprintf(path, sizeof path, "sigprof.%ld.out", pid);
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) return;
  std::fprintf(out, "# sigprof 1\ninterval_us %ld\n", kIntervalUs);
  std::fprintf(out, "samples %zu\ndropped %zu\n", kept, taken - kept);
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    const auto us = [](const timeval& t) {
      return static_cast<long long>(t.tv_sec) * 1'000'000 + t.tv_usec;
    };
    std::fprintf(out, "rusage utime_us %lld stime_us %lld minflt %ld\n",
                 us(ru.ru_utime), us(ru.ru_stime), ru.ru_minflt);
  }
  for (std::size_t i = 0; i < kept;) {
    std::size_t j = i;
    while (j < kept && g_pcs[j] == g_pcs[i]) ++j;
    const auto pc = static_cast<unsigned long>(g_pcs[i]);
    std::fprintf(out, "%lx %zu\n", pc, j - i);
    i = j;
  }
  std::fprintf(out, "maps\n");
  copy_maps(out);
  std::fclose(out);
}

}  // namespace
