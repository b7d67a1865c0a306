// Figure 3: network bandwidth consumed by the counting network (words sent
// per 10 cycles) vs. number of requesters, for RPC, shared memory, and
// computation migration, at both think times.
#include <cstdio>

#include "apps/workload.h"

#include "bench_util.h"

using cm::apps::CountingConfig;
using cm::apps::RunStats;
using cm::apps::Window;
using cm::core::Mechanism;
using cm::core::Scheme;

namespace {

const Scheme kSeries[] = {
    {Mechanism::kRpc, false, false},
    {Mechanism::kSharedMemory, false, false},
    {Mechanism::kMigration, false, false},
};

void run_panel(cm::sim::Cycles think) {
  std::printf("\n-- think time %llu cycles --\n",
              static_cast<unsigned long long>(think));
  std::printf("%-10s", "threads");
  for (const Scheme& s : kSeries) std::printf("%18s", s.name().c_str());
  std::printf("%18s\n", "CP words/op");
  for (unsigned n = 8; n <= 64; n += 8) {
    std::printf("%-10u", n);
    double cp_per_op = 0;
    for (const Scheme& s : kSeries) {
      CountingConfig cfg;
      cfg.scheme = s;
      cfg.requesters = n;
      cfg.think = think;
      cfg.window = Window{30'000, 200'000};
      const RunStats r = run_counting(cfg);
      std::printf("%18.3f", r.words_per_10());
      if (s.mechanism == Mechanism::kMigration && r.ops > 0) {
        cp_per_op = static_cast<double>(r.words) / static_cast<double>(r.ops);
      }
    }
    std::printf("%18.1f\n", cp_per_op);
  }
}

}  // namespace

int main(int argc, char** argv) {
  cm::bench::maybe_usage(argc, argv, "",
                         "Figure 3: counting-network bandwidth (words/10 "
                         "cycles) vs requesters for SM/CP/RPC at both think "
                         "times.");

  std::printf(
      "Figure 3: counting-network bandwidth (words sent / 10 cycles)\n");
  run_panel(10'000);
  run_panel(0);
  std::printf(
      "\nPaper shape: shared memory consumes by far the most bandwidth under\n"
      "high contention (coherence/invalidation storms on the write-shared\n"
      "balancers); per operation, computation migration moves the fewest\n"
      "words of all three mechanisms.\n");
  return 0;
}
