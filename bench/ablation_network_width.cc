// Counting-network width scalability. The paper motivates counting
// networks as "trading latency under low-contention conditions for much
// higher scalability of throughput" [AHS91]. Wider networks have more
// balancers per stage (more parallelism) but more stages (more hops per
// request). We sweep the width under computation migration and shared
// memory at fixed offered load.
#include <cstdio>

#include "apps/workload.h"

#include "bench_util.h"

using namespace cm;
using core::Mechanism;
using core::Scheme;

int main(int argc, char** argv) {
  cm::bench::maybe_usage(argc, argv, "",
                         "Counting-network width scalability: throughput vs "
                         "network width per mechanism.");

  std::printf("Counting-network width sweep, 48 requesters, think 0\n\n");
  std::printf("%-7s %-9s %-7s | %12s %12s\n", "width", "balancers", "depth",
              "CP thr", "SM thr");
  for (const unsigned width : {2u, 4u, 8u, 16u}) {
    double thr[2] = {0, 0};
    int i = 0;
    for (const Mechanism m :
         {Mechanism::kMigration, Mechanism::kSharedMemory}) {
      apps::CountingConfig cfg;
      cfg.scheme = Scheme{m, false, false};
      cfg.width = width;
      cfg.requesters = 48;
      cfg.window = apps::Window{20'000, 150'000};
      thr[i++] = run_counting(cfg).throughput_per_1000();
    }
    unsigned lg = 0;
    while ((1u << lg) < width) ++lg;
    const unsigned depth = lg * (lg + 1) / 2;
    std::printf("%-7u %-9u %-7u | %12.3f %12.3f\n", width,
                (width / 2) * depth, depth, thr[0], thr[1]);
  }
  std::printf(
      "\nShape: very narrow networks serialise on a handful of balancers;\n"
      "widening adds parallel balancers faster than it adds hop latency,\n"
      "until the fixed requester population can no longer fill the deeper\n"
      "pipeline — the AHS latency-for-throughput trade.\n");
  return 0;
}
