// Write-sharing ablation. §2.2: "data migration in the form of
// cache-coherent shared memory performs poorly for write-shared data
// because of the communication involved in maintaining consistency", and
// §2.5: "if the data is write-shared between many threads, computation
// migration will almost always perform better than data migration".
//
// We sweep the B-tree insert ratio from a read-only workload to an
// update-only one and watch shared memory's throughput advantage over
// computation migration erode while its bandwidth bill explodes.
#include <cstdio>

#include "apps/workload.h"

#include "bench_util.h"

using namespace cm;
using core::Mechanism;
using core::Scheme;

int main(int argc, char** argv) {
  cm::bench::maybe_usage(argc, argv, "",
                         "Write-sharing ablation: per-mechanism sensitivity to "
                         "the fraction of writes.");

  std::printf("B-tree insert-ratio sweep, 16 requesters, think 0\n\n");
  std::printf("%-8s | %12s %14s | %12s %14s | %8s\n", "inserts",
              "SM thr", "SM bw w/10cy", "CP+r thr", "CP+r bw", "SM/CP");
  for (const double ratio : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    apps::BTreeConfig cfg;
    cfg.insert_ratio = ratio;
    cfg.window = apps::Window{20'000, 200'000};

    cfg.scheme = Scheme{Mechanism::kSharedMemory, false, false};
    const auto sm = run_btree(cfg);
    cfg.scheme = Scheme{Mechanism::kMigration, false, true};
    const auto cp = run_btree(cfg);

    std::printf("%-8.2f | %12.3f %14.2f | %12.3f %14.2f | %8.2f\n", ratio,
                sm.throughput_per_1000(), sm.words_per_10(),
                cp.throughput_per_1000(), cp.words_per_10(),
                sm.throughput_per_1000() / cp.throughput_per_1000());
  }

  std::printf("\nCounting network: every access writes (balancers are "
              "write-shared by construction);\nfor contrast, a read-mostly "
              "structure is emulated by the B-tree at inserts=0.\n");
  std::printf(
      "\nShape: shared memory's edge comes from replicating read-shared\n"
      "data; as the write fraction grows, invalidations eat the benefit\n"
      "and the SM/CP ratio falls, while SM's bandwidth stays an order of\n"
      "magnitude above CP's.\n");
  return 0;
}
