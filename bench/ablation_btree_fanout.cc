// §4.2 branching-factor ablation: with nodes constrained to at most 10
// entries (instead of 100) the level below the root widens and individual
// node visits get cheaper, relieving the sub-root resource contention that
// limits computation migration w/ replication. In the paper its throughput
// closes most of the gap to shared memory (2.076 vs 2.427 ops/1000
// cycles); here both schemes gain, and the gap widens slightly.
#include <cstdio>

#include "apps/workload.h"

#include "bench_util.h"

using cm::apps::BTreeConfig;
using cm::apps::RunStats;
using cm::apps::Window;
using cm::core::Mechanism;
using cm::core::Scheme;

int main(int argc, char** argv) {
  cm::bench::maybe_usage(argc, argv, "",
                         "Branching-factor ablation (sec 4.2): B-tree schemes "
                         "with node fanout capped at 10 vs 100.");

  std::printf("B-tree branching-factor ablation (0 think time)\n");
  std::printf("%-10s %-18s %12s %14s\n", "branching", "Scheme", "thr/1000cy",
              "bw words/10cy");
  double thr[2][2] = {};
  const Scheme schemes[] = {
      {Mechanism::kSharedMemory, false, false},
      {Mechanism::kMigration, false, true},
  };
  int fi = 0;
  for (unsigned fanout : {100u, 10u}) {
    int si = 0;
    for (const Scheme& s : schemes) {
      BTreeConfig cfg;
      cfg.scheme = s;
      cfg.max_entries = fanout;
      cfg.window = Window{30'000, 250'000};
      const RunStats r = run_btree(cfg);
      thr[fi][si] = r.throughput_per_1000();
      std::printf("%-10u %-18s %12.4f %14.2f\n", fanout, s.name().c_str(),
                  r.throughput_per_1000(), r.words_per_10());
      ++si;
    }
    ++fi;
  }
  std::printf("\nCP w/repl. gain from narrower nodes: %.2fx (paper: %.2fx)\n",
              thr[1][1] / thr[0][1], 2.076 / 1.155);
  std::printf("SM : CP w/repl. ratio at branching 10: %.2f (paper: %.2f)\n",
              thr[1][0] / thr[1][1], 2.427 / 2.076);
  return 0;
}
