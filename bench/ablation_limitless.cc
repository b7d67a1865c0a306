// LimitLESS directory ablation. The paper's target machine "uses the same
// cache coherence protocol that Alewife does [CKA91]" — LimitLESS limited
// directories: a few hardware sharer pointers per line, with overflow
// handled by software traps on the home node's CPU. The reproduction
// benches run the full-map configuration (hardware handles everything);
// this ablation shows how shared memory's advantage erodes as the pointer
// budget shrinks and widely-shared lines (the B-tree's upper levels, the
// balancer wiring) start trapping — while the message-passing mechanisms
// are unaffected by construction.
#include <cstdio>

#include "apps/workload.h"

#include "bench_util.h"

using namespace cm;
using core::Mechanism;
using core::Scheme;

int main(int argc, char** argv) {
  cm::bench::maybe_usage(argc, argv, "",
                         "LimitLESS directory ablation: shared-memory schemes "
                         "vs hardware sharer-pointer count.");

  std::printf("LimitLESS directory ablation (SM scheme; message-passing "
              "schemes shown for reference)\n");

  std::printf("\nDistributed B-tree, 16 requesters, think 0:\n");
  std::printf("%-22s %12s\n", "directory", "thr/1000cy");
  for (unsigned ptrs : {0u, 8u, 4u, 2u, 1u}) {
    apps::BTreeConfig cfg;
    cfg.scheme = Scheme{Mechanism::kSharedMemory, false, false};
    cfg.limitless_pointers = ptrs;
    cfg.window = apps::Window{20'000, 150'000};
    const auto r = run_btree(cfg);
    if (ptrs == 0) {
      std::printf("%-22s %12.3f\n", "full-map (hardware)",
                  r.throughput_per_1000());
    } else {
      std::printf("LimitLESS, %2u ptrs     %12.3f\n", ptrs,
                  r.throughput_per_1000());
    }
  }
  {
    apps::BTreeConfig cfg;
    cfg.scheme = Scheme{Mechanism::kMigration, true, true};
    cfg.window = apps::Window{20'000, 150'000};
    const auto r = run_btree(cfg);
    std::printf("%-22s %12.3f\n", "(CP w/repl.&HW)", r.throughput_per_1000());
  }

  std::printf("\nCounting network, 32 requesters, think 0:\n");
  std::printf("%-22s %12s\n", "directory", "thr/1000cy");
  for (unsigned ptrs : {0u, 8u, 4u, 2u, 1u}) {
    apps::CountingConfig cfg;
    cfg.scheme = Scheme{Mechanism::kSharedMemory, false, false};
    cfg.limitless_pointers = ptrs;
    cfg.requesters = 32;
    cfg.window = apps::Window{20'000, 150'000};
    const auto r = run_counting(cfg);
    if (ptrs == 0) {
      std::printf("%-22s %12.3f\n", "full-map (hardware)",
                  r.throughput_per_1000());
    } else {
      std::printf("LimitLESS, %2u ptrs     %12.3f\n", ptrs,
                  r.throughput_per_1000());
    }
  }
  {
    apps::CountingConfig cfg;
    cfg.scheme = Scheme{Mechanism::kMigration, true, false};
    cfg.requesters = 32;
    cfg.window = apps::Window{20'000, 150'000};
    const auto r = run_counting(cfg);
    std::printf("%-22s %12.3f\n", "(CP w/HW)", r.throughput_per_1000());
  }

  std::printf(
      "\nShape: shrinking the hardware pointer budget costs shared memory\n"
      "throughput on read-shared data (B-tree upper levels, balancer\n"
      "wiring); the write-shared lock/toggle lines rarely have more than a\n"
      "couple of sharers, so the counting network degrades more gently.\n");
  return 0;
}
