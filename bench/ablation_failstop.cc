// Fail-stop ablation: the counting network and the B-tree run a fixed
// amount of work while 0, 1, 2 or 4 processors fail-stop mid-run at
// staggered times. The ft layer detects each death by lease expiry,
// cancels sends into the void, and re-homes the dead processors' objects
// from simulated backups — so every row of a workload/mechanism pair
// reports exactly the same application result, and what varies is
// availability: throughput relative to the crash-free run, plus the
// detection and recovery latencies behind it. A final row runs the
// no-recovery mode (`rehome_unreplicated = false`) to show the graceful
// degradation path: condemned objects cost operations, not hangs.
//
// Output: a human-readable table on stdout plus a JSON dump in the unified
// metrics schema (default ablation_failstop.json, or the path given as
// argv[1]) carrying the full ft counters for downstream tooling.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/workload.h"
#include "core/metrics.h"

#include "bench_util.h"

using namespace cm;
using core::Mechanism;
using core::Scheme;

namespace {

constexpr unsigned kCrashCounts[] = {0, 1, 2, 4};

// Victims are pairwise non-adjacent on the monitor ring (ft.cc kMonitors), so
// simultaneous deaths never falsely expire a live processor's lease.
// Counting: balancer processors (procs 0..23 at width 8; requesters on
// 24..39). B-tree: node processors that host nodes under seed 1
// (requesters on 48+).
constexpr sim::ProcId kCountingVictims[] = {2, 9, 14, 19};
constexpr sim::Cycles kCountingTimes[] = {10'000, 25'000, 40'000, 55'000};
constexpr sim::ProcId kBTreeVictims[] = {18, 47, 24, 44};
constexpr sim::Cycles kBTreeTimes[] = {15'000, 45'000, 75'000, 105'000};

net::FaultPlan crash_plan(unsigned crashes, const sim::ProcId* victims,
                          const sim::Cycles* times) {
  net::FaultPlan plan;
  for (unsigned i = 0; i < crashes; ++i) {
    plan.nic_fail_at[victims[i]] = times[i];
  }
  return plan;
}

ft::FtConfig ft_on() {
  ft::FtConfig cfg;
  cfg.enabled = true;
  return cfg;
}

struct Row {
  const char* workload;
  const char* mechanism;
  const char* mode;  // "off", "rehome" or "lost"
  unsigned crashes;
  apps::RunStats r;
};

apps::RunStats counting_at(Mechanism mech, unsigned crashes, bool ft,
                           bool rehome = true) {
  apps::CountingConfig cfg;
  cfg.scheme = Scheme{mech, false, false};
  cfg.requesters = 16;
  cfg.ops_per_requester = 50;
  cfg.faults = crash_plan(crashes, kCountingVictims, kCountingTimes);
  if (ft) {
    cfg.ft = ft_on();
    cfg.ft.rehome_unreplicated = rehome;
  }
  return run_counting(cfg);
}

apps::RunStats btree_at(Mechanism mech, unsigned crashes, bool ft) {
  apps::BTreeConfig cfg;
  cfg.scheme = Scheme{mech, false, false};
  cfg.requesters = 8;
  cfg.nkeys = 1000;
  cfg.max_entries = 20;
  cfg.ops_per_requester = 50;
  cfg.faults = crash_plan(crashes, kBTreeVictims, kBTreeTimes);
  if (ft) cfg.ft = ft_on();
  return run_btree(cfg);
}

double fixed_work_throughput(const apps::RunStats& r) {
  return r.completed_at == 0
             ? 0.0
             : static_cast<double>(r.ops) * 1000.0 /
                   static_cast<double>(r.completed_at);
}

void print_table(const std::vector<Row>& rows) {
  // Availability = throughput / the same pair's crash-free ft-on throughput.
  std::printf("%-9s %-5s %-7s %3s %10s %7s %6s %10s %10s %5s %5s %10s\n",
              "workload", "mech", "mode", "n", "completed", "thr", "avail",
              "detect_cy", "rehome_cy", "rec", "lost", "result");
  for (const Row& row : rows) {
    double base = 0.0;
    for (const Row& other : rows) {
      if (other.workload == row.workload &&
          other.mechanism == row.mechanism && other.crashes == 0 &&
          std::string(other.mode) == "rehome") {
        base = fixed_work_throughput(other.r);
      }
    }
    const double thr = fixed_work_throughput(row.r);
    char result[32];
    if (std::string(row.workload) == "counting") {
      std::snprintf(result, sizeof result, "%ld", row.r.total_exited);
    } else {
      std::snprintf(result, sizeof result, "%016llx",
                    static_cast<unsigned long long>(row.r.btree_digest));
    }
    std::printf(
        "%-9s %-5s %-7s %3u %10llu %7.2f %6.2f %10.0f %10.0f %5llu %5ld %10s\n",
        row.workload, row.mechanism, row.mode, row.crashes,
        static_cast<unsigned long long>(row.r.completed_at), thr,
        base == 0.0 ? 0.0 : thr / base, row.r.ft.mean_detect_latency(),
        row.r.ft.mean_rehome_latency(),
        static_cast<unsigned long long>(row.r.ft.recoveries),
        row.r.ft_lost_ops, result);
  }
}

void write_json(const char* path, const std::vector<Row>& rows) {
  core::MetricsRegistry reg;
  for (const Row& row : rows) {
    char label[64];
    std::snprintf(label, sizeof label, "%s/%s/%s/crashes=%u", row.workload,
                  row.mechanism, row.mode, row.crashes);
    core::Metrics& m = reg.record(label);
    m.put("workload", row.workload);
    m.put("mechanism", row.mechanism);
    m.put("ft_mode", row.mode);
    m.put("crashes", static_cast<std::uint64_t>(row.crashes));
    apps::put_run_stats(m, row.r);
  }
  if (!reg.write_json(path)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  cm::bench::maybe_usage(argc, argv, "[out.json]",
                         "Fail-stop ablation: fixed work while 0/1/2/4 "
                         "processors crash mid-run; availability, detection "
                         "and recovery latency, JSON export.");
  std::printf("Fail-stop ablation: fixed work under processor crashes\n");
  std::printf("counting: 16 requesters x 50 ops; B-tree: 8 requesters x 50"
              " ops, 1000 keys\n");
  std::printf("detector: heartbeat every 2000 cycles, 2 ring monitors,"
              " lease = 3 intervals\n\n");

  std::vector<Row> rows;
  rows.push_back({"counting", "CP", "off", 0,
                  counting_at(Mechanism::kMigration, 0, /*ft=*/false)});
  for (const unsigned n : kCrashCounts) {
    rows.push_back({"counting", "CP", "rehome", n,
                    counting_at(Mechanism::kMigration, n, /*ft=*/true)});
  }
  for (const unsigned n : kCrashCounts) {
    rows.push_back({"counting", "RPC", "rehome", n,
                    counting_at(Mechanism::kRpc, n, /*ft=*/true)});
  }
  for (const unsigned n : kCrashCounts) {
    rows.push_back({"btree", "CP", "rehome", n,
                    btree_at(Mechanism::kMigration, n, /*ft=*/true)});
  }
  // Graceful degradation: no backup restore, condemned objects cost ops.
  rows.push_back({"counting", "RPC", "lost", 1,
                  counting_at(Mechanism::kRpc, 1, /*ft=*/true,
                              /*rehome=*/false)});
  print_table(rows);

  std::printf(
      "\nShape: within a workload/mechanism pair every re-home row reports\n"
      "the same result column — crashes cost detection + recovery time\n"
      "(availability dips with the crash count), never correctness. The\n"
      "ft-off row shows the detector's overhead is pure heartbeat traffic;\n"
      "the lost row shows degradation without recovery: completed ops drop\n"
      "by exactly the condemned operations, and nothing hangs.\n");

  write_json(argc > 1 ? argv[1] : "ablation_failstop.json", rows);
  return 0;
}
