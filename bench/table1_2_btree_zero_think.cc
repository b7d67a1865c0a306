// Tables 1 and 2: distributed B-tree at zero think time — throughput
// (ops/1000 cycles) and bandwidth (words/10 cycles) for all nine schemes.
// 10,000-key tree, branching <= 100, nodes random over 48 processors,
// 16 requester threads on separate processors.
//
// Optional argv[1]: write every scheme's full counter set as unified-schema
// JSON (stdout is unchanged either way).
#include <cstdio>

#include "apps/workload.h"
#include "core/metrics.h"

#include "bench_util.h"

using cm::apps::BTreeConfig;
using cm::apps::RunStats;
using cm::apps::Window;
using cm::core::Mechanism;
using cm::core::Scheme;

int main(int argc, char** argv) {
  cm::bench::maybe_usage(argc, argv, "[--check] [out.json]",
                         "Tables 1-2: distributed B-tree throughput and "
                         "bandwidth at zero think time, all schemes; optional "
                         "unified-schema JSON export. --check runs every "
                         "scheme under the invariant checker (stdout "
                         "unchanged; exits nonzero on any violation).");
  const bool check_on = cm::bench::take_flag(argc, argv, "--check");
  std::uint64_t check_violations = 0;
  std::uint64_t check_hb_edges = 0;
  const Scheme schemes[] = {
      {Mechanism::kSharedMemory, false, false},
      {Mechanism::kRpc, false, false},
      {Mechanism::kRpc, true, false},
      {Mechanism::kRpc, false, true},
      {Mechanism::kRpc, true, true},
      {Mechanism::kMigration, false, false},
      {Mechanism::kMigration, true, false},
      {Mechanism::kMigration, false, true},
      {Mechanism::kMigration, true, true},
  };
  // Paper values for side-by-side comparison (Table 1 / Table 2).
  const double paper_thr[] = {1.837, 0.3828, 0.5133, 0.6060, 0.7830,
                              0.8018, 0.9570, 1.155,  1.341};
  const double paper_bw[] = {75, 7.3, 9.9, 7.0, 9.3, 3.5, 4.3, 3.8, 3.9};

  std::printf("Tables 1+2: B-tree, 0-cycle think time, 16 requesters\n");
  std::printf("%-18s %12s %12s | %12s %12s | %9s\n", "Scheme",
              "thr/1000cy", "paper", "bw words/10", "paper", "hit rate");
  cm::core::MetricsRegistry reg;
  const char* json_path = argc > 1 ? argv[1] : nullptr;
  double rpc_base = 0, cp_base = 0, sm = 0;
  for (unsigned i = 0; i < 9; ++i) {
    BTreeConfig cfg;
    cfg.scheme = schemes[i];
    cfg.window = Window{30'000, 250'000};
    cfg.check = check_on;
    const RunStats r = run_btree(cfg);
    if (r.checker_enabled) {
      check_violations += r.check.total_violations;
      check_hb_edges += r.check.delivers;
      for (const auto& v : r.check_violations) {
        std::fprintf(stderr, "check: %s at cycle %llu: %s\n",
                     std::string(violation_name(v.kind)).c_str(),
                     static_cast<unsigned long long>(v.at), v.detail.c_str());
      }
    }
    std::printf("%-18s %12.4f %12.4f | %12.2f %12.1f | %9.3f\n",
                schemes[i].name().c_str(), r.throughput_per_1000(),
                paper_thr[i], r.words_per_10(), paper_bw[i],
                r.cache_hit_rate);
    if (json_path != nullptr) {
      cm::core::Metrics& m = reg.record(schemes[i].name());
      m.put("paper_throughput", paper_thr[i]);
      m.put("paper_bandwidth", paper_bw[i]);
      put_run_stats(m, r);
    }
    if (i == 0) sm = r.throughput_per_1000();
    if (i == 1) rpc_base = r.throughput_per_1000();
    if (i == 5) cp_base = r.throughput_per_1000();
  }
  std::printf(
      "\nKey ratios   measured   paper\n"
      "SM / RPC     %8.2f   %6.2f\n"
      "SM / CP      %8.2f   %6.2f\n"
      "CP / RPC     %8.2f   %6.2f\n",
      sm / rpc_base, 1.837 / 0.3828, sm / cp_base, 1.837 / 0.8018,
      cp_base / rpc_base, 0.8018 / 0.3828);
  std::printf(
      "\nPaper shape: SM leads (hardware replication of upper levels);\n"
      "every CP variant beats the matching RPC variant; replication and\n"
      "hardware support each help both message-passing mechanisms; SM's\n"
      "bandwidth dwarfs everything else.\n");
  if (json_path != nullptr) {
    if (reg.write_json(json_path)) {
      std::fprintf(stderr, "wrote %s\n", json_path);
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
  }
  if (check_on) {
    std::fprintf(stderr,
                 "check: 9 schemes, %llu happens-before edges, "
                 "%llu violations\n",
                 static_cast<unsigned long long>(check_hb_edges),
                 static_cast<unsigned long long>(check_violations));
    if (check_violations != 0) return 1;
  }
  return 0;
}
