// Figure 2: counting-network throughput (requests / 1000 cycles) as a
// function of the number of requesting threads, for think times of 10,000
// and 0 cycles. Series: shared memory, computation migration w/ and w/o
// hardware support, RPC w/ and w/o hardware support — exactly the paper's
// legend.
//
// Optional argv[1]: write every run's full counter set as unified-schema
// JSON (stdout is unchanged either way).
#include <cstdio>

#include "apps/workload.h"
#include "core/metrics.h"

#include "bench_util.h"

using cm::apps::CountingConfig;
using cm::apps::RunStats;
using cm::apps::Window;
using cm::core::Mechanism;
using cm::core::Scheme;

namespace {

const Scheme kSeries[] = {
    {Mechanism::kSharedMemory, false, false},
    {Mechanism::kMigration, true, false},
    {Mechanism::kMigration, false, false},
    {Mechanism::kRpc, true, false},
    {Mechanism::kRpc, false, false},
};

struct CheckTotals {
  bool enabled = false;
  unsigned runs = 0;
  std::uint64_t violations = 0;
  std::uint64_t hb_edges = 0;
};

void run_panel(cm::sim::Cycles think, cm::core::MetricsRegistry* reg,
               CheckTotals* check) {
  std::printf("\n-- think time %llu cycles --\n",
              static_cast<unsigned long long>(think));
  std::printf("%-10s", "threads");
  for (const Scheme& s : kSeries) std::printf("%14s", s.name().c_str());
  std::printf("\n");
  for (unsigned n = 8; n <= 64; n += 8) {
    std::printf("%-10u", n);
    for (const Scheme& s : kSeries) {
      CountingConfig cfg;
      cfg.scheme = s;
      cfg.requesters = n;
      cfg.think = think;
      cfg.window = Window{30'000, 200'000};
      cfg.check = check->enabled;
      const RunStats r = run_counting(cfg);
      if (r.checker_enabled) {
        ++check->runs;
        check->violations += r.check.total_violations;
        check->hb_edges += r.check.delivers;
        for (const auto& v : r.check_violations) {
          std::fprintf(stderr, "check: %s at cycle %llu: %s\n",
                       std::string(violation_name(v.kind)).c_str(),
                       static_cast<unsigned long long>(v.at),
                       v.detail.c_str());
        }
      }
      std::printf("%14.3f", r.throughput_per_1000());
      if (reg != nullptr) {
        char label[64];
        std::snprintf(label, sizeof label, "think=%llu/threads=%u/%s",
                      static_cast<unsigned long long>(think), n,
                      s.name().c_str());
        cm::core::Metrics& m = reg->record(label);
        put_run_stats(m, r);
      }
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  cm::bench::maybe_usage(argc, argv, "[--check] [out.json]",
                         "Figure 2: counting-network throughput vs requesters "
                         "for SM/CP/RPC at think 0 and 10k cycles; optional "
                         "unified-schema JSON export. --check runs every point "
                         "under the invariant checker (stdout unchanged; exits "
                         "nonzero on any violation).");
  cm::core::MetricsRegistry reg;
  CheckTotals check;
  check.enabled = cm::bench::take_flag(argc, argv, "--check");
  const char* json_path = argc > 1 ? argv[1] : nullptr;
  std::printf("Figure 2: counting-network throughput (requests/1000 cycles)\n");
  std::printf("8x8 bitonic network, 24 balancers on 24 processors; each\n");
  std::printf("requester on its own processor.\n");
  run_panel(10'000, json_path != nullptr ? &reg : nullptr, &check);
  run_panel(0, json_path != nullptr ? &reg : nullptr, &check);
  std::printf(
      "\nPaper shape: all series rise with threads; SM and CM w/HW lead (CM\n"
      "w/HW competitive with SM at high contention); CM above RPC\n"
      "everywhere; hardware support helps both message-passing schemes.\n");
  if (json_path != nullptr) {
    if (reg.write_json(json_path)) {
      std::fprintf(stderr, "wrote %s\n", json_path);
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
  }
  if (check.enabled) {
    std::fprintf(stderr,
                 "check: %u runs, %llu happens-before edges, "
                 "%llu violations\n",
                 check.runs,
                 static_cast<unsigned long long>(check.hb_edges),
                 static_cast<unsigned long long>(check.violations));
    if (check.violations != 0) return 1;
  }
  return 0;
}
