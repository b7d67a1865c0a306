// Fault-injection sweep: the counting network and the B-tree run a fixed
// amount of work while the interconnect drops / duplicates / delays an
// increasing fraction of runtime messages. The reliable transport retries
// until every effect lands exactly once, so the application-level results
// are identical in every row; what grows is the price paid for reliability —
// retransmissions, acks, dedup work, and completion time. This is the
// paper's "changes only performance, never semantics" claim extended to a
// lossy network.
//
// Output: a human-readable table on stdout plus a JSON dump in the unified
// metrics schema (default ablation_faults.json, or the path given as
// argv[1]) carrying the full fault and reliability counters for downstream
// tooling. An optional argv[2] names a Chrome trace-event file recorded for
// one representative chaos run (counting / CP at the highest loss rate).
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

constexpr double kRates[] = {0.0, 0.01, 0.02, 0.05};

net::FaultPlan loss_plan(double rate) {
  net::FaultPlan plan;
  plan.rates.drop = rate;
  plan.rates.duplicate = rate / 2;
  plan.rates.delay = rate;
  plan.seed = 0xab1a7e;
  return plan;
}

struct Row {
  const char* workload;
  const char* mechanism;
  double rate;
  apps::RunStats r;
};

apps::RunStats counting_at(Mechanism mech, double rate,
                           std::string trace_path = {}, bool crash = false) {
  apps::CountingConfig cfg;
  cfg.scheme = Scheme{mech, false, false};
  cfg.requesters = 16;
  cfg.ops_per_requester = 50;
  cfg.faults = loss_plan(rate);
  if (crash) {
    // Fail-stop scenario: a balancer processor dies mid-run on top of the
    // message loss; the ft layer detects and re-homes (see
    // ablation_failstop for the full crash-count sweep).
    cfg.faults.nic_fail_at[2] = 10'000;
    cfg.ft.enabled = true;
  }
  cfg.trace_path = std::move(trace_path);
  return run_counting(cfg);
}

apps::RunStats btree_at(Mechanism mech, double rate, bool crash = false) {
  apps::BTreeConfig cfg;
  cfg.scheme = Scheme{mech, false, false};
  cfg.requesters = 8;
  cfg.nkeys = 1000;
  cfg.max_entries = 20;
  cfg.ops_per_requester = 50;
  cfg.faults = loss_plan(rate);
  if (crash) {
    cfg.faults.nic_fail_at[18] = 15'000;  // hosts several nodes under seed 1
    cfg.ft.enabled = true;
  }
  return run_btree(cfg);
}

void print_table(const std::vector<Row>& rows) {
  std::printf("%-10s %-6s %6s %10s %10s %9s %9s %7s %7s %10s\n", "workload",
              "mech", "loss%", "completed", "messages", "dropped", "retrans",
              "dedup", "fallbk", "result");
  for (const Row& row : rows) {
    char result[32];
    if (std::string(row.workload) == "counting") {
      std::snprintf(result, sizeof result, "%ld", row.r.total_exited);
    } else {
      std::snprintf(result, sizeof result, "%016llx",
                    static_cast<unsigned long long>(row.r.btree_digest));
    }
    std::printf("%-10s %-6s %6.1f %10llu %10llu %9llu %9llu %7llu %7llu %10s\n",
                row.workload, row.mechanism, row.rate * 100.0,
                static_cast<unsigned long long>(row.r.completed_at),
                static_cast<unsigned long long>(row.r.net.messages),
                static_cast<unsigned long long>(row.r.net.faults_dropped),
                static_cast<unsigned long long>(row.r.runtime.retransmits),
                static_cast<unsigned long long>(row.r.runtime.dedup_hits),
                static_cast<unsigned long long>(
                    row.r.runtime.migration_fallbacks),
                result);
  }
}

void write_json(const char* path, const std::vector<Row>& rows) {
  core::MetricsRegistry reg;
  for (const Row& row : rows) {
    char label[64];
    std::snprintf(label, sizeof label, "%s/%s/loss=%g", row.workload,
                  row.mechanism, row.rate);
    core::Metrics& m = reg.record(label);
    m.put("workload", row.workload);
    m.put("mechanism", row.mechanism);
    m.put("loss_rate", row.rate);
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
  cm::bench::maybe_usage(argc, argv, "[out.json [trace.json]]",
                         "Fault-injection sweep: fixed work under rising "
                         "drop/duplicate/delay rates with the reliable "
                         "transport; JSON export and optional Chrome trace.");
  std::printf("Fault-injection sweep: fixed work under message loss\n");
  std::printf("counting: 16 requesters x 50 ops; B-tree: 8 requesters x 50"
              " ops, 1000 keys\n");
  std::printf("plan: drop = rate, duplicate = rate/2, delay = rate\n\n");

  const char* trace_path = argc > 2 ? argv[2] : "";
  const double max_rate = kRates[std::size(kRates) - 1];
  std::vector<Row> rows;
  for (const double rate : kRates) {
    rows.push_back({"counting", "CP", rate,
                    counting_at(Mechanism::kMigration, rate,
                                rate == max_rate ? trace_path : "")});
    rows.push_back({"counting", "RPC", rate, counting_at(Mechanism::kRpc,
                                                         rate)});
    rows.push_back({"btree", "CP", rate, btree_at(Mechanism::kMigration,
                                                  rate)});
    rows.push_back({"btree", "RPC", rate, btree_at(Mechanism::kRpc, rate)});
  }
  // Fail-stop scenario: the highest loss rate plus a mid-run processor
  // crash, with the ft layer recovering the dead processor's objects. The
  // result column must still match the pair's loss-only rows ("CP+crash"
  // rows; full crash-count sweep in ablation_failstop).
  rows.push_back({"counting", "CP+crash", max_rate,
                  counting_at(Mechanism::kMigration, max_rate, "",
                              /*crash=*/true)});
  rows.push_back({"btree", "CP+crash", max_rate,
                  btree_at(Mechanism::kMigration, max_rate, /*crash=*/true)});
  print_table(rows);

  std::printf(
      "\nShape: every row of a workload/mechanism pair reports the same\n"
      "result column regardless of loss rate — faults cost retransmissions\n"
      "and time, never correctness. At rate 0 the reliable layer is not\n"
      "installed at all (no acks, no retransmit state). The CP+crash rows\n"
      "add a fail-stopped processor on top of the loss: detection plus\n"
      "object re-home preserve the result there too.\n");

  write_json(argc > 1 ? argv[1] : "ablation_faults.json", rows);
  return 0;
}
