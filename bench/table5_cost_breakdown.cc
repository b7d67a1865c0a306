// Table 5: approximate cost of migrating one activation in the counting
// network, broken down by category. We run the computation-migration
// counting-network workload, then divide the runtime's per-category cycle
// accumulators by the number of migrations.
#include <cstdio>

#include "apps/workload.h"
#include "core/cost_model.h"
#include "core/stats.h"

#include "bench_util.h"

using cm::apps::CountingConfig;
using cm::apps::RunStats;
using cm::apps::Window;
using cm::core::Breakdown;
using cm::core::Category;
using cm::core::CostModel;
using cm::core::Mechanism;
using cm::core::Scheme;

namespace {

struct Row {
  Category cat;
  double paper_cycles;  // Table 5 (0 = not reported separately)
};

void print_breakdown(const RunStats& r, const char* title) {
  const Breakdown& bd = r.runtime.breakdown;
  const double migs = static_cast<double>(r.runtime.migrations);
  if (migs == 0) return;

  // The accumulators also include the per-op return-home reply and the
  // user code between hops; dividing everything by migrations matches the
  // paper's "approximate costs ... to migrate one activation".
  const Row receiver_rows[] = {
      {Category::kCopyPacket, 76},      {Category::kThreadCreation, 66},
      {Category::kRecvLinkage, 66},     {Category::kUnmarshal, 51},
      {Category::kOidTranslation, 36},  {Category::kScheduler, 36},
      {Category::kForwardingCheck, 23}, {Category::kRecvAllocPacket, 16},
  };
  const Row sender_rows[] = {
      {Category::kSendLinkage, 44},
      {Category::kSendAllocPacket, 35},
      {Category::kMessageSend, 23},
      {Category::kMarshal, 22},
  };

  double recv_total = 0, send_total = 0;
  for (const Row& row : receiver_rows) {
    recv_total += static_cast<double>(bd.get(row.cat)) / migs;
  }
  for (const Row& row : sender_rows) {
    send_total += static_cast<double>(bd.get(row.cat)) / migs;
  }
  const double user = static_cast<double>(bd.get(Category::kUserCode)) / migs;
  const double transit =
      static_cast<double>(bd.get(Category::kNetworkTransit)) / migs;
  const double total = user + transit + recv_total + send_total;

  std::printf("\n%s\n", title);
  std::printf("%-28s %9s %9s %8s\n", "Category", "cycles", "paper", "pct");
  auto line = [&](const char* name, double v, double paper) {
    std::printf("%-28s %9.1f %9.1f %7.1f%%\n", name, v, paper,
                100.0 * v / total);
  };
  line("Total time", total, 651);
  line("User code", user, 150);
  line("Network transit", transit, 17);
  line("Message overhead total", recv_total + send_total, 484);
  line("Receiver total", recv_total, 341);
  for (const Row& row : receiver_rows) {
    line(std::string("  ").append(category_name(row.cat)).c_str(),
         static_cast<double>(bd.get(row.cat)) / migs, row.paper_cycles);
  }
  line("Sender total", send_total, 143);
  for (const Row& row : sender_rows) {
    line(std::string("  ").append(category_name(row.cat)).c_str(),
         static_cast<double>(bd.get(row.cat)) / migs, row.paper_cycles);
  }
}

}  // namespace

int main(int argc, char** argv) {
  cm::bench::maybe_usage(argc, argv, "",
                         "Table 5: per-category cycle breakdown of one "
                         "migrated activation in the counting network.");

  std::printf("Table 5: approximate costs for migration in the counting "
              "network\n(per-category cycles divided by migrations)\n");

  CountingConfig cfg;
  cfg.scheme = Scheme{Mechanism::kMigration, false, false};
  cfg.requesters = 16;
  cfg.think = 10'000;  // light load: per-migration costs, not queueing
  cfg.window = Window{30'000, 200'000};
  print_breakdown(run_counting(cfg), "-- software runtime --");

  cfg.scheme = Scheme{Mechanism::kMigration, true, false};
  print_breakdown(run_counting(cfg),
                  "-- with hardware support (register NI + OID translation; "
                  "paper estimate: ~26% of overhead removed) --");

  std::printf(
      "\nPaper shape: message overhead dominates the migration (~74%% of the\n"
      "end-to-end time in software); hardware support removes the packet\n"
      "copies/allocations, halves (un)marshaling, and eliminates object-ID\n"
      "translation.\n");
  return 0;
}
