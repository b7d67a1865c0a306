// Five-way mechanism comparison — the full §2 design space on both paper
// workloads, including the two mechanisms the paper discusses but does not
// measure:
//   * OBJ — Emerald-style object migration [JLHB88], the comparison §4
//     explicitly wished for ("our group has not finished implementing
//     object migration in Prelude yet");
//   * TM  — whole-thread migration (§2.3), i.e. computation migration with
//     the entire thread state shipped on every hop.
// Expected shapes, from the paper's arguments:
//   * OBJ collapses on write-shared structures (balancers, B-tree upper
//     levels ping-pong with their full state in tow) but excels when one
//     thread has an affinity run to an object;
//   * TM behaves like CP taxed by its larger per-hop payload ("the grain
//     of migration is too coarse ... the amount of state to be moved is
//     large").
#include <cstdio>
#include <vector>

#include "apps/workload.h"
#include "core/mobile.h"
#include "core/runtime.h"

#include "bench_util.h"

using namespace cm;
using core::Ctx;
using core::Mechanism;
using core::Scheme;

namespace {

const Mechanism kAll[] = {Mechanism::kRpc, Mechanism::kMigration,
                          Mechanism::kSharedMemory,
                          Mechanism::kObjectMigration,
                          Mechanism::kThreadMigration};

void counting_panel() {
  std::printf("\nCounting network, 32 requesters, think 0 "
              "(write-shared balancers):\n");
  std::printf("%-5s %12s %14s\n", "mech", "thr/1000cy", "bw words/10cy");
  for (const Mechanism m : kAll) {
    apps::CountingConfig cfg;
    cfg.scheme = Scheme{m, false, false};
    cfg.requesters = 32;
    cfg.window = apps::Window{20'000, 150'000};
    const auto r = run_counting(cfg);
    std::printf("%-5s %12.3f %14.2f\n", mechanism_name(m),
                r.throughput_per_1000(), r.words_per_10());
  }
}

void btree_panel() {
  std::printf("\nDistributed B-tree, 16 requesters, think 0 "
              "(hot root, large nodes):\n");
  std::printf("%-5s %12s %14s\n", "mech", "thr/1000cy", "bw words/10cy");
  for (const Mechanism m : kAll) {
    apps::BTreeConfig cfg;
    cfg.scheme = Scheme{m, false, false};
    cfg.window = apps::Window{20'000, 150'000};
    const auto r = run_btree(cfg);
    std::printf("%-5s %12.3f %14.2f\n", mechanism_name(m),
                r.throughput_per_1000(), r.words_per_10());
  }
}

// Affinity scenario: each thread owns a long access run to "its" object
// before anyone else touches it — object migration's home turf.
sim::Task<> affinity_run(core::Runtime* rt, core::MobileObject* mob,
                         core::ObjectId oid, Mechanism mech, sim::ProcId home,
                         int runs, int accesses) {
  Ctx ctx{rt, home};
  for (int r = 0; r < runs; ++r) {
    if (mech == Mechanism::kObjectMigration) co_await mob->attract(ctx);
    if (mech == Mechanism::kMigration) co_await rt->migrate(ctx, oid, 8);
    for (int a = 0; a < accesses; ++a) {
      (void)co_await rt->call(ctx, oid, core::CallOpts{4, 2, false},
                              [rt](Ctx& c) -> sim::Task<int> {
                                co_await rt->compute(c, 40);
                                co_return 0;
                              });
    }
    co_await rt->return_home(ctx, home, 2);
  }
}

void affinity_panel() {
  std::printf("\nAffinity scenario: 4 threads, each with exclusive 32-access "
              "runs to its own object:\n");
  std::printf("%-5s %12s %10s\n", "mech", "cycles", "messages");
  for (const Mechanism m : {Mechanism::kRpc, Mechanism::kMigration,
                            Mechanism::kObjectMigration}) {
    apps::Stack w(8);
    std::vector<core::ObjectId> oids;
    std::vector<std::unique_ptr<core::MobileObject>> mobs;
    for (int t = 0; t < 4; ++t) {
      oids.push_back(w.objects.create(static_cast<sim::ProcId>(4 + t)));
      mobs.push_back(std::make_unique<core::MobileObject>(w.rt, oids[t], 24));
    }
    for (int t = 0; t < 4; ++t) {
      sim::detach(affinity_run(&w.rt, mobs[t].get(), oids[t], m,
                               static_cast<sim::ProcId>(t), 4, 32));
    }
    w.eng.run();
    std::printf("%-5s %12llu %10llu\n", mechanism_name(m),
                static_cast<unsigned long long>(w.eng.now()),
                static_cast<unsigned long long>(w.net.stats().messages));
  }
}

}  // namespace

int main(int argc, char** argv) {
  cm::bench::maybe_usage(argc, argv, "",
                         "Five-way mechanism comparison (RPC/CP/TM/OBJ/SM) on "
                         "both paper workloads.");

  std::printf("Mechanism design space (§2): RPC, computation migration,\n"
              "shared memory, object migration, thread migration\n");
  counting_panel();
  btree_panel();
  affinity_panel();
  std::printf(
      "\nShapes: on the paper's write-shared workloads CP dominates the\n"
      "other migratory mechanisms (TM pays its payload every hop; OBJ drags\n"
      "whole objects through the network); with exclusive affinity runs,\n"
      "object migration matches computation migration — each mechanism has\n"
      "a regime, which is the paper's §1 argument for letting the\n"
      "programmer choose per call site.\n");
  return 0;
}
