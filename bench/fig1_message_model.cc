// Figure 1 / §2.5: the message-count model. One thread on processor P0
// makes n consecutive accesses to each of m data items living on processors
// 1..m. The model predicts:
//   RPC                   : 2*n*m messages (two per access)
//   data migration        : 2*m   messages (each datum fetched once, then
//                           local; cache-coherent shared memory)
//   computation migration : m + 1 messages (one hop per datum, one
//                           short-circuited return)
// This bench MEASURES all three against the model using the real substrates.
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/workload.h"
#include "core/runtime.h"

#include "bench_util.h"

using namespace cm;
using core::Ctx;

namespace {

struct World : apps::Stack {
  explicit World(unsigned m)
      : Stack(m + 1, apps::bare_config(core::Mechanism::kSharedMemory)) {}
};

sim::Task<> rpc_sweep(World* w, std::vector<core::ObjectId> objs, unsigned n) {
  Ctx ctx{&w->rt, 0};
  for (const auto obj : objs) {
    for (unsigned i = 0; i < n; ++i) {
      (void)co_await w->rt.call(ctx, obj, core::CallOpts{4, 2, false},
                                [w](Ctx& callee) -> sim::Task<int> {
                                  co_await w->rt.compute(callee, 50);
                                  co_return 0;
                                });
    }
  }
}

sim::Task<> migrate_sweep(World* w, std::vector<core::ObjectId> objs,
                          unsigned n) {
  Ctx ctx{&w->rt, 0};
  for (const auto obj : objs) {
    co_await w->rt.migrate(ctx, obj, 8);  // the annotation
    for (unsigned i = 0; i < n; ++i) {
      (void)co_await w->rt.call(ctx, obj, core::CallOpts{4, 2, false},
                                [w](Ctx& callee) -> sim::Task<int> {
                                  co_await w->rt.compute(callee, 50);
                                  co_return 0;
                                });
    }
  }
  co_await w->rt.return_home(ctx, 0, 2);
}

sim::Task<> data_sweep(World* w, std::vector<shmem::Addr> addrs, unsigned n) {
  // Data migration: the datum's cache line moves to P0 once, then all n
  // accesses hit locally.
  for (const auto a : addrs) {
    for (unsigned i = 0; i < n; ++i) {
      co_await w->mem->write(0, a, 4);
      co_await w->machine.compute(0, 50);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  cm::bench::maybe_usage(argc, argv, "",
                         "Figure 1 (sec 2.5): predicted vs simulated message "
                         "counts for n accesses to each of m remote items, per "
                         "mechanism.");

  std::printf("Figure 1: messages for one thread making n accesses to each "
              "of m remote data items\n");
  std::printf("%4s %4s | %10s %6s | %10s %6s | %10s %6s\n", "m", "n",
              "RPC", "2nm", "data mig.", "2m", "comp mig.", "m+1");
  for (unsigned m : {1u, 2u, 4u, 8u, 16u, 32u}) {
    for (unsigned n : {1u, 2u, 8u}) {
      std::uint64_t rpc_msgs = 0, dm_msgs = 0, cm_msgs = 0;
      {
        World w(m);
        std::vector<core::ObjectId> objs;
        for (unsigned i = 0; i < m; ++i) {
          objs.push_back(w.objects.create(static_cast<sim::ProcId>(i + 1)));
        }
        sim::detach(rpc_sweep(&w, objs, n));
        w.eng.run();
        rpc_msgs = w.net.stats().messages;
      }
      {
        World w(m);
        std::vector<shmem::Addr> addrs;
        for (unsigned i = 0; i < m; ++i) {
          addrs.push_back(w.mem->alloc(static_cast<sim::ProcId>(i + 1), 4));
        }
        sim::detach(data_sweep(&w, addrs, n));
        w.eng.run();
        dm_msgs = w.net.stats().messages;
      }
      {
        World w(m);
        std::vector<core::ObjectId> objs;
        for (unsigned i = 0; i < m; ++i) {
          objs.push_back(w.objects.create(static_cast<sim::ProcId>(i + 1)));
        }
        sim::detach(migrate_sweep(&w, objs, n));
        w.eng.run();
        cm_msgs = w.net.stats().messages;
      }
      std::printf("%4u %4u | %10llu %6u | %10llu %6u | %10llu %6u\n", m, n,
                  static_cast<unsigned long long>(rpc_msgs), 2 * n * m,
                  static_cast<unsigned long long>(dm_msgs), 2 * m,
                  static_cast<unsigned long long>(cm_msgs), m + 1);
    }
  }
  std::printf("\nEvery measured count should equal the model column beside "
              "it.\n");
  return 0;
}
