// Ablation for the paper's design discussion (§2.4, §6):
//  (a) Migration-state sweep: "the cost of using [computation migration]
//      depends on the amount of computation state that must be moved" —
//      sweep the live-frame size and find where RPC becomes competitive.
//  (b) Multi-activation migration (future work in §6): migrating a 2-frame
//      group in one message vs. migrating only the top activation (which
//      forces the eventual return to relay through the caller's processor).
#include <cstdio>
#include <vector>

#include "apps/workload.h"
#include "core/runtime.h"

#include "bench_util.h"

using namespace cm;
using core::Ctx;

namespace {

using World = apps::Stack;

constexpr unsigned kHops = 8;
constexpr unsigned kAccessesPerDatum = 2;

sim::Task<> chain_migrate(World* w, std::vector<core::ObjectId> objs,
                          unsigned frame_words, sim::Cycles* out) {
  Ctx ctx{&w->rt, 0};
  for (const auto obj : objs) {
    co_await w->rt.migrate(ctx, obj, frame_words);
    for (unsigned i = 0; i < kAccessesPerDatum; ++i) {
      (void)co_await w->rt.call(ctx, obj, core::CallOpts{4, 2, false},
                                [w](Ctx& c) -> sim::Task<int> {
                                  co_await w->rt.compute(c, 60);
                                  co_return 0;
                                });
    }
  }
  co_await w->rt.return_home(ctx, 0, 2);
  *out = w->eng.now();
}

sim::Task<> chain_rpc(World* w, std::vector<core::ObjectId> objs,
                      sim::Cycles* out) {
  Ctx ctx{&w->rt, 0};
  for (const auto obj : objs) {
    for (unsigned i = 0; i < kAccessesPerDatum; ++i) {
      (void)co_await w->rt.call(ctx, obj, core::CallOpts{4, 2, false},
                                [w](Ctx& c) -> sim::Task<int> {
                                  co_await w->rt.compute(c, 60);
                                  co_return 0;
                                });
    }
  }
  *out = w->eng.now();
}

std::vector<core::ObjectId> make_objs(World& w) {
  std::vector<core::ObjectId> objs;
  for (unsigned i = 0; i < kHops; ++i) {
    objs.push_back(w.objects.create(static_cast<sim::ProcId>(i + 1)));
  }
  return objs;
}

// (b) A parent+child activation pair that both want to be at the data:
// migrate them together (one message, local return) or only the child
// (the child's return relays through the parent's processor every hop).
sim::Task<> nested_top_only(World* w, std::vector<core::ObjectId> objs,
                            unsigned frame_words, sim::Cycles* out) {
  Ctx parent{&w->rt, 0};
  for (const auto obj : objs) {
    // The child activation migrates; the parent stays put, so the child's
    // result is a cross-processor reply back to the parent.
    Ctx child{&w->rt, parent.proc};
    co_await w->rt.migrate(child, obj, frame_words);
    (void)co_await w->rt.call(child, obj, core::CallOpts{4, 2, false},
                              [w](Ctx& c) -> sim::Task<int> {
                                co_await w->rt.compute(c, 60);
                                co_return 0;
                              });
    co_await w->rt.return_home(child, parent.proc, 2);
  }
  *out = w->eng.now();
}

sim::Task<> nested_group(World* w, std::vector<core::ObjectId> objs,
                         unsigned frame_words, sim::Cycles* out) {
  Ctx parent{&w->rt, 0};
  Ctx child{&w->rt, 0};
  for (const auto obj : objs) {
    std::vector<Ctx*> group{&child, &parent};
    co_await w->rt.migrate_group(group, obj, 2 * frame_words);
    (void)co_await w->rt.call(child, obj, core::CallOpts{4, 2, false},
                              [w](Ctx& c) -> sim::Task<int> {
                                co_await w->rt.compute(c, 60);
                                co_return 0;
                              });
    // The parent is co-located, so the child's return is local.
  }
  co_await w->rt.return_home(parent, 0, 2);
  *out = w->eng.now();
}

}  // namespace

int main(int argc, char** argv) {
  cm::bench::maybe_usage(argc, argv, "",
                         "Migration-grain ablation: live-state size sweep, "
                         "thread- vs computation-migration, and group "
                         "migration.");

  std::printf("(a) Migration cost vs. live-frame size (%u-hop chain, %u "
              "accesses per datum)\n", kHops, kAccessesPerDatum);
  sim::Cycles rpc_time = 0;
  {
    World w(kHops + 1);
    auto objs = make_objs(w);
    sim::detach(chain_rpc(&w, objs, &rpc_time));
    w.eng.run();
  }
  std::printf("%-14s %12s %14s\n", "frame words", "CM cycles",
              "RPC = " );
  for (unsigned frame : {2u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    World w(kHops + 1);
    auto objs = make_objs(w);
    sim::Cycles t = 0;
    sim::detach(chain_migrate(&w, objs, frame, &t));
    w.eng.run();
    std::printf("%-14u %12llu %14llu%s\n", frame,
                static_cast<unsigned long long>(t),
                static_cast<unsigned long long>(rpc_time),
                t < rpc_time ? "   CM wins" : "   RPC wins");
  }

  std::printf("\n(b) Multi-activation migration (%u hops, parent+child)\n",
              kHops);
  for (unsigned frame : {8u, 32u}) {
    sim::Cycles top = 0, group = 0;
    {
      World w(kHops + 1);
      auto objs = make_objs(w);
      sim::detach(nested_top_only(&w, objs, frame, &top));
      w.eng.run();
    }
    {
      World w(kHops + 1);
      auto objs = make_objs(w);
      sim::detach(nested_group(&w, objs, frame, &group));
      w.eng.run();
    }
    std::printf("frame %3u words: top-only %llu cycles, group %llu cycles "
                "(%.2fx)\n", frame, static_cast<unsigned long long>(top),
                static_cast<unsigned long long>(group),
                static_cast<double>(top) / static_cast<double>(group));
  }
  std::printf(
      "\nShape: computation migration wins while the frame is small and the\n"
      "access run length amortises it; huge frames hand the advantage back\n"
      "to RPC. Migrating the whole 2-frame group in one message wins when\n"
      "frames are small (it removes the cross-processor reply relay), but\n"
      "with large frames shipping both activations costs more than the\n"
      "relay it saves — exactly the granularity trade-off that §6 argues\n"
      "the programmer needs control over.\n");
  return 0;
}
