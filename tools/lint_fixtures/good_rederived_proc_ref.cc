// simlint fixture: proc-local references handled correctly around a
// migration — re-derived afterwards, or never used again. NOT compiled.
#include <cstdint>

namespace fixture {

struct Slot {
  std::uint64_t count = 0;
};

struct Ctx {
  unsigned proc;
};

struct Rt {
  Slot procs_[64];
  void* migrate(Ctx&, int, unsigned);
};

void good_rederive_after_migrate(Rt* rt, Ctx& ctx) {
  auto& slot = rt->procs_[ctx.proc];
  slot.count++;
  co_await rt->migrate(ctx, 7, 16);
  auto& fresh = rt->procs_[ctx.proc];  // re-derived: new processor's slot
  fresh.count++;
}

void good_unused_after_migrate(Rt* rt, Ctx& ctx) {
  auto& slot = rt->procs_[ctx.proc];
  slot.count++;
  co_await rt->migrate(ctx, 7, 16);
}

void good_non_proc_reference(Rt* rt, Ctx& ctx, Slot* table) {
  auto& node = table[3];  // global simulation state, not proc-local
  co_await rt->migrate(ctx, 7, 16);
  node.count++;
}

}  // namespace fixture
