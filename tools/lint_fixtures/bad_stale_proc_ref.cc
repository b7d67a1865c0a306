// simlint fixture: a reference to processor-local state held across a
// migration. NOT compiled — pattern food for tools/simlint --self-test.
#include <cstdint>

namespace fixture {

struct Slot {
  std::uint64_t count = 0;
};

struct Ctx {
  unsigned proc;
};

struct Obj {};

struct Rt {
  Slot procs_[64];
  void* migrate(Ctx&, int, unsigned);
};

void bad_ref_across_migrate(Rt* rt, Ctx& ctx) {
  auto& slot = rt->procs_[ctx.proc];
  slot.count++;  // fine: still on the declaring processor
  co_await rt->migrate(ctx, 7, 16);
  slot.count++;  // EXPECT-LINT: CL002
}

void bad_ptr_across_migrate_group(Rt* rt, Ctx& ctx) {
  Slot* here = &rt->procs_[ctx.proc];
  co_await rt->migrate_group(ctx, 7, 16);
  here->count++;  // EXPECT-LINT: CL002
}

// core::approach was how the applications migrated: it moved the
// activation (or the object) before each access, so it re-bound ctx.proc.
void bad_ref_across_approach(Rt* rt, Ctx& ctx, int mech, Obj& obj) {
  auto& slot = rt->procs_[ctx.proc];
  co_await core::approach(ctx, mech, obj, 8, 96);
  slot.count++;  // EXPECT-LINT: CL002
}

// core::visit is how they migrate now: it hops (or attracts the object)
// and then calls the method, so its body's result arrives at the data.
void bad_ref_across_visit(Rt* rt, Ctx& ctx, int mech, Obj& obj, Obj& body) {
  auto& slot = rt->procs_[ctx.proc];
  const int got = co_await core::visit(ctx, mech, obj, {}, 8, 96, body);
  slot.count += got;  // EXPECT-LINT: CL002
}

// The applications reach core::visit through their node-access layer:
// awaiting a locked update, a node visit or a layer's at_node (or call_at)
// may leave the activation on the node's processor.
void bad_ref_across_update_locked(Rt* rt, Ctx& ctx, int acc, Obj& edit) {
  auto& slot = rt->procs_[ctx.proc];
  const auto u = co_await update_locked(ctx, acc, ctx.proc, 3, 42, edit);
  slot.count += u;  // EXPECT-LINT: CL002
}

void bad_ptr_across_at_node(Rt* rt, Ctx& ctx, int acc, Obj& body) {
  Slot* here = &rt->procs_[ctx.proc];
  const int port = co_await acc.at_node(ctx, 3, body);
  here->count += port;  // EXPECT-LINT: CL002
}

}  // namespace fixture
