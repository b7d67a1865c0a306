#include "apps/counting_network.h"

#include <bit>
#include <coroutine>
#include <functional>
#include <stdexcept>

#include "apps/node_access.h"
#include "policy/policy.h"

namespace cm::apps {

using core::Ctx;
using sim::Task;

namespace {

// User code per balancer visit (Table 5: ~150 incl. counter share) and at
// the output counter.
constexpr sim::Cycles kBalancerWork = 120;
constexpr sim::Cycles kCounterWork = 30;
constexpr sim::Cycles kWorkJitter = 24;  // the most jitter() adds
constexpr unsigned kFrameWords = 8;  // migrated activation: 32 bytes (Table 5)
// Whole-thread migration payload (stack + TCB; §2.3 "the amount of state
// to be moved is large").
constexpr unsigned kThreadStateWords = 96;
// General-stub RPC envelopes are much larger than migration frames: the
// paper's measured bandwidth (Tables 1/2) implies ~30 words per RPC message
// vs ~11 per migration message.
constexpr unsigned kRpcArgWords = 10;
constexpr unsigned kRpcRetWords = 8;

/// Deterministic per-visit work variance in [0, kWorkJitter] (cache effects,
/// branches; SplitMix64 of the visit identity): without it identical-cost
/// threads convoy in ways a real machine never sustains.
sim::Cycles jitter(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = (a * 0x9e3779b97f4a7c15ULL) ^ (b + 0xbf58476d1ce4e5b9ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) % (kWorkJitter + 1);
}

/// A yet-unconnected balancer output port during construction.
struct PortRef {
  unsigned bal;
  int port;
};

/// A sub-network under construction: which balancer each input wire enters,
/// and the dangling output ports in output order.
struct Net {
  std::vector<unsigned> in;
  std::vector<PortRef> out;
};

}  // namespace

BitonicWiring BitonicWiring::build(unsigned width) {
  if (width < 2 || !std::has_single_bit(width)) {
    throw std::invalid_argument(
        "BitonicWiring: width must be a power of two >= 2");
  }
  BitonicWiring w;
  w.width = width;

  auto new_balancer = [&w]() -> unsigned {
    w.balancers.push_back({});
    return static_cast<unsigned>(w.balancers.size() - 1);
  };
  auto connect = [&w](PortRef from, unsigned to_balancer) {
    w.balancers[from.bal].out[from.port] = Target{false, to_balancer};
  };

  // Merger[n]: inputs are two bitonic sequences (first and second half).
  // AHS: the even-indexed wires of x and the odd-indexed wires of y feed one
  // Merger[n/2], the rest feed the other; a final rank of n/2 balancers zips
  // the sub-mergers' outputs.
  std::function<Net(unsigned)> merger = [&](unsigned n) -> Net {
    if (n == 2) {
      const unsigned b = new_balancer();
      return Net{{b, b}, {{b, 0}, {b, 1}}};
    }
    const unsigned k = n / 2;
    Net even = merger(k);
    Net odd = merger(k);
    Net r;
    r.in.resize(n);
    for (unsigned i = 0; i < k; ++i) {  // x side (first half)
      r.in[i] = (i % 2 == 0) ? even.in[i / 2] : odd.in[i / 2];
    }
    for (unsigned i = 0; i < k; ++i) {  // y side (second half)
      r.in[k + i] =
          (i % 2 == 1) ? even.in[k / 2 + i / 2] : odd.in[k / 2 + i / 2];
    }
    r.out.resize(n);
    for (unsigned i = 0; i < k; ++i) {
      const unsigned b = new_balancer();
      connect(even.out[i], b);
      connect(odd.out[i], b);
      r.out[2 * i] = PortRef{b, 0};
      r.out[2 * i + 1] = PortRef{b, 1};
    }
    return r;
  };

  // Bitonic[n]: two Bitonic[n/2] halves feeding a Merger[n].
  std::function<Net(unsigned)> bitonic = [&](unsigned n) -> Net {
    if (n == 2) {
      const unsigned b = new_balancer();
      return Net{{b, b}, {{b, 0}, {b, 1}}};
    }
    Net top = bitonic(n / 2);
    Net bot = bitonic(n / 2);
    Net m = merger(n);
    for (unsigned i = 0; i < n / 2; ++i) {
      connect(top.out[i], m.in[i]);
      connect(bot.out[i], m.in[n / 2 + i]);
    }
    Net r;
    r.in = std::move(top.in);
    r.in.insert(r.in.end(), bot.in.begin(), bot.in.end());
    r.out = std::move(m.out);
    return r;
  };

  Net whole = bitonic(width);
  w.entry = whole.in;
  for (unsigned i = 0; i < width; ++i) {
    w.balancers[whole.out[i].bal].out[whole.out[i].port] = Target{true, i};
  }

  // Stages by longest-path relaxation over the DAG.
  bool changed = true;
  while (changed) {
    changed = false;
    for (unsigned b = 0; b < w.balancers.size(); ++b) {
      for (const Target& t : w.balancers[b].out) {
        if (t.is_output) continue;
        const unsigned want = w.balancers[b].stage + 1;
        if (w.balancers[t.index].stage < want) {
          w.balancers[t.index].stage = want;
          changed = true;
        }
      }
    }
  }
  w.depth = 0;
  for (const auto& b : w.balancers) w.depth = std::max(w.depth, b.stage + 1);
  return w;
}

CountingNetwork::CountingNetwork(core::Runtime& rt, shmem::CoherentMemory* mem,
                                 Params p)
    : rt_(&rt),
      mem_(mem),
      p_(p),
      wiring_(BitonicWiring::build(p.width)),
      counts_(p.width, 0) {
  brt_.resize(wiring_.balancers.size());
  for (unsigned b = 0; b < brt_.size(); ++b) {
    const sim::ProcId home =
        p_.first_balancer_proc + static_cast<sim::ProcId>(b);
    brt_[b].oid = rt_->objects().create(home);
    brt_[b].mobile =
        std::make_unique<core::MobileObject>(*rt_, brt_[b].oid, 8);
    if (mem_ != nullptr) {
      brt_[b].toggle_addr = mem_->alloc(home, 4);
      brt_[b].config_addr = mem_->alloc(home, 16);
      brt_[b].lock = std::make_unique<shmem::SpinLock>(*mem_, home);
    }
  }
  // The output counter for wire i lives with the final balancer feeding wire
  // i, so a migrated activation's counter access is local.
  counters_.resize(p_.width);
  for (unsigned b = 0; b < wiring_.balancers.size(); ++b) {
    for (const Target& t : wiring_.balancers[b].out) {
      if (!t.is_output) continue;
      CounterRt& c = counters_[t.index];
      const sim::ProcId home = rt_->objects().home_of(brt_[b].oid);
      c.oid = rt_->objects().create(home);
      c.mobile = std::make_unique<core::MobileObject>(*rt_, c.oid, 4);
      if (mem_ != nullptr) c.addr = mem_->alloc(home, 4);
    }
  }
}

void CountingNetwork::set_policy(policy::PolicyEngine* pol) {
  policy_ = pol;
  if (pol == nullptr) return;
  // Neither balancers nor counters are read-mostly, so none are replicable.
  for (BalancerRt& b : brt_) pol->manage(b.oid, b.mobile.get(), 8, false);
  for (CounterRt& c : counters_) pol->manage(c.oid, c.mobile.get(), 4, false);
}

// ---------------------------------------------------------------------------
// The node-access layer: where a visit runs, and which of its steps are
// remote accesses there
// ---------------------------------------------------------------------------

/// Shared memory: a visit runs at the requester, against coherent lines;
/// a balancer's are under its SpinLock. Visits skip the policy's profile.
class CountingNetwork::Coherent {
 public:
  explicit Coherent(CountingNetwork* cn) : cn_(cn) {}

  template <class F>
  auto at_node(Ctx& ctx, core::MobileObject&, F body) const {
    return RunHere(ctx, body);
  }
  Task<> lock(Ctx& at, BalancerRt& b) const { return b.lock->acquire(at.proc); }
  Task<> unlock(Ctx& at, BalancerRt& b) const {
    return b.lock->release(at.proc);
  }
  shmem::CoherentMemory::Access read(Ctx& at, shmem::Addr a,
                                     unsigned n) const {
    return cn_->mem_->read(at.proc, a, n);
  }
  shmem::CoherentMemory::Access write(Ctx& at, shmem::Addr a,
                                      unsigned n) const {
    return cn_->mem_->write(at.proc, a, n);
  }
  void note_write(core::ObjectId, sim::ProcId) const {}

 private:
  CountingNetwork* cn_;
};

/// Message passing (RPC, CP, OBJ, TM): a visit is a method at the node's
/// home (core::visit), where its state is local and the method runs
/// alone. Every visit is a write in the placement policy's profile.
class CountingNetwork::Messages {
 public:
  Messages(CountingNetwork* cn, core::Mechanism mech) : cn_(cn), mech_(mech) {}

  template <class F>
  auto at_node(Ctx& ctx, core::MobileObject& obj, F body) const {
    return core::visit(ctx, mech_, obj,
                       core::CallOpts{kRpcArgWords, kRpcRetWords,
                                      cn_->p_.rpc_short_methods},
                       kFrameWords, kThreadStateWords, body);
  }
  std::suspend_never lock(Ctx&, BalancerRt&) const { return {}; }
  std::suspend_never unlock(Ctx&, BalancerRt&) const { return {}; }
  std::suspend_never read(Ctx&, shmem::Addr, unsigned) const { return {}; }
  std::suspend_never write(Ctx&, shmem::Addr, unsigned) const { return {}; }
  void note_write(core::ObjectId id, sim::ProcId requester) const {
    if (cn_->policy_ != nullptr) cn_->policy_->on_access(id, requester, true);
  }

 private:
  CountingNetwork* cn_;
  core::Mechanism mech_;
};

// ---------------------------------------------------------------------------
// The traversal, written once over the node-access layer
// ---------------------------------------------------------------------------

Task<long> CountingNetwork::get_next(Ctx& ctx, core::Mechanism mech,
                                     unsigned enter_wire) {
  if (enter_wire >= wiring_.width) {
    return rejected<long>(
        std::out_of_range("CountingNetwork::get_next: no such entry wire"));
  }
  return with_access(
      mech, mem_, Coherent{this}, Messages{this, mech},
      [&](auto acc) { return traverse(ctx, acc, enter_wire); });
}

template <class A>
Task<long> CountingNetwork::traverse(Ctx& ctx, A acc, unsigned enter_wire) {
  Target t{false, wiring_.entry[enter_wire]};
  while (!t.is_output) {
    const unsigned b = t.index;
    BalancerRt& rtb = brt_[b];
    if (sim::Tracer* tr = rt_->tracer()) {
      tr->record(sim::TraceEvent::kBalancerVisit, ctx.proc,
                 {{"balancer", b}, {"stage", wiring_.balancers[b].stage}});
    }
    const sim::ProcId requester = ctx.proc;
    // A lock-protected record: read-shared wiring, write-shared toggle.
    // Under shared memory, contended lock hand-offs and their invalidation
    // storms are the heart of its bandwidth appetite.
    const int port = co_await acc.at_node(
        ctx, *rtb.mobile,
        [this, acc, b, &rtb, requester](Ctx& at) -> Task<int> {
          acc.note_write(rtb.oid, requester);
          co_await acc.lock(at, rtb);
          co_await acc.read(at, rtb.config_addr, 16);
          co_await acc.write(at, rtb.toggle_addr, 4);
          co_await rt_->compute(
              at, kBalancerWork +
                      jitter(b, static_cast<std::uint64_t>(rtb.passed)));
          const int toggle = rtb.toggle;
          rtb.toggle ^= 1;
          ++rtb.passed;
          co_await acc.unlock(at, rtb);
          co_return toggle;
        });
    t = wiring_.balancers[b].out[port];
  }
  const unsigned wire = t.index;
  CounterRt& c = counters_[wire];
  const sim::ProcId requester = ctx.proc;
  co_return co_await acc.at_node(
      ctx, *c.mobile,
      [this, acc, wire, &c, requester](Ctx& at) -> Task<long> {
        acc.note_write(c.oid, requester);
        co_await acc.write(at, c.addr, 4);
        co_await rt_->compute(at, kCounterWork);
        co_return static_cast<long>(wire) +
            static_cast<long>(p_.width) * counts_[wire]++;
      });
}

long CountingNetwork::total_exited() const {
  long sum = 0;
  for (long c : counts_) sum += c;
  return sum;
}

bool CountingNetwork::has_step_property() const {
  // At quiescence a counting network's exit tallies form a step: wire i has
  // ceil((n - i) / w) tokens — non-increasing, adjacent difference <= 1.
  for (std::size_t i = 1; i < counts_.size(); ++i) {
    if (counts_[i] > counts_[i - 1]) return false;
    if (counts_[i - 1] - counts_[i] > 1) return false;
  }
  return true;
}

}  // namespace cm::apps
