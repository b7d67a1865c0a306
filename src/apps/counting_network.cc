#include "apps/counting_network.h"

#include <bit>
#include <functional>
#include <stdexcept>

#include "policy/policy.h"

namespace cm::apps {

namespace {

/// Deterministic per-visit work variance (SplitMix64 of the visit identity).
sim::Cycles jitter(sim::Cycles amount, std::uint64_t a, std::uint64_t b) {
  if (amount == 0) return 0;
  std::uint64_t z = (a * 0x9e3779b97f4a7c15ULL) ^ (b + 0xbf58476d1ce4e5b9ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) % (amount + 1);
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
    brt_[b].home = home;
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
      c.home = brt_[b].home;
      c.oid = rt_->objects().create(c.home);
      c.mobile = std::make_unique<core::MobileObject>(*rt_, c.oid, 4);
      if (mem_ != nullptr) c.addr = mem_->alloc(c.home, 4);
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

sim::Task<int> CountingNetwork::visit_balancer(core::Ctx& ctx,
                                               core::Mechanism mech,
                                               unsigned b) {
  BalancerRt& rtb = brt_[b];
  const sim::ProcId requester = ctx.proc;
  if (sim::Tracer* tr = rt_->tracer()) {
    tr->record(sim::TraceEvent::kBalancerVisit, ctx.proc,
               {{"balancer", b}, {"stage", wiring_.balancers[b].stage}});
  }
  if (mech == core::Mechanism::kSharedMemory) {
    // A balancer is a lock-protected record: acquire its spin lock (the
    // contended-handoff invalidation storms are the heart of shared
    // memory's bandwidth appetite here), read the read-shared wiring
    // line, update the write-shared toggle line, release.
    co_await rtb.lock->acquire(ctx.proc);
    co_await mem_->read(ctx.proc, rtb.config_addr, 16);
    co_await mem_->write(ctx.proc, rtb.toggle_addr, 4);
    co_await rt_->compute(
        ctx, p_.balancer_work +
                 jitter(p_.work_jitter, b,
                        static_cast<std::uint64_t>(rtb.passed)));
    const int port = rtb.toggle;
    rtb.toggle ^= 1;
    ++rtb.passed;
    co_await rtb.lock->release(ctx.proc);
    co_return port;
  }
  if (core::moves_to_data(mech)) {
    // <<< the annotation: move this activation to the balancer >>>
    co_await core::approach(ctx, mech, *rtb.mobile, p_.frame_words,
                            p_.thread_state_words);
  }
  // The instance-method call (local after a migration or attraction).
  const core::CallOpts opts{p_.rpc_arg_words, p_.rpc_ret_words,
                            p_.rpc_short_methods};
  co_return co_await rt_->call(
      ctx, rtb.oid, opts,
      [this, b, &rtb, requester](core::Ctx& callee) -> sim::Task<int> {
        if (policy_ != nullptr) {
          // Toggling is a write; the requester captured at procedure entry
          // is the profile's accessor (the body runs at the object's home).
          policy_->on_access(rtb.oid, requester, /*write=*/true);
        }
        co_await rt_->compute(
            callee, p_.balancer_work +
                        jitter(p_.work_jitter, b,
                               static_cast<std::uint64_t>(rtb.passed)));
        const int port = rtb.toggle;
        rtb.toggle ^= 1;
        ++rtb.passed;
        co_return port;
      });
}

sim::Task<long> CountingNetwork::visit_counter(core::Ctx& ctx,
                                               core::Mechanism mech,
                                               unsigned wire) {
  CounterRt& c = counters_[wire];
  const sim::ProcId requester = ctx.proc;
  if (mech == core::Mechanism::kSharedMemory) {
    co_await mem_->write(ctx.proc, c.addr, 4);
    co_await rt_->compute(ctx, p_.counter_work);
    co_return static_cast<long>(wire) +
        static_cast<long>(p_.width) * counts_[wire]++;
  }
  if (core::moves_to_data(mech)) {
    co_await core::approach(ctx, mech, *c.mobile, p_.frame_words,
                            p_.thread_state_words);
  }
  const core::CallOpts opts{p_.rpc_arg_words, p_.rpc_ret_words,
                            p_.rpc_short_methods};
  co_return co_await rt_->call(
      ctx, c.oid, opts,
      [this, wire, &c, requester](core::Ctx& callee) -> sim::Task<long> {
        if (policy_ != nullptr) {
          policy_->on_access(c.oid, requester, /*write=*/true);
        }
        co_await rt_->compute(callee, p_.counter_work);
        co_return static_cast<long>(wire) +
            static_cast<long>(p_.width) * counts_[wire]++;
      });
}

sim::Task<long> CountingNetwork::get_next(core::Ctx& ctx,
                                          core::Mechanism mech,
                                          unsigned enter_wire) {
  if (enter_wire >= wiring_.width) {
    throw std::out_of_range("CountingNetwork::get_next: no such entry wire");
  }
  Target t{false, wiring_.entry[enter_wire]};
  while (!t.is_output) {
    const unsigned b = t.index;
    const int port = co_await visit_balancer(ctx, mech, b);
    t = wiring_.balancers[b].out[port];
  }
  co_return co_await visit_counter(ctx, mech, t.index);
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
