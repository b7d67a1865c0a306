#include "apps/workload.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/btree.h"
#include "apps/counting_network.h"
#include "check/report.h"
#include "core/object.h"
#include "core/runtime.h"
#include "net/constant_net.h"
#include "net/faulty_net.h"
#include "net/mesh_net.h"
#include "shmem/coherent_memory.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/rng.h"
#include "sim/task.h"
#include "sim/tracer.h"

namespace cm::apps {

namespace {

using core::Ctx;
using core::Mechanism;
using sim::Cycles;
using sim::ProcId;
using sim::Task;

/// Shared control block for a measurement run. The measurement window is
/// half-open, [warm_at, end_at), for BOTH the op counter and the traffic
/// snapshots: the warm/end snapshot events carry lane-0 labels (scheduled
/// at setup time), so they run before any same-cycle runtime event — an op
/// or word landing exactly on a boundary cycle is therefore counted by
/// exactly one window.
struct RunCtl {
  Cycles warm_at = 0;
  Cycles end_at = 0;
  bool stop = false;
  long ops = 0;
  // Fail-stop bookkeeping: operations abandoned with a typed core::FtError.
  long lost_ops = 0;
  net::NetStats at_warm;  // traffic snapshots at the window's bounds
  net::NetStats at_end;
  // Live-requester count; the detector to shut down when the last requester
  // exits (its periodic sweep would otherwise keep the event queue alive
  // forever).
  unsigned live = 0;
  ft::FtLayer* ftl = nullptr;
};

/// A requester finished: the last one out stops the failure detector so the
/// engine can drain.
void requester_exit(RunCtl& ctl) {
  if (--ctl.live == 0 && ctl.ftl != nullptr) ctl.ftl->stop();
}

void count_op(RunCtl& ctl, const sim::Engine& eng) {
  const Cycles now = eng.now();
  if (now >= ctl.warm_at && now < ctl.end_at) ++ctl.ops;
}

Task<> counting_requester(core::Runtime* rt, CountingNetwork* cn,
                          Mechanism mech, ProcId home, std::uint64_t seed,
                          Cycles think, long fixed_ops, RunCtl* ctl) {
  Ctx ctx{rt, home};
  sim::Rng rng(seed);
  const sim::Engine& eng = rt->machine().engine();
  for (long done = 0; !ctl->stop; ++done) {
    if (fixed_ops > 0 && done >= fixed_ops) break;
    // Each request enters on a (deterministically) random wire, as counting
    // network clients do in practice.
    const auto wire = static_cast<unsigned>(rng.below(cn->width()));
    try {
      (void)co_await cn->get_next(ctx, mech, wire);
      // Bring the value (and, under migration, the activation) back home.
      co_await rt->return_home(ctx, home, 2);
      count_op(*ctl, eng);
    } catch (const core::FtError&) {
      // Only thrown with fault tolerance installed: the operation touched a
      // lost object or exhausted its retry budget. Abandon it gracefully
      // and carry on from home.
      ++ctl->lost_ops;
      ctx.proc = home;
    }
    if (think > 0) co_await rt->machine().sleep(think);
  }
  requester_exit(*ctl);
}

Task<> btree_requester(core::Runtime* rt, DistributedBTree* bt,
                       Mechanism mech, ProcId home, Cycles think,
                       double insert_ratio, std::uint64_t key_space,
                       double affinity, std::uint64_t slice_base,
                       std::uint64_t slice_size, std::uint64_t seed,
                       long fixed_ops, RunCtl* ctl) {
  Ctx ctx{rt, home};
  sim::Rng rng(seed);
  const sim::Engine& eng = rt->machine().engine();
  for (long done = 0; !ctl->stop; ++done) {
    if (fixed_ops > 0 && done >= fixed_ops) break;
    // Key skew: the affinity test must not touch the RNG when the knob is
    // off, so affinity == 0 draws stay bit-identical to the pre-knob runs.
    std::uint64_t key;
    if (affinity > 0.0 && rng.uniform() < affinity) {
      key = slice_base + rng.below(slice_size);
    } else {
      key = rng.below(key_space);
    }
    try {
      if (rng.uniform() < insert_ratio) {
        (void)co_await bt->insert(ctx, mech, key, key);
      } else {
        (void)co_await bt->lookup(ctx, mech, key);
      }
      count_op(*ctl, eng);
    } catch (const core::FtError&) {
      // See counting_requester. B-tree crash scenarios re-home node state
      // (never condemn it — an ObjectLostError unwinding past a held node
      // lock would strand its waiters), so this catch only fires on
      // retry-budget exhaustion.
      ++ctl->lost_ops;
      ctx.proc = home;
    }
    if (think > 0) co_await rt->machine().sleep(think);
  }
  requester_exit(*ctl);
}

/// The counting network behind run_stack's four calls: build it (the
/// constructor), hand it the placement policy, spawn requester `i` on the
/// runtime, read its end state. Balancers occupy the first processors;
/// requesters follow.
class CountingApp {
 public:
  using Config = CountingConfig;
  static ProcId procs(const Config& cfg) {
    return static_cast<ProcId>(
        BitonicWiring::build(cfg.width).balancers.size());
  }
  CountingApp(const Config& cfg, core::Runtime& rt, shmem::CoherentMemory* mem)
      : cfg_(cfg), cn_(rt, mem, {.width = cfg.width}) {}
  void set_policy(policy::PolicyEngine* pol) { cn_.set_policy(pol); }
  Task<> requester(core::Runtime& rt, unsigned i, ProcId home, RunCtl& ctl) {
    return counting_requester(&rt, &cn_, cfg_.scheme.mechanism, home,
                              cfg_.seed * 7919 + i, cfg_.think,
                              cfg_.ops_per_requester, &ctl);
  }
  void end_state(RunStats& out) const {
    out.total_exited = cn_.total_exited();
    out.step_property = cn_.has_step_property();
  }

 private:
  const Config& cfg_;
  CountingNetwork cn_;
};

/// The B-tree behind run_stack's four calls. Building it also bulk-loads the
/// paper's tree, so the policy and ft layers that follow see every node.
/// Node processors come first; requesters follow.
class BTreeApp {
 public:
  using Config = BTreeConfig;
  static ProcId procs(const Config& cfg) { return cfg.node_procs; }
  BTreeApp(const Config& cfg, core::Runtime& rt, shmem::CoherentMemory* mem)
      : cfg_(cfg),
        bt_(rt, mem,
            {.max_entries = cfg.max_entries,
             .node_procs = cfg.node_procs,
             .seed = cfg.seed,
             .replication = cfg.scheme.replication}) {
    // Even keys only, so later random inserts (any key in [0, 2n)) hit a
    // 50% fresh-key rate.
    std::vector<std::uint64_t> keys(cfg.nkeys);
    for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 2 * i;
    bt_.bulk_load(keys);
  }
  void set_policy(policy::PolicyEngine* pol) { bt_.set_policy(pol); }
  Task<> requester(core::Runtime& rt, unsigned i, ProcId home, RunCtl& ctl) {
    const std::uint64_t key_space = 2 * std::uint64_t{cfg_.nkeys};
    const std::uint64_t slice =
        std::max<std::uint64_t>(1, key_space / cfg_.requesters);
    return btree_requester(&rt, &bt_, cfg_.scheme.mechanism, home,
                           cfg_.think, cfg_.insert_ratio, key_space,
                           cfg_.key_affinity, i * slice, slice,
                           cfg_.seed * 1000003 + i, cfg_.ops_per_requester,
                           &ctl);
  }
  void end_state(RunStats& out) const {
    out.btree_keys = bt_.num_keys();
    out.btree_digest = bt_.digest_host();
    out.invariants_ok = bt_.check_invariants();
  }

 private:
  const Config& cfg_;
  DistributedBTree bt_;
};

/// Assemble the machine for one run, run it, and collect its RunStats. The
/// construction order is the contract: the tracer and checker precede
/// everything they observe; the locator precedes the application so its
/// create hook sees every object; the policy and ft layers follow the
/// application so every object they manage already exists. Optional layers
/// are built only when enabled, so an off knob leaves the run bit-identical
/// to a build without that layer.
template <class App>
RunStats run_stack(const typename App::Config& cfg) {
  if (cfg.scheme.mechanism == Mechanism::kSharedMemory &&
      cfg.faults.active() && cfg.faults.affect_coherence) {
    // Coherence messages resume their requesters directly, with nothing to
    // retransmit or deduplicate them: one drop strands a requester, one
    // duplicate resumes a frame that has already finished.
    throw std::invalid_argument(
        "shared memory cannot run under a fault plan that faults coherence "
        "traffic (FaultPlan::affect_coherence)");
  }
  sim::Engine eng;
  const ProcId app_procs = App::procs(cfg);
  const auto nprocs = static_cast<ProcId>(app_procs + cfg.requesters);
  std::unique_ptr<sim::Tracer> tracer;
  if (!cfg.trace_path.empty()) {
    tracer = std::make_unique<sim::Tracer>(eng);
    eng.set_tracer(tracer.get());
  }
  sim::Machine machine(eng, nprocs);
  std::unique_ptr<check::Checker> checker;
  if (cfg.check) {
    checker = std::make_unique<check::Checker>(eng, nprocs, cfg.check_cfg);
    eng.set_checker(checker.get());
  }
  std::unique_ptr<net::Network> base_network;
  if (cfg.mesh) {
    base_network = std::make_unique<net::MeshNetwork>(eng, nprocs);
  } else {
    base_network = std::make_unique<net::ConstantNetwork>(eng);
  }
  // Chaos mode: only an active fault plan installs the fault injector and
  // the reliable transport, so fault-free runs stay bit-identical.
  std::unique_ptr<net::Network> faulty_net;
  if (cfg.faults.active()) {
    faulty_net =
        std::make_unique<net::FaultyNetwork>(eng, *base_network, cfg.faults);
  }
  net::Network& network = faulty_net ? *faulty_net : *base_network;
  std::unique_ptr<shmem::CoherentMemory> mem;
  if (cfg.scheme.mechanism == Mechanism::kSharedMemory) {
    shmem::ProtocolParams pp;
    pp.hw_sharer_pointers = cfg.limitless_pointers;
    mem = std::make_unique<shmem::CoherentMemory>(machine, network,
                                                  shmem::CacheParams{}, pp);
  }
  core::ObjectSpace objects;
  core::Runtime rt(machine, network, objects, cfg.scheme.cost_model());
  if (faulty_net != nullptr) rt.enable_reliability(cfg.reliable);
  std::unique_ptr<loc::Locator> locator;
  if (cfg.locator.mode == loc::Locality::kDistributed) {
    locator = std::make_unique<loc::Locator>(rt, cfg.locator);
  }
  App app(cfg, rt, mem.get());
  std::unique_ptr<policy::PolicyEngine> pol;
  if (cfg.policy.enabled) {
    pol = std::make_unique<policy::PolicyEngine>(rt, cfg.policy);
    app.set_policy(pol.get());
    if (locator != nullptr) locator->set_chooser(&pol->chooser());
    pol->start();
  }
  std::unique_ptr<ft::FtLayer> ftl;
  if (cfg.ft.enabled) {
    ftl = std::make_unique<ft::FtLayer>(rt, cfg.ft, locator.get());
    ftl->note_plan(cfg.faults);
    ftl->start();
  }

  const bool fixed = cfg.ops_per_requester > 0;
  RunCtl ctl;
  ctl.warm_at = fixed ? 0 : cfg.window.warmup;
  ctl.end_at = fixed ? ~Cycles{0} : cfg.window.warmup + cfg.window.measure;
  ctl.live = cfg.requesters;
  ctl.ftl = ftl.get();
  for (unsigned i = 0; i < cfg.requesters; ++i) {
    sim::detach(
        app.requester(rt, i, static_cast<ProcId>(app_procs + i), ctl));
  }
  if (!fixed) {
    // The warm/end traffic snapshots bound the measurement window; the end
    // snapshot also stops the requesters.
    eng.at(ctl.warm_at, [&network, &ctl] { ctl.at_warm = network.stats(); });
    eng.at(ctl.end_at, [&network, &ctl] {
      ctl.at_end = network.stats();
      ctl.stop = true;
    });
  }
  eng.run();

  RunStats out;
  out.ops = ctl.ops;
  out.window = fixed ? eng.now() : cfg.window.measure;
  const net::NetStats& at_end = fixed ? network.stats() : ctl.at_end;
  out.words = at_end.words - ctl.at_warm.words;
  out.messages = at_end.messages - ctl.at_warm.messages;
  if (mem != nullptr) out.cache_hit_rate = mem->stats().hit_rate();
  out.runtime = rt.stats();
  out.net = network.stats();
  out.completed_at = eng.now();
  // Exclude the driver's two snapshot events so the count covers workload
  // events only.
  out.events_executed = eng.events_executed() - (fixed ? 0 : 2);
  out.clamped_events = eng.clamped_events();
  app.end_state(out);
  out.policy_enabled = pol != nullptr;
  if (pol != nullptr) out.policy = pol->stats();
  out.ft_enabled = ftl != nullptr;
  if (ftl != nullptr) {
    out.ft = ftl->stats();
    out.ft_lost_ops = ctl.lost_ops;
  }
  out.locator_enabled = locator != nullptr;
  if (locator != nullptr) out.loc = locator->stats();
  if (checker != nullptr) {
    checker->finalize();
    out.checker_enabled = true;
    out.check = checker->stats();
    out.check_violations = checker->records();
  }
  if (tracer != nullptr && tracer->write_chrome_json(cfg.trace_path)) {
    out.trace_path = cfg.trace_path;
  }
  return out;
}

}  // namespace

RunStats run_counting(const CountingConfig& cfg) {
  return run_stack<CountingApp>(cfg);
}

RunStats run_btree(const BTreeConfig& cfg) { return run_stack<BTreeApp>(cfg); }

void put_run_stats(core::Metrics& m, const RunStats& s) {
  m.put("ops", s.ops);
  m.put("window", s.window);
  m.put("words", s.words);
  m.put("messages", s.messages);
  m.put("throughput_per_1000", s.throughput_per_1000());
  m.put("words_per_10", s.words_per_10());
  m.put("cache_hit_rate", s.cache_hit_rate);
  m.put("completed_at", s.completed_at);
  m.put("sim.events_executed", s.events_executed);
  m.put("sim.clamped_events", s.clamped_events);
  m.put("total_exited", s.total_exited);
  m.put("step_property", s.step_property);
  m.put("btree_keys", static_cast<std::uint64_t>(s.btree_keys));
  char digest[32];
  std::snprintf(digest, sizeof digest, "0x%016" PRIx64, s.btree_digest);
  m.put("btree_digest", digest);
  m.put("invariants_ok", s.invariants_ok);
  if (!s.trace_path.empty()) m.put("trace", s.trace_path);
  if (s.ft_enabled) {
    ft::put_ft_stats(m, s.ft);
    m.put("ft.lost_ops", s.ft_lost_ops);
  }
  if (s.policy_enabled) policy::put_policy_stats(m, s.policy);
  if (s.locator_enabled) loc::put_loc_stats(m, s.loc);
  if (s.checker_enabled) check::put_check_stats(m, s.check);
  core::put_rt_stats(m, s.runtime);
  core::put_net_stats(m, s.net);
}

}  // namespace cm::apps
