// samesim: the same-simulation witness. Runs a fixed corpus of tiny
// fixed-work configurations and prints one line per config: its name, the
// events the engine executed, the engine's event hash (sim::Engine::
// event_hash: every event's time, label and home, in order) and a digest of
// the app's end state (for the shared-memory micro-config, of the memory's
// counters). A refactor that claims to change nothing must leave
// every line as it was; `tools/goldens` hashes this output.
//
// Each config runs three times: plain, traced and checked. The observers
// must not change the simulation they watch, so the program exits 1 unless
// both observed runs reproduce the plain run's event count and hash.
//
// Usage: samesim   (writes a trace per config to the working directory and
//                   deletes each once written)
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "apps/workload.h"
#include "core/mechanism.h"
#include "shmem/coherent_memory.h"
#include "sim/task.h"

namespace {

using cm::apps::BTreeConfig;
using cm::apps::CountingConfig;
using cm::apps::RunStats;
using cm::core::Mechanism;
using cm::core::Scheme;

/// What a corpus entry runs: one of the two apps, or the shared-memory
/// micro-config (`run_memory`).
enum class Kind { kCounting, kBTree, kMemory };

/// One corpus entry: a name and how to run it with a given observer set.
struct Config {
  std::string name;
  Kind kind;
  CountingConfig counting;
  BTreeConfig tree;
  bool invalidates = false;  // the run must invalidate replicas
};

CountingConfig counting(Mechanism m) {
  CountingConfig cfg;
  cfg.scheme = Scheme{m, false, false};
  cfg.requesters = 8;
  cfg.ops_per_requester = 20;
  return cfg;
}

BTreeConfig btree(Mechanism m) {
  BTreeConfig cfg;
  cfg.scheme = Scheme{m, false, false};
  cfg.nkeys = 400;
  cfg.max_entries = 10;
  cfg.node_procs = 8;
  cfg.requesters = 6;
  cfg.ops_per_requester = 25;
  return cfg;
}

std::vector<Config> corpus() {
  std::vector<Config> out;
  auto add_counting = [&out](std::string name, const CountingConfig& c) {
    out.push_back({std::move(name), Kind::kCounting, c, {}});
  };
  auto add_btree = [&out](std::string name, const BTreeConfig& b) {
    out.push_back({std::move(name), Kind::kBTree, {}, b});
  };
  const struct {
    const char* name;
    Mechanism m;
  } mechanisms[] = {{"rpc", Mechanism::kRpc},
                    {"cp", Mechanism::kMigration},
                    {"sm", Mechanism::kSharedMemory},
                    {"obj", Mechanism::kObjectMigration},
                    {"tm", Mechanism::kThreadMigration}};
  for (const auto& [name, m] : mechanisms) {
    add_counting(std::string("count_") + name, counting(m));
  }
  for (const auto& [name, m] : mechanisms) {
    add_btree(std::string("btree_") + name, btree(m));
  }

  // Hardware support and replication under CP and RPC.
  CountingConfig c = counting(Mechanism::kMigration);
  c.scheme.hw_support = true;
  add_counting("count_cp_hw", c);
  for (const auto& [name, m] :
       {mechanisms[0], mechanisms[1]}) {  // RPC and CP
    BTreeConfig b = btree(m);
    b.scheme.hw_support = true;
    add_btree(std::string("btree_") + name + "_hw", b);
    b.scheme.replication = true;
    add_btree(std::string("btree_") + name + "_repl_hw", b);
    b.scheme.hw_support = false;
    add_btree(std::string("btree_") + name + "_repl", b);
  }
  // A fault-free run whose writers invalidate the replicated root: a tree
  // of two levels, so every leaf split rewrites the root that lookups have
  // replicated.
  BTreeConfig inv = btree(Mechanism::kRpc);
  inv.scheme.replication = true;
  inv.nkeys = 16;
  inv.max_entries = 6;
  out.push_back({"btree_rpc_repl_invalidate", Kind::kBTree, {}, inv, true});

  // The distributed locator.
  c = counting(Mechanism::kMigration);
  c.locator.mode = cm::loc::Locality::kDistributed;
  add_counting("count_cp_locator", c);
  BTreeConfig b = btree(Mechanism::kRpc);
  b.locator.mode = cm::loc::Locality::kDistributed;
  add_btree("btree_rpc_locator", b);

  // Loss with duplicates and delays, over the reliable transport; the
  // B-tree's invalidation rounds ride it too.
  c = counting(Mechanism::kMigration);
  c.faults.rates = {.drop = 0.05, .duplicate = 0.05, .delay = 0.05};
  add_counting("count_cp_loss", c);
  inv.faults.rates = {.drop = 0.05, .duplicate = 0.05, .delay = 0.05};
  add_btree("btree_rpc_repl_loss", inv);

  // A NIC crash, detected and recovered by ft.
  c = counting(Mechanism::kMigration);
  c.faults.nic_fail_at[2] = 5'000;
  c.ft.enabled = true;
  add_counting("count_cp_crash_ft", c);

  // The placement policy, rebalancing and flipping phases.
  b = btree(Mechanism::kRpc);
  b.mesh = false;
  b.requesters = 8;
  b.nkeys = 200;
  b.max_entries = 20;
  b.insert_ratio = 0.3;
  b.key_affinity = 0.95;
  b.ops_per_requester = 60;
  b.policy.enabled = true;
  b.policy.sample_interval = 15'000;
  b.policy.global_every = 1;
  b.policy.min_accesses = 3;
  b.policy.attract_share = 0.55;
  b.policy.degree_of_migration = 4;
  b.policy.phase_adaptive = true;
  add_btree("btree_rpc_policy_phase", b);

  // Prefetches and MSHR merges, which neither app issues.
  out.push_back({"sm_prefetch_merge", Kind::kMemory, {}, {}});
  return out;
}

/// FNV-1a over the app-level end state.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

std::uint64_t app_digest(const RunStats& r) {
  Digest d;
  d.add(static_cast<std::uint64_t>(r.ops));
  d.add(static_cast<std::uint64_t>(r.total_exited));
  d.add(r.step_property ? 1 : 0);
  d.add(r.btree_keys);
  d.add(r.btree_digest);
  d.add(r.invariants_ok ? 1 : 0);
  d.add(static_cast<std::uint64_t>(r.ft_lost_ops));
  return d.h;
}

/// One run as the witness prints it.
struct Outcome {
  RunStats stats;
  std::uint64_t digest;  // the app's end state, or the memory's counters
};

/// The shared-memory micro-config's shape: processors 0 to kWalkers - 1
/// walk the same kBlocks blocks homed on processor kWalkers, kStride bytes
/// apart, so that every block falls in the same sets of a 64 KB two-way
/// cache and a third block evicts the first.
constexpr cm::sim::ProcId kWalkers = 3;
constexpr unsigned kBlocks = 6;
constexpr unsigned kBlockBytes = 64;  // 4 lines
constexpr std::uint64_t kStride = 32 * 1024;

/// One walker: it prefetches block i + 1 while it works on block i, so its
/// demand accesses to a block merge with the prefetch still in flight.
/// Every third block a walker reaches is written, which upgrades its copy
/// and invalidates the others'; walker 1 writes where it would read, so its
/// write merges with a read prefetch and then upgrades. Written blocks stay
/// dirty, and the prefetch two blocks on evicts them.
cm::sim::Task<> walk(cm::apps::Stack* s, cm::shmem::Addr base,
                     cm::sim::ProcId p) {
  cm::shmem::CoherentMemory& mem = *s->mem;
  mem.prefetch(p, base, kBlockBytes);
  for (unsigned i = 0; i < kBlocks; ++i) {
    const cm::shmem::Addr block = base + i * kStride;
    const bool write = (i + p) % 3 == 0;
    if (write && p == 1) {
      co_await mem.write(p, block, kBlockBytes);
    } else {
      co_await mem.read(p, block, kBlockBytes);
    }
    if (i + 1 < kBlocks) mem.prefetch(p, block + kStride, kBlockBytes);
    co_await s->machine.compute(p, 8 + 5 * p);
    if (write && p != 1) co_await mem.write(p, block, kBlockBytes);
  }
}

/// The shared-memory micro-config on a bare Stack with two LimitLESS
/// pointers, so a third sharer traps.
Outcome run_memory(const std::string& trace, bool check) {
  cm::apps::StackConfig cfg =
      cm::apps::bare_config(Mechanism::kSharedMemory);
  cfg.limitless_pointers = 2;
  cfg.trace_path = trace;
  cfg.check = check;
  cm::apps::Stack s(kWalkers + 1, cfg);
  const cm::shmem::Addr base = s.mem->alloc(kWalkers, kBlocks * kStride);
  for (cm::sim::ProcId p = 0; p < kWalkers; ++p) {
    cm::sim::detach(walk(&s, base, p));
  }
  s.eng.run();
  Outcome o{{}, 0};
  o.stats.events_executed = s.eng.events_executed();
  s.collect(o.stats);
  const cm::shmem::MemStats& m = s.mem->stats();
  Digest d;
  for (const std::uint64_t v :
       {m.read_hits, m.read_misses, m.write_hits, m.write_misses, m.upgrades,
        m.invalidations, m.fetches, m.writebacks, m.evictions,
        m.limitless_traps, m.prefetches, m.mshr_merges,
        o.stats.completed_at}) {
    d.add(v);
  }
  o.digest = d.h;
  return o;
}

/// Run `c` with the given observers; a trace is deleted once written.
Outcome run(const Config& c, const std::string& trace, bool check) {
  Outcome o{{}, 0};
  if (c.kind == Kind::kMemory) {
    o = run_memory(trace, check);
  } else if (c.kind == Kind::kBTree) {
    BTreeConfig cfg = c.tree;
    cfg.trace_path = trace;
    cfg.check = check;
    o.stats = cm::apps::run_btree(cfg);
  } else {
    CountingConfig cfg = c.counting;
    cfg.trace_path = trace;
    cfg.check = check;
    o.stats = cm::apps::run_counting(cfg);
  }
  if (c.kind != Kind::kMemory) o.digest = app_digest(o.stats);
  if (!trace.empty()) std::remove(trace.c_str());
  return o;
}

}  // namespace

int main() {
  int status = 0;
  for (const Config& c : corpus()) {
    const Outcome outcome = run(c, "", false);
    const RunStats& plain = outcome.stats;
    std::printf("%-28s events=%-8" PRIu64 " hash=0x%016" PRIx64
                " digest=0x%016" PRIx64 "\n",
                c.name.c_str(), plain.events_executed, plain.event_hash,
                outcome.digest);
    if (c.invalidates && plain.runtime.replica_invalidations == 0) {
      std::fprintf(stderr, "%s: no replica was invalidated\n",
                   c.name.c_str());
      status = 1;
    }
    const RunStats traced =
        run(c, "samesim_" + c.name + ".trace.json", false).stats;
    const RunStats checked = run(c, "", true).stats;
    for (const auto& [how, r] : {std::pair{"traced", &traced},
                                 std::pair{"checked", &checked}}) {
      if (r->events_executed != plain.events_executed ||
          r->event_hash != plain.event_hash) {
        std::fprintf(stderr,
                     "%s: the %s run executed %" PRIu64
                     " events, hash 0x%016" PRIx64 "; the plain run %" PRIu64
                     ", 0x%016" PRIx64 "\n",
                     c.name.c_str(), how, r->events_executed, r->event_hash,
                     plain.events_executed, plain.event_hash);
        status = 1;
      }
    }
  }
  return status;
}
