// Object-location ablation: what the ObjectSpace oracle has been hiding.
//
// Every other bench resolves an object's home for free through an
// omniscient table. This one enables src/loc — directory shards, bounded
// per-processor translation caches, Emerald-style forwarding chains — and
// measures what mechanistic location costs:
//
//  (a) per mechanism: counting-network throughput with the oracle vs the
//      distributed locator, plus cache hit rate and forwarding-chain
//      statistics. Shared memory is the control: its accesses go through
//      hardware global addresses, not the software locator, so its delta
//      is ~0.
//  (b) translation-cache capacity sweep (0 disables caching: every remote
//      lookup becomes a directory query).
//  (c) directory placement (hash-home vs owner-home) crossed with
//      software vs J-Machine-style hardware GOID translation.
//  (d) forwarding-chain microbenchmark: movers drag a MobileObject around
//      while callers keep invoking it through stale hints — the one
//      workload shape where chains actually grow — sweeping the number of
//      movers.
//
// Optional argv[1]: unified-schema JSON export (default
// ablation_location.json).
#include <cstdio>
#include <vector>

#include "apps/workload.h"
#include "core/metrics.h"
#include "core/mobile.h"
#include "core/runtime.h"
#include "loc/locator.h"
#include "sim/task.h"

#include "bench_util.h"

using cm::apps::CountingConfig;
using cm::apps::RunStats;
using cm::core::Mechanism;
using cm::core::Scheme;
using cm::loc::DirectoryPolicy;
using cm::loc::Locality;
using cm::loc::LocatorConfig;
using cm::loc::LocStats;

namespace {

RunStats run(const Scheme& s, const LocatorConfig& lc) {
  CountingConfig cfg;
  cfg.scheme = s;
  cfg.requesters = 16;
  cfg.locator = lc;
  return cm::apps::run_counting(cfg);
}

void put_row(cm::core::MetricsRegistry* reg, const std::string& label,
             const RunStats& st) {
  if (reg == nullptr) return;
  cm::apps::put_run_stats(reg->record(label), st);
}

void section_mechanisms(cm::core::MetricsRegistry* reg) {
  std::printf("-- (a) oracle vs distributed location, per mechanism --\n");
  std::printf("%-6s%12s%12s%8s%10s%8s%10s%10s\n", "mech", "thr(oracle)",
              "thr(loc)", "delta%", "hit rate", "chains", "mean len",
              "max len");
  const Mechanism mechs[] = {Mechanism::kRpc, Mechanism::kMigration,
                             Mechanism::kObjectMigration,
                             Mechanism::kSharedMemory};
  for (Mechanism m : mechs) {
    Scheme s;
    s.mechanism = m;
    LocatorConfig oracle;  // defaults to kOracle
    LocatorConfig dist;
    dist.mode = Locality::kDistributed;
    const RunStats a = run(s, oracle);
    const RunStats b = run(s, dist);
    const double thr_a = a.throughput_per_1000();
    const double thr_b = b.throughput_per_1000();
    const double delta =
        thr_a == 0.0 ? 0.0 : (thr_b - thr_a) / thr_a * 100.0;
    std::printf("%-6s%12.2f%12.2f%8.1f%10.3f%8llu%10.3f%10llu\n",
                cm::core::mechanism_name(m), thr_a, thr_b, delta,
                b.loc.hit_rate(),
                static_cast<unsigned long long>(b.loc.forwarded),
                b.loc.mean_chain(),
                static_cast<unsigned long long>(b.loc.max_chain));
    put_row(reg, std::string("mech/") + cm::core::mechanism_name(m) +
                     "/oracle",
            a);
    put_row(reg, std::string("mech/") + cm::core::mechanism_name(m) +
                     "/distributed",
            b);
  }
}

void section_cache(cm::core::MetricsRegistry* reg) {
  std::printf("\n-- (b) translation-cache capacity (CP, hash-home) --\n");
  std::printf("%-10s%12s%10s%12s%12s%12s\n", "capacity", "thr", "hit rate",
              "dir queries", "evictions", "messages");
  for (unsigned capacity : {0u, 4u, 16u, 64u, 256u}) {
    Scheme s;
    s.mechanism = Mechanism::kMigration;
    LocatorConfig lc;
    lc.mode = Locality::kDistributed;
    lc.cache_capacity = capacity;
    const RunStats st = run(s, lc);
    std::printf("%-10u%12.2f%10.3f%12llu%12llu%12llu\n", capacity,
                st.throughput_per_1000(), st.loc.hit_rate(),
                static_cast<unsigned long long>(st.loc.dir_queries),
                static_cast<unsigned long long>(st.loc.cache_evictions),
                static_cast<unsigned long long>(st.messages));
    char label[64];
    std::snprintf(label, sizeof label, "cache/%u", capacity);
    put_row(reg, label, st);
  }
}

void section_directory(cm::core::MetricsRegistry* reg) {
  // B-tree rather than counting network: with thousands of node objects
  // spread over 48 processors the two placement policies pick genuinely
  // different shards (in the counting network balancer ids coincide with
  // their home processors, making the policies degenerate to the same map).
  std::printf(
      "\n-- (c) directory placement x GOID translation (CP, B-tree) --\n");
  std::printf("%-24s%12s%10s%12s%12s\n", "variant", "thr", "hit rate",
              "dir local", "dir remote");
  for (const bool owner_home : {false, true}) {
    for (const bool hw_oid : {false, true}) {
      cm::apps::BTreeConfig cfg;
      cfg.scheme.mechanism = Mechanism::kMigration;
      cfg.scheme.hw_oid_only = hw_oid;
      cfg.locator.mode = Locality::kDistributed;
      cfg.locator.directory =
          owner_home ? DirectoryPolicy::kOwnerHome : DirectoryPolicy::kHashHome;
      const RunStats st = cm::apps::run_btree(cfg);
      char label[64];
      std::snprintf(label, sizeof label, "dir/%s/%s",
                    owner_home ? "owner-home" : "hash-home",
                    hw_oid ? "hw-oid" : "sw-oid");
      std::printf("%-24s%12.2f%10.3f%12llu%12llu\n", label,
                  st.throughput_per_1000(), st.loc.hit_rate(),
                  static_cast<unsigned long long>(st.loc.dir_local),
                  static_cast<unsigned long long>(st.loc.dir_queries -
                                                  st.loc.dir_local));
      put_row(reg, label, st);
    }
  }
}

// ---- (d) forwarding-chain microbenchmark -----------------------------------

cm::sim::Task<> mover_thread(cm::core::Runtime* rt, cm::core::MobileObject* m,
                             cm::sim::ProcId p, int rounds) {
  cm::core::Ctx ctx{rt, p};
  for (int i = 0; i < rounds; ++i) {
    co_await m->attract(ctx);
    co_await rt->machine().sleep(50);
  }
}

cm::sim::Task<> caller_thread(cm::core::Runtime* rt, cm::core::ObjectId oid,
                              cm::sim::ProcId p, int calls) {
  cm::core::Ctx ctx{rt, p};
  for (int i = 0; i < calls; ++i) {
    (void)co_await rt->call(
        ctx, oid, cm::core::CallOpts{4, 2, true},
        [rt](cm::core::Ctx& callee) -> cm::sim::Task<int> {
          co_await rt->compute(callee, 20);
          co_return 0;
        });
  }
}

void section_chains(cm::core::MetricsRegistry* reg) {
  std::printf("\n-- (d) forwarding chains: movers vs callers --\n");
  std::printf("%-8s%10s%10s%10s%10s%12s%12s\n", "movers", "moves", "chains",
              "mean len", "max len", "compress", "fallbacks");
  for (const unsigned movers : {1u, 2u, 4u, 8u}) {
    cm::apps::StackConfig cfg = cm::apps::bare_config();
    cfg.locator.mode = Locality::kDistributed;
    cfg.locator.cache_capacity = 8;
    cm::apps::Stack w(2 + movers + 4, cfg);
    const auto oid = w.objects.create(0);
    cm::core::MobileObject mobile(w.rt, oid, 16);
    for (unsigned i = 0; i < movers; ++i) {
      cm::sim::detach(mover_thread(&w.rt, &mobile,
                                   static_cast<cm::sim::ProcId>(2 + i), 40));
    }
    for (unsigned i = 0; i < 4; ++i) {
      cm::sim::detach(caller_thread(
          &w.rt, oid, static_cast<cm::sim::ProcId>(2 + movers + i), 40));
    }
    w.eng.run();
    const LocStats& s = w.locator->stats();
    std::printf("%-8u%10llu%10llu%10.3f%10llu%12llu%12llu\n", movers,
                static_cast<unsigned long long>(s.moves),
                static_cast<unsigned long long>(s.forwarded), s.mean_chain(),
                static_cast<unsigned long long>(s.max_chain),
                static_cast<unsigned long long>(s.compressions),
                static_cast<unsigned long long>(s.fwd_fallbacks));
    if (reg != nullptr) {
      char label[64];
      std::snprintf(label, sizeof label, "chase/%u", movers);
      cm::core::Metrics& m = reg->record(label);
      cm::loc::put_loc_stats(m, s);
      m.put("completed_at", w.eng.now());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  cm::bench::maybe_usage(
      argc, argv, "[out.json]",
      "Object-location ablation: oracle vs distributed locator per "
      "mechanism, cache-capacity and directory-policy sweeps, and a "
      "forwarding-chain microbenchmark; unified-schema JSON export.");
  cm::core::MetricsRegistry reg;
  section_mechanisms(&reg);
  section_cache(&reg);
  section_directory(&reg);
  section_chains(&reg);
  const char* path = argc > 1 ? argv[1] : "ablation_location.json";
  if (!reg.write_json(path)) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return 1;
  }
  std::printf("\nwrote %s (%zu records)\n", path, reg.size());
  return 0;
}
