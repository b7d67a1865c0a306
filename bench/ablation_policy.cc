// Placement-policy ablation (DESIGN.md §13): what the load-aware policy
// layer buys over the static placement every other bench uses.
//
//  (a) policy ladder on a skewed B-tree — each requester hammers its own
//      key slice (`key_affinity`), so every leaf has a dominant remote
//      accessor. Rows: static placement, observe-only (decisions without
//      actuation), the rebalancer, and rebalancer + phase detector. The
//      rebalancer moves hot leaves to their dominant accessor and cuts
//      remote calls; the phase detector additionally flips read-mostly
//      internal nodes into replication mode.
//  (b) key-affinity sweep — how skewed must the workload be before the
//      rebalancer finds work? At affinity 0 every leaf is uniformly
//      shared and the policy correctly stays quiet.
//  (c) counting-network control — balancers and counters are write-shared
//      by construction; under paper-default hysteresis the rebalancer
//      issues no moves (aggressive thresholds are shown for contrast).
//  (d) degree-of-migration sweep — the per-pass move cap trades
//      convergence speed against move bursts.
//
// Flags: --check installs the invariant checker on every run; repeated
// `--tune key=value` sets AdaptiveChooser tunables by field name (e.g.
// `--tune bounce_rate_cap 0.25` — see core/adaptive.h) for the chooser
// slices the policy feeds and consults. Optional positional argument:
// unified-schema JSON export path (default ablation_policy.json).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "apps/workload.h"
#include "core/adaptive.h"
#include "core/metrics.h"

#include "bench_util.h"

using cm::apps::BTreeConfig;
using cm::apps::CountingConfig;
using cm::apps::RunStats;
using cm::core::Mechanism;
using cm::core::Scheme;
using cm::policy::PolicyConfig;

namespace {

struct Options {
  bool check = false;
  cm::core::AdaptiveChooser::Tunables tunables;
};

/// The rebalancer's showcase: lookup-only RPC B-tree, few keys (so a
/// requester's slice maps to a couple of leaves and per-window access
/// counts clear the decision thresholds), high key affinity.
BTreeConfig skewed_tree(const Options& opt) {
  BTreeConfig cfg;
  cfg.scheme = Scheme{Mechanism::kRpc, false, false};
  cfg.mesh = false;
  cfg.requesters = 8;
  cfg.nkeys = 200;
  cfg.max_entries = 20;
  cfg.insert_ratio = 0.0;
  cfg.key_affinity = 0.95;
  cfg.node_procs = 8;
  cfg.ops_per_requester = 200;
  cfg.check = opt.check;
  return cfg;
}

PolicyConfig rebalance_policy(const Options& opt) {
  PolicyConfig p;
  p.enabled = true;
  p.sample_interval = 15'000;
  p.global_every = 1;
  p.min_accesses = 3;
  p.attract_share = 0.55;
  p.degree_of_migration = 4;
  p.chooser = opt.tunables;
  return p;
}

void put_row(cm::core::MetricsRegistry* reg, const std::string& label,
             const RunStats& st) {
  if (reg == nullptr) return;
  cm::apps::put_run_stats(reg->record(label), st);
}

void print_policy_row(const char* label, const RunStats& st) {
  const std::uint64_t suppressed =
      st.policy.suppressed_cooldown + st.policy.suppressed_bounce +
      st.policy.suppressed_load + st.policy.suppressed_cap;
  std::printf("%-18s%10.2f%14llu%8llu%8llu%12llu%10llu\n", label,
              st.throughput_per_1000(),
              static_cast<unsigned long long>(st.runtime.remote_calls),
              static_cast<unsigned long long>(st.policy.moves_completed),
              static_cast<unsigned long long>(st.policy.flips_on),
              static_cast<unsigned long long>(st.policy.decisions),
              static_cast<unsigned long long>(suppressed));
}

void section_ladder(const Options& opt, cm::core::MetricsRegistry* reg) {
  std::printf("-- (a) policy ladder on the skewed B-tree --\n");
  std::printf("%-18s%10s%14s%8s%8s%12s%10s\n", "policy", "thr",
              "remote calls", "moves", "flips", "decisions", "suppressed");
  {
    const RunStats st = cm::apps::run_btree(skewed_tree(opt));
    print_policy_row("static", st);
    put_row(reg, "ladder/static", st);
  }
  {
    BTreeConfig cfg = skewed_tree(opt);
    cfg.policy = rebalance_policy(opt);
    cfg.policy.observe_only = true;
    cfg.policy.phase_adaptive = true;
    const RunStats st = cm::apps::run_btree(cfg);
    print_policy_row("observe", st);
    put_row(reg, "ladder/observe", st);
  }
  {
    BTreeConfig cfg = skewed_tree(opt);
    cfg.policy = rebalance_policy(opt);
    const RunStats st = cm::apps::run_btree(cfg);
    print_policy_row("rebalance", st);
    put_row(reg, "ladder/rebalance", st);
  }
  {
    BTreeConfig cfg = skewed_tree(opt);
    cfg.policy = rebalance_policy(opt);
    cfg.policy.phase_adaptive = true;
    const RunStats st = cm::apps::run_btree(cfg);
    print_policy_row("rebalance+phase", st);
    put_row(reg, "ladder/rebalance+phase", st);
  }
}

void section_affinity(const Options& opt, cm::core::MetricsRegistry* reg) {
  std::printf("\n-- (b) key-affinity sweep (rebalancer on) --\n");
  std::printf("%-10s%10s%14s%8s%12s\n", "affinity", "thr", "remote calls",
              "moves", "decisions");
  for (const double affinity : {0.0, 0.5, 0.9, 0.99}) {
    BTreeConfig cfg = skewed_tree(opt);
    cfg.key_affinity = affinity;
    cfg.policy = rebalance_policy(opt);
    const RunStats st = cm::apps::run_btree(cfg);
    std::printf("%-10.2f%10.2f%14llu%8llu%12llu\n", affinity,
                st.throughput_per_1000(),
                static_cast<unsigned long long>(st.runtime.remote_calls),
                static_cast<unsigned long long>(st.policy.moves_completed),
                static_cast<unsigned long long>(st.policy.decisions));
    char label[64];
    std::snprintf(label, sizeof label, "affinity/%.2f", affinity);
    put_row(reg, label, st);
  }
}

void section_counting(const Options& opt, cm::core::MetricsRegistry* reg) {
  std::printf("\n-- (c) write-shared counting network (control) --\n");
  std::printf("%-22s%10s%14s%8s%12s\n", "policy", "thr", "remote calls",
              "moves", "decisions");
  CountingConfig base;
  base.scheme = Scheme{Mechanism::kRpc, false, false};
  base.mesh = false;
  base.requesters = 16;
  base.ops_per_requester = 60;
  base.check = opt.check;
  {
    const RunStats st = cm::apps::run_counting(base);
    std::printf("%-22s%10.2f%14llu%8llu%12llu\n", "static",
                st.throughput_per_1000(),
                static_cast<unsigned long long>(st.runtime.remote_calls),
                static_cast<unsigned long long>(st.policy.moves_completed),
                static_cast<unsigned long long>(st.policy.decisions));
    put_row(reg, "counting/static", st);
  }
  {
    CountingConfig cfg = base;
    cfg.policy = rebalance_policy(opt);
    cfg.policy.min_accesses = 12;  // paper-default hysteresis: no dominant
    cfg.policy.attract_share = 0.8;  // accessor ever qualifies
    const RunStats st = cm::apps::run_counting(cfg);
    std::printf("%-22s%10.2f%14llu%8llu%12llu\n", "rebalance (default)",
                st.throughput_per_1000(),
                static_cast<unsigned long long>(st.runtime.remote_calls),
                static_cast<unsigned long long>(st.policy.moves_completed),
                static_cast<unsigned long long>(st.policy.decisions));
    put_row(reg, "counting/rebalance-default", st);
  }
  {
    CountingConfig cfg = base;
    cfg.policy = rebalance_policy(opt);  // aggressive thresholds, contrast
    const RunStats st = cm::apps::run_counting(cfg);
    std::printf("%-22s%10.2f%14llu%8llu%12llu\n", "rebalance (aggressive)",
                st.throughput_per_1000(),
                static_cast<unsigned long long>(st.runtime.remote_calls),
                static_cast<unsigned long long>(st.policy.moves_completed),
                static_cast<unsigned long long>(st.policy.decisions));
    put_row(reg, "counting/rebalance-aggressive", st);
  }
}

void section_degree(const Options& opt, cm::core::MetricsRegistry* reg) {
  std::printf("\n-- (d) degree-of-migration sweep (skewed B-tree) --\n");
  std::printf("%-8s%10s%14s%8s%12s%12s\n", "degree", "thr", "remote calls",
              "moves", "decisions", "cap-suppr");
  for (const unsigned degree : {1u, 2u, 4u, 8u}) {
    BTreeConfig cfg = skewed_tree(opt);
    cfg.policy = rebalance_policy(opt);
    cfg.policy.degree_of_migration = degree;
    const RunStats st = cm::apps::run_btree(cfg);
    std::printf("%-8u%10.2f%14llu%8llu%12llu%12llu\n", degree,
                st.throughput_per_1000(),
                static_cast<unsigned long long>(st.runtime.remote_calls),
                static_cast<unsigned long long>(st.policy.moves_completed),
                static_cast<unsigned long long>(st.policy.decisions),
                static_cast<unsigned long long>(st.policy.suppressed_cap));
    char label[64];
    std::snprintf(label, sizeof label, "degree/%u", degree);
    put_row(reg, label, st);
  }
}

}  // namespace

int main(int argc, char** argv) {
  cm::bench::maybe_usage(
      argc, argv, "[--check] [--tune key=value]... [out.json]",
      "Placement-policy ablation: static vs observe vs rebalance vs "
      "phase-adaptive on a skewed B-tree, key-affinity and "
      "degree-of-migration sweeps, and a write-shared counting-network "
      "control; unified-schema JSON export.");
  Options opt;
  opt.check = cm::bench::take_flag(argc, argv, "--check");
  char key[64];
  while (cm::bench::take_value(argc, argv, "--tune", key, sizeof key)) {
    char* eq = std::strchr(key, '=');
    if (eq == nullptr) {
      std::fprintf(stderr, "%s: --tune wants key=value, got '%s'\n", argv[0],
                   key);
      return 1;
    }
    *eq = '\0';
    if (!cm::core::set_tunable(opt.tunables, key, std::atof(eq + 1))) {
      std::fprintf(stderr, "%s: unknown tunable '%s'\n", argv[0], key);
      return 1;
    }
  }
  cm::core::MetricsRegistry reg;
  section_ladder(opt, &reg);
  section_affinity(opt, &reg);
  section_counting(opt, &reg);
  section_degree(opt, &reg);
  const char* path = argc > 1 ? argv[1] : "ablation_policy.json";
  if (!reg.write_json(path)) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return 1;
  }
  std::printf("\nwrote %s (%zu records)\n", path, reg.size());
  return 0;
}
