// perfbench: the measuring program behind the repository benchmark
// (BENCHMARK.json at the repository root; README.md beside this file
// explains every workload and metric). run.py builds it and calls
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --out DIR
//             [--fingerprints FILE]
//   perfbench --workload W --record FIRST LAST
//
// The first form measures one workload and prints a human-readable table
// followed, as the last line of stdout, by one JSON result object. The
// second prints the fingerprint rows of seeds FIRST..LAST for FILE.
//
// Everything runs on one host thread through the public workload functions
// apps::run_counting / apps::run_btree, and the layer rows call each
// layer's public API directly. Nothing here reaches inside the program:
// spans are recorded around calls into it.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/workload.h"
#include "core/object.h"
#include "core/runtime.h"
#include "net/mesh_net.h"
#include "shmem/coherent_memory.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/rng.h"
#include "sim/task.h"

namespace {

using cm::apps::RunStats;
using cm::apps::Window;
using cm::core::Mechanism;
using cm::core::Scheme;
using cm::sim::Cycles;
using cm::sim::ProcId;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Spans: kept in memory during the traced run, written as Chrome trace JSON
// when it ends. A span's parent is the span open when it began.

class Spans {
 public:
  explicit Spans(bool on) : on_(on), t0_(Clock::now()) {}

  class Scope {
   public:
    Scope(Spans& s, std::string name) : s_(s), id_(s.open(std::move(name))) {}
    ~Scope() { s_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& s_;
    int id_;
  };

  [[nodiscard]] bool write(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f",
                    s.start_us, s.end_us - s.start_us);
      f << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name << "\"," << buf
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_us;
    double end_us;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  int open(std::string name) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), stack_.empty() ? -1 : stack_.back(),
                      now_us(), 0.0});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }

  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Workloads. Only scheme, size, window, seed, check and trace_path are set
// on the workload configs; everything else keeps their paper defaults.

enum class App { kCounting, kBTree };

struct Workload {
  const char* name;
  App app;
  Scheme scheme;
  Window window;        // one workload call
  unsigned runs;        // workload calls per pass, each at a derived seed
  unsigned requesters;  // closed-loop clients, one per processor
  unsigned homes;       // processors holding the application's objects
};

constexpr unsigned kCountingWidth = 8;
constexpr unsigned kCountingBalancers = 24;  // an 8x8 bitonic network
constexpr unsigned kBTreeKeys = 10'000;
constexpr unsigned kBTreeNodeProcs = 48;

// A pass repeats one workload call over `runs` derived seeds, so that its
// simulated metrics average out the seed-to-seed spread of one call.
const Workload kWorkloads[] = {
    // Figure 2 at 64 requesters, window 10x the paper's: its throughput does
    // not drift with window length.
    {"counting_cp", App::kCounting, Scheme{Mechanism::kMigration, false, false},
     Window{30'000, 2'000'000}, 32, 64, kCountingBalancers},
    // Tables 1/2 at the paper's window: a longer one fills the key space and
    // leaves the paper's regime, so these repeat over more seeds instead.
    {"btree_sm", App::kBTree, Scheme{Mechanism::kSharedMemory, false, false},
     Window{30'000, 250'000}, 32, 16, kBTreeNodeProcs},
    {"btree_rpc_repl", App::kBTree, Scheme{Mechanism::kRpc, false, true},
     Window{30'000, 250'000}, 128, 16, kBTreeNodeProcs},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

unsigned procs_of(const Workload& w) { return w.homes + w.requesters; }

/// Seed of a pass's i-th workload call.
constexpr unsigned kMaxRuns = 4096;
std::uint64_t run_seed(std::uint64_t seed, unsigned i) {
  return seed * kMaxRuns + i + 1;
}

struct Call {
  std::uint64_t seed = 1;
  Window window;
  long ops_per_requester = 0;  // > 0: fixed work, the window is ignored
  bool check = false;
  std::string trace_path;
};

Call call_at(std::uint64_t seed, Window window) {
  Call c;
  c.seed = seed;
  c.window = window;
  return c;
}

RunStats drive(const Workload& w, const Call& c) {
  if (w.app == App::kCounting) {
    cm::apps::CountingConfig cfg;
    cfg.scheme = w.scheme;
    cfg.requesters = w.requesters;
    cfg.width = kCountingWidth;
    cfg.window = c.window;
    cfg.seed = c.seed;
    cfg.ops_per_requester = c.ops_per_requester;
    cfg.check = c.check;
    cfg.trace_path = c.trace_path;
    return cm::apps::run_counting(cfg);
  }
  cm::apps::BTreeConfig cfg;
  cfg.scheme = w.scheme;
  cfg.requesters = w.requesters;
  cfg.nkeys = kBTreeKeys;
  cfg.node_procs = kBTreeNodeProcs;
  cfg.window = c.window;
  cfg.seed = c.seed;
  cfg.ops_per_requester = c.ops_per_requester;
  cfg.check = c.check;
  cfg.trace_path = c.trace_path;
  return cm::apps::run_btree(cfg);
}

// ---------------------------------------------------------------------------
// Correctness gate.

struct Fingerprint {
  long ops = 0;
  std::uint64_t words = 0;
  std::uint64_t events = 0;
  std::uint64_t completed_at = 0;
  std::uint64_t digest = 0;

  void add(const RunStats& r) {
    ops += r.ops;
    words += r.words;
    events += r.events_executed;
    completed_at += r.completed_at;
    digest = (digest ^ r.btree_digest) * 0x100000001b3ULL;
  }
  bool operator==(const Fingerprint&) const = default;

  [[nodiscard]] std::string str() const {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%ld %llu %llu %llu %016llx", ops,
                  static_cast<unsigned long long>(words),
                  static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(completed_at),
                  static_cast<unsigned long long>(digest));
    return buf;
  }
};

Fingerprint fingerprint_of(const RunStats& r) {
  Fingerprint f;
  f.add(r);
  return f;
}

class Gate {
 public:
  void require(bool ok, const std::string& what) {
    if (ok) return;
    ok_ = false;
    if (failures_.size() < 20) failures_.push_back(what);
  }
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  bool ok_ = true;
  std::vector<std::string> failures_;
};

/// Checks every workload call must pass, windowed or fixed-work.
void check_run(const Workload& w, const RunStats& r, Gate& g) {
  g.require(r.clamped_events == 0, "sim.clamped_events is not 0");
  if (w.app == App::kCounting) {
    g.require(r.step_property, "counting network lost the step property");
    g.require(r.total_exited >= r.ops, "fewer tokens drained than counted");
  } else {
    g.require(r.invariants_ok, "B-tree invariants do not hold");
    g.require(r.btree_keys >= kBTreeKeys, "B-tree lost keys");
  }
}

/// Fixed-work runs at `seed`: every counting token drains, and the two
/// B-tree schemes end in the same tree ("the annotation changes
/// performance, never results").
void check_fixed_work(const Workload& w, std::uint64_t seed, Gate& g) {
  constexpr long kOps = 20;
  Call c = call_at(run_seed(seed, 0), Window{});
  c.ops_per_requester = kOps;
  if (w.app == App::kCounting) {
    const RunStats r = drive(w, c);
    check_run(w, r, g);
    g.require(r.total_exited == static_cast<long>(w.requesters) * kOps,
              "fixed-work run did not drain every token");
    return;
  }
  std::optional<RunStats> ref;
  for (const Workload& other : kWorkloads) {
    if (other.app != App::kBTree) continue;
    const RunStats r = drive(other, c);
    check_run(other, r, g);
    if (!ref) {
      ref = r;
    } else {
      g.require(r.btree_keys == ref->btree_keys &&
                    r.btree_digest == ref->btree_digest,
                std::string("fixed-work B-tree end state differs under ") +
                    other.name);
    }
  }
}

/// The recorded fingerprint of `workload` at `seed`, if the table has one.
/// Rows read "workload seed ops words events completed_at digest".
std::optional<std::string> recorded(const std::string& path,
                                    const std::string& workload,
                                    std::uint64_t seed) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string name;
    std::uint64_t s = 0;
    if (!(in >> name >> s) || name != workload || s != seed) continue;
    std::string rest;
    std::getline(in, rest);
    const std::size_t b = rest.find_first_not_of(' ');
    return b == std::string::npos ? "" : rest.substr(b);
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// A pass: the workload's calls at their derived seeds. The first
// call at each seed fixes its fingerprint; every later call must repeat it.

struct Pass {
  const Workload& w;
  std::uint64_t seed;
  Gate& gate;
  std::vector<std::optional<RunStats>> first;
  std::vector<std::vector<double>> walls;         // calls without a span
  std::vector<std::vector<double>> traced_walls;  // calls wrapped in a span
  long calls = 0;
  long attempted = 0;

  Pass(const Workload& wl, std::uint64_t s, Gate& g)
      : w(wl), seed(s), gate(g), first(wl.runs), walls(wl.runs),
        traced_walls(wl.runs) {}

  /// Host seconds of the workload call at the pass's i-th seed.
  double call(unsigned i, Spans* spans) {
    const Call c = call_at(run_seed(seed, i), w.window);
    const auto t0 = Clock::now();
    RunStats r;
    if (spans != nullptr) {
      Spans::Scope s(*spans, "workload_call");
      r = drive(w, c);
    } else {
      r = drive(w, c);
    }
    const double wall = since(t0);
    (spans != nullptr ? traced_walls : walls)[i].push_back(wall);
    check_run(w, r, gate);
    ++calls;
    attempted += r.ops;
    if (!first[i]) {
      first[i] = std::move(r);
    } else {
      gate.require(fingerprint_of(r) == fingerprint_of(*first[i]),
                   "a repeated workload call changed its simulated results");
    }
    return wall;
  }

  [[nodiscard]] Fingerprint fingerprint() const {
    Fingerprint f;
    for (const auto& r : first) f.add(*r);
    return f;
  }

  /// Sum of one counter over the pass's distinct workload calls.
  template <class F>
  [[nodiscard]] double sum(F&& get) const {
    double s = 0.0;
    for (const auto& r : first) s += static_cast<double>(get(*r));
    return s;
  }

  /// Median host seconds of one pass (each seed's median, summed).
  [[nodiscard]] double wall(bool traced) const {
    double s = 0.0;
    for (const auto& v : traced ? traced_walls : walls) s += median(v);
    return s;
  }
};

void check_recorded(const Pass& p, const std::string& table, Gate& gate) {
  if (table.empty()) return;
  const auto want = recorded(table, p.w.name, p.seed);
  if (want) {
    gate.require(*want == p.fingerprint().str(),
                 "fingerprint differs from the one recorded for this seed");
  }
}

// ---------------------------------------------------------------------------
// Layer rows. Each drives one layer's public API alone at the workload's
// processor count, client count and message sizes, in batches, and returns
// what a batch did so the caller can subtract lower layers' costs.

struct RowSample {
  double wall = 0.0;
  double events = 0.0;    // engine events the batch executed
  double messages = 0.0;  // network messages it sent
  double units = 0.0;     // the row's own unit (event, message, call, ...)
};

struct RowShape {
  unsigned procs;
  unsigned homes;
  unsigned depth;        // pending chains: one per closed-loop client
  Cycles gap;            // mean simulated cycles between a chain's events
  double words_per_msg;  // the workload's mean message size
  unsigned live_words;   // words shipped per migration
  Scheme scheme;
};

// sim: Engine::at + run, a hold model at the workload's pending depth.
struct HoldState {
  cm::sim::Engine* eng;
  cm::sim::Rng rng;
  Cycles gap;
  std::uint64_t left;
};
struct Hold {
  HoldState* s;
  void operator()() const {
    if (s->left == 0) return;
    --s->left;
    s->eng->after(1 + s->rng.below(2 * s->gap), Hold{s});
  }
};

RowSample engine_batch(const RowShape& shape, std::uint64_t seed) {
  constexpr std::uint64_t kEvents = 200'000;
  cm::sim::Engine eng;
  HoldState st{&eng, cm::sim::Rng(seed), shape.gap, kEvents};
  const auto t0 = Clock::now();
  for (unsigned d = 0; d < shape.depth; ++d) {
    eng.at(st.rng.below(shape.gap + 1), Hold{&st});
  }
  eng.run();
  RowSample out;
  out.wall = since(t0);
  out.events = static_cast<double>(eng.events_executed());
  out.units = out.events;
  return out;
}

// net: MeshNetwork::send through delivery; each delivery sends onward.
struct HopState {
  cm::net::MeshNetwork* net;
  cm::sim::Rng rng;
  unsigned procs;
  double words;
  std::uint64_t left;

  ProcId other_than(ProcId p) {
    const auto q = static_cast<ProcId>(rng.below(procs - 1));
    return q >= p ? q + 1 : q;
  }
  unsigned next_words() {
    const double lo = std::floor(words);
    return static_cast<unsigned>(lo) + (rng.uniform() < words - lo ? 1 : 0);
  }
};
struct Hop {
  HopState* s;
  ProcId at;
  void operator()() const {
    if (s->left == 0) return;
    --s->left;
    const ProcId dst = s->other_than(at);
    s->net->send(at, dst, s->next_words(), cm::net::Traffic::kRuntime,
                 Hop{s, dst});
  }
};

RowSample net_batch(const RowShape& shape, std::uint64_t seed) {
  constexpr std::uint64_t kMessages = 100'000;
  cm::sim::Engine eng;
  cm::net::MeshNetwork mesh(eng, shape.procs);
  HopState st{&mesh, cm::sim::Rng(seed), shape.procs, shape.words_per_msg,
              kMessages};
  const auto t0 = Clock::now();
  for (unsigned d = 0; d < shape.depth; ++d) {
    Hop{&st, static_cast<ProcId>(st.rng.below(shape.procs))}();
  }
  eng.run();
  RowSample out;
  out.wall = since(t0);
  out.events = static_cast<double>(eng.events_executed());
  out.messages = static_cast<double>(mesh.stats().messages);
  out.units = out.messages;
  return out;
}

// shmem: CoherentMemory::read/write from every client processor over lines
// homed on the application's processors.
cm::sim::Task<> mem_client(cm::shmem::CoherentMemory* mem, ProcId p,
                           const std::vector<cm::shmem::Addr>* lines,
                           std::uint64_t seed, long ops) {
  constexpr double kWriteShare = 0.25;
  cm::sim::Rng rng(seed);
  for (long i = 0; i < ops; ++i) {
    const cm::shmem::Addr a = (*lines)[rng.below(lines->size())];
    if (rng.uniform() < kWriteShare) {
      co_await mem->write(p, a, cm::shmem::kLineBytes);
    } else {
      co_await mem->read(p, a, cm::shmem::kLineBytes);
    }
  }
}

RowSample shmem_batch(const RowShape& shape, std::uint64_t seed) {
  constexpr unsigned kLines = 512;
  constexpr long kOpsPerClient = 400;
  cm::sim::Engine eng;
  cm::sim::Machine machine(eng, shape.procs);
  cm::net::MeshNetwork mesh(eng, shape.procs);
  cm::shmem::ProtocolParams pp;
  pp.hw_sharer_pointers = 5;  // LimitLESS, as in the B-tree workloads
  cm::shmem::CoherentMemory mem(machine, mesh, cm::shmem::CacheParams{}, pp);
  std::vector<cm::shmem::Addr> lines;
  for (unsigned i = 0; i < kLines; ++i) {
    lines.push_back(mem.alloc(i % shape.homes, cm::shmem::kLineBytes));
  }
  const auto t0 = Clock::now();
  for (unsigned d = 0; d < shape.depth; ++d) {
    cm::sim::detach(mem_client(&mem, shape.homes + d, &lines, seed * 131 + d,
                               kOpsPerClient));
  }
  eng.run();
  RowSample out;
  out.wall = since(t0);
  out.events = static_cast<double>(eng.events_executed());
  out.messages = static_cast<double>(mesh.stats().messages);
  out.units = static_cast<double>(mesh.stats().coherence_messages);
  return out;
}

// core: Runtime::migrate + return_home, and remote Runtime::call.
constexpr unsigned kHopsPerReturn = 6;  // balancer layers of the 8x8 network
constexpr long kReturnsPerClient = 40;
constexpr long kCallsPerClient = 200;

cm::sim::Task<> hopper(cm::core::Runtime* rt, ProcId home,
                       const std::vector<cm::core::ObjectId>* objs,
                       unsigned live_words, std::uint64_t seed) {
  cm::core::Ctx ctx{rt, home};
  cm::sim::Rng rng(seed);
  for (long r = 0; r < kReturnsPerClient; ++r) {
    for (unsigned h = 0; h < kHopsPerReturn; ++h) {
      co_await rt->migrate(ctx, (*objs)[rng.below(objs->size())], live_words);
    }
    co_await rt->return_home(ctx, home, 2);
  }
}

cm::sim::Task<> caller(cm::core::Runtime* rt, ProcId home,
                       const std::vector<cm::core::ObjectId>* objs,
                       std::uint64_t seed) {
  cm::core::Ctx ctx{rt, home};
  cm::sim::Rng rng(seed);
  for (long i = 0; i < kCallsPerClient; ++i) {
    (void)co_await rt->call(
        ctx, (*objs)[rng.below(objs->size())], cm::core::CallOpts{},
        [rt](cm::core::Ctx& c) -> cm::sim::Task<int> {
          co_await rt->compute(c, 10);
          co_return 0;
        });
  }
}

template <class Client>
RowSample runtime_batch(const RowShape& shape, std::uint64_t seed,
                        Client&& client) {
  cm::sim::Engine eng;
  cm::sim::Machine machine(eng, shape.procs);
  cm::net::MeshNetwork mesh(eng, shape.procs);
  cm::core::ObjectSpace objects;
  cm::core::Runtime rt(machine, mesh, objects, shape.scheme.cost_model());
  std::vector<cm::core::ObjectId> objs;
  for (ProcId p = 0; p < shape.homes; ++p) objs.push_back(objects.create(p));
  const auto t0 = Clock::now();
  for (unsigned d = 0; d < shape.depth; ++d) {
    cm::sim::detach(client(&rt, shape.homes + d, &objs, seed * 131 + d));
  }
  eng.run();
  RowSample out;
  out.wall = since(t0);
  out.events = static_cast<double>(eng.events_executed());
  out.messages = static_cast<double>(mesh.stats().messages);
  out.units =
      static_cast<double>(rt.stats().migrations + rt.stats().remote_calls);
  return out;
}

RowSample migrate_batch(const RowShape& shape, std::uint64_t seed) {
  return runtime_batch(shape, seed, [&shape](auto* rt, ProcId home, auto* objs,
                                             std::uint64_t s) {
    return hopper(rt, home, objs, shape.live_words, s);
  });
}

RowSample call_batch(const RowShape& shape, std::uint64_t seed) {
  return runtime_batch(shape, seed, [](auto* rt, ProcId home, auto* objs,
                                       std::uint64_t s) {
    return caller(rt, home, objs, s);
  });
}

struct Row {
  const char* name;
  RowSample (*batch)(const RowShape&, std::uint64_t);
};
// Lower layers first: each row's self time subtracts the costs of the rows
// before it.
constexpr Row kRows[] = {
    {"row.sim", engine_batch},           {"row.net", net_batch},
    {"row.shmem", shmem_batch},          {"row.core.migrate", migrate_batch},
    {"row.core.call", call_batch},
};
using RowSamples = std::array<std::vector<RowSample>, std::size(kRows)>;

/// One batch of every row, each in its own span.
void run_rows(const RowShape& shape, std::uint64_t seed, RowSamples& samples,
              Spans& spans) {
  for (std::size_t r = 0; r < std::size(kRows); ++r) {
    Spans::Scope s(spans, kRows[r].name);
    samples[r].push_back(kRows[r].batch(shape, seed));
  }
}

/// Host cost of each layer's unit, in self nanoseconds.
struct LayerCosts {
  double ns_event = 0.0;
  double ns_msg = 0.0;
  double ns_coherence_msg = 0.0;
  double ns_migration = 0.0;
  double ns_call = 0.0;
};

/// A row's cost is the median over its batches of the batch's self time per
/// unit: its wall time minus its engine events and messages at the lower
/// rows' own costs.
LayerCosts layer_costs(const RowSamples& samples) {
  auto self_ns = [&samples](std::size_t row, double ns_event, double ns_msg) {
    std::vector<double> v;
    for (const RowSample& s : samples[row]) {
      const double lower = s.events * ns_event + s.messages * ns_msg;
      v.push_back(ratio(s.wall * 1e9 - lower, s.units));
    }
    return median(std::move(v));
  };
  LayerCosts c;
  c.ns_event = self_ns(0, 0.0, 0.0);
  c.ns_msg = self_ns(1, c.ns_event, 0.0);
  c.ns_coherence_msg = self_ns(2, c.ns_event, c.ns_msg);
  c.ns_migration = self_ns(3, c.ns_event, c.ns_msg);
  c.ns_call = self_ns(4, c.ns_event, c.ns_msg);
  return c;
}

/// Wall time of `observed` over the same call without its observer: the
/// ratio of medians over alternating pairs, for `budget` seconds and at
/// least two pairs. An observer must not change the simulated results;
/// `inspect` sees each observed call's stats.
double observer_overhead(const Workload& w, const Call& plain,
                         const Call& observed, double budget, Gate& gate,
                         const std::function<void(const RunStats&)>& inspect) {
  std::vector<double> off;
  std::vector<double> on;
  const auto t0 = Clock::now();
  while (on.size() < 2 || since(t0) < budget) {
    auto t = Clock::now();
    const RunStats a = drive(w, plain);
    off.push_back(since(t));
    t = Clock::now();
    const RunStats b = drive(w, observed);
    on.push_back(since(t));
    gate.require(fingerprint_of(a) == fingerprint_of(b),
                 "an observer changed the simulated results");
    inspect(b);
  }
  return ratio(median(on), median(off));
}

// ---------------------------------------------------------------------------
// Host gauge. The development host is shared: other tenants slow it by up to
// 2x for minutes at a time, which moves every host timing alike. The gauge
// is a fixed piece of work with the simulator's kind of load (a binary-heap
// event loop over an 8 MB table, with an allocation per event), timed
// between slices of measured work. Host timings are reported at reference
// speed: a slice's time times kGaugeReferenceS / the gauge's time next to
// it. The gauge is benchmark code, so no change to the simulator moves it.

/// The gauge's time on the 4-core development host (Intel Xeon at 2.1 GHz)
/// in a quiet spell: reference-speed timings read as plain timings there.
constexpr double kGaugeReferenceS = 0.0055;
/// Measured work between two gauge samples.
constexpr double kSliceS = 0.04;

class HostGauge {
 public:
  HostGauge() : table_(std::size_t{1} << 21) { (void)sample(); }

  /// Seconds the fixed work takes now.
  double sample() {
    constexpr int kEvents = 40'000;
    using Ev = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Ev, std::vector<Ev>, std::greater<>> heap;
    cm::sim::Rng rng(++round_);
    const auto t0 = Clock::now();
    for (std::uint32_t i = 0; i < 64; ++i) heap.push({rng.below(1000), i});
    for (int n = 0; n < kEvents; ++n) {
      const Ev e = heap.top();
      heap.pop();
      std::uint32_t& slot =
          table_[(e.second * 2654435761u + sink_) & (table_.size() - 1)];
      slot += e.second;
      auto payload = std::make_unique<std::array<std::uint64_t, 6>>();
      (*payload)[0] = sink_ ^ slot;
      sink_ += (*payload)[0] & 7;
      heap.push({e.first + 1 + rng.below(100), e.second});
    }
    const double t = since(t0);
    samples_.push_back(t);
    return t;
  }

  /// Median slowdown of the host against the reference over the run.
  [[nodiscard]] double slowdown() const {
    return median(samples_) / kGaugeReferenceS;
  }

 private:
  std::vector<std::uint32_t> table_;
  std::vector<double> samples_;
  std::uint64_t round_ = 0;
  std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  Gate gate;
  long attempted = 0;
  std::vector<Metric> metrics;     // the JSON result
  std::vector<std::string> notes;  // printed for people only
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// End-to-end metrics, from untraced workload calls, in slices of at least
/// kSliceS seconds each followed by a gauge sample.
Result measure_end_to_end(const Workload& w, std::uint64_t seed,
                          double seconds, const std::string& table) {
  constexpr std::size_t kMinSetupSlices = 11;
  Result res;
  HostGauge gauge;

  // Set-up: workload calls with an empty window build the machine and the
  // application (bulk_load included) and drain one op per requester.
  std::vector<double> setup;  // per slice: median call, at reference speed
  const auto t_setup = Clock::now();
  for (unsigned i = 0; setup.size() < kMinSetupSlices ||
                       since(t_setup) < 0.1 * seconds;) {
    std::vector<double> walls;
    const auto t_slice = Clock::now();
    do {
      const Call c = call_at(run_seed(seed, i++ % w.runs), Window{0, 0});
      const auto t0 = Clock::now();
      const RunStats r = drive(w, c);
      walls.push_back(since(t0));
      check_run(w, r, res.gate);
    } while (since(t_slice) < kSliceS);
    setup.push_back(median(walls) * kGaugeReferenceS / gauge.sample());
  }

  Pass pass(w, seed, res.gate);
  std::vector<double> rates;  // per slice: sim cycles / s at reference speed
  const auto t_run = Clock::now();
  for (unsigned i = 0; i < w.runs || since(t_run) < 0.85 * seconds;) {
    double cycles = 0.0;
    double wall = 0.0;
    const auto t_slice = Clock::now();
    do {
      const unsigned k = i++ % w.runs;
      wall += pass.call(k, nullptr);
      cycles += static_cast<double>(pass.first[k]->completed_at);
    } while (since(t_slice) < kSliceS);
    rates.push_back(cycles / wall * gauge.sample() / kGaugeReferenceS);
  }
  const double rss = peak_rss_mb();
  check_recorded(pass, table, res.gate);
  check_fixed_work(w, seed, res.gate);
  res.attempted = pass.attempted;

  const Fingerprint f = pass.fingerprint();
  const double window = static_cast<double>(w.window.measure) * w.runs;
  res.metrics = {
      {"sim_cycles_per_s", median(rates), "cycles/s"},
      {"setup_s", median(setup), "s"},
      {"max_rss_mb", rss, "MB"},
      {"sim_ops_per_kcycle", static_cast<double>(f.ops) * 1000.0 / window,
       "ops/kcycle"},
      {"sim_words_per_op",
       ratio(static_cast<double>(f.words), static_cast<double>(f.ops)),
       "words/op"},
  };
  char note[160];
  std::snprintf(note, sizeof note,
                "%ld workload calls in %zu slices, %zu set-up slices; host "
                "slowdown %.3fx",
                pass.calls, rates.size(), setup.size(), gauge.slowdown());
  res.notes = {note};
  return res;
}

/// Per-layer metrics, from a separate traced run.
Result measure_layers(const Workload& w, std::uint64_t seed, double seconds,
                      const std::string& table, const std::string& out_dir) {
  Result res;
  Spans spans(true);
  {
    Spans::Scope root(spans, w.name);

    // The rows are shaped like the pass's first call.
    Pass pass(w, seed, res.gate);
    pass.call(0, nullptr);
    const RunStats& r0 = *pass.first[0];
    const auto events0 = static_cast<double>(r0.events_executed);
    const RowShape shape{
        procs_of(w),
        w.homes,
        w.requesters,
        static_cast<Cycles>(std::max(
            1.0, ratio(static_cast<double>(r0.completed_at) * w.requesters,
                       events0))),
        std::max(1.0, ratio(static_cast<double>(r0.net.words),
                            static_cast<double>(r0.net.messages))),
        static_cast<unsigned>(
            std::max(8.0, ratio(static_cast<double>(r0.runtime.migrated_words),
                                static_cast<double>(r0.runtime.migrations)))),
        w.scheme};

    // Rounds of: an eighth of the pass's calls plain, the same calls each
    // wrapped in a span (the two in alternating order), and one batch of
    // every layer row. Interleaving puts a slow spell of the shared host on
    // the workload and the rows alike; a block of calls amortises the cold
    // caches the rows leave behind.
    constexpr unsigned kRoundsPerPass = 8;
    const unsigned block = std::max(1u, w.runs / kRoundsPerPass);
    RowSamples samples;
    HostGauge gauge;
    {
      Spans::Scope s(spans, "rounds");
      const auto t0 = Clock::now();
      for (unsigned round = 0;
           round < kRoundsPerPass || since(t0) < 0.65 * seconds; ++round) {
        for (unsigned traced = 0; traced < 2; ++traced) {
          Spans* wrap = (traced + round) % 2 == 1 ? &spans : nullptr;
          for (unsigned k = 0; k < block; ++k) {
            pass.call((round * block + k) % w.runs, wrap);
          }
        }
        run_rows(shape, seed * 131 + round, samples, spans);
        (void)gauge.sample();
      }
    }
    {
      Spans::Scope s(spans, "setup");
      (void)drive(w, call_at(run_seed(seed, 0), Window{0, 0}));
    }
    check_recorded(pass, table, res.gate);
    check_fixed_work(w, seed, res.gate);
    res.attempted = pass.attempted;
    const LayerCosts cost = layer_costs(samples);

    const double events =
        pass.sum([](const RunStats& r) { return r.events_executed; });
    const double ops = pass.sum([](const RunStats& r) { return r.ops; });
    const double messages =
        pass.sum([](const RunStats& r) { return r.net.messages; });
    const double words =
        pass.sum([](const RunStats& r) { return r.net.words; });
    const double coherence =
        pass.sum([](const RunStats& r) { return r.net.coherence_messages; });
    const double migrations =
        pass.sum([](const RunStats& r) { return r.runtime.migrations; });
    const double calls =
        pass.sum([](const RunStats& r) { return r.runtime.remote_calls; });
    const double wall = pass.wall(false);

    // Observers, on the pass's first call.
    const Call plain = call_at(run_seed(seed, 0), w.window);
    Call checked = plain;
    checked.check = true;
    double violations = 0.0;
    double check_overhead = 0.0;
    {
      Spans::Scope s(spans, "check");
      check_overhead = observer_overhead(
          w, plain, checked, 0.15 * seconds, res.gate,
          [&](const RunStats& r) {
            res.gate.require(r.checker_enabled, "the checker did not run");
            violations += static_cast<double>(r.check.total_violations);
          });
    }
    // The tracer on a window a tenth as long: a trace grows with simulated
    // time. Each trace is deleted as soon as it is written.
    double trace_overhead = 0.0;
    {
      Spans::Scope s(spans, "trace");
      namespace fs = std::filesystem;
      const fs::path tmp = fs::path(out_dir) / "tmp";
      fs::create_directories(tmp);
      Call brief = plain;
      brief.window = Window{w.window.warmup, w.window.measure / 10};
      Call traced = brief;
      traced.trace_path = (tmp / "sim_trace.json").string();
      trace_overhead = observer_overhead(
          w, brief, traced, 0.15 * seconds, res.gate, [&](const RunStats& r) {
            res.gate.require(!r.trace_path.empty(),
                             "the tracer wrote no trace");
            fs::remove(traced.trace_path);
          });
      fs::remove_all(tmp);
    }

    const double sim_share = cost.ns_event * 1e-9 * events / wall;
    const double net_share = cost.ns_msg * 1e-9 * messages / wall;
    const double shmem_share = cost.ns_coherence_msg * 1e-9 * coherence / wall;
    const double core_share =
        (cost.ns_migration * migrations + cost.ns_call * calls) * 1e-9 / wall;
    const double overhead = pass.sum(
        [](const RunStats& r) { return r.runtime.breakdown.overhead(); });
    // Host times at reference speed; shares and overheads are ratios of
    // times taken side by side and need no scaling.
    const double at_ref = 1.0 / gauge.slowdown();
    res.metrics = {
        {"sim.events", events, "count"},
        {"apps.events_per_op", ratio(events, ops), "events/op"},
        {"net.runtime_messages",
         pass.sum([](const RunStats& r) { return r.net.runtime_messages; }),
         "count"},
        {"net.coherence_messages", coherence, "count"},
        {"net.words", words, "words"},
        {"shmem.hit_rate",
         ratio(pass.sum([](const RunStats& r) { return r.cache_hit_rate; }),
               w.runs),
         "fraction"},
        {"core.migrations", migrations, "count"},
        {"core.remote_calls", calls, "count"},
        {"core.threads_created",
         pass.sum([](const RunStats& r) { return r.runtime.threads_created; }),
         "count"},
        {"core.replica_hits",
         pass.sum([](const RunStats& r) { return r.runtime.replica_hits; }),
         "count"},
        {"core.overhead_cycles_per_op", ratio(overhead, ops), "cycles/op"},
        {"sim.clamped_events",
         pass.sum([](const RunStats& r) { return r.clamped_events; }), "count"},
        {"sim.ns_per_event", cost.ns_event * at_ref, "ns"},
        {"net.ns_per_msg", cost.ns_msg * at_ref, "ns"},
        {"shmem.ns_per_msg", cost.ns_coherence_msg * at_ref, "ns"},
        {"core.ns_per_migration", cost.ns_migration * at_ref, "ns"},
        {"core.ns_per_call", cost.ns_call * at_ref, "ns"},
        {"sim.share", sim_share, "fraction"},
        {"net.share", net_share, "fraction"},
        {"shmem.share", shmem_share, "fraction"},
        {"core.share", core_share, "fraction"},
        {"unattributed.share",
         1.0 - sim_share - net_share - shmem_share - core_share, "fraction"},
        {"apps.wall_ms_per_pass", wall * 1e3 * at_ref, "ms"},
        {"check.overhead", check_overhead, "x"},
        {"check.violations", violations, "count"},
        {"sim.trace_overhead", trace_overhead, "x"},
        {"bench.span_overhead", ratio(pass.wall(true), wall), "x"},
        {"bench.host_slowdown", gauge.slowdown(), "x"},
    };
    res.gate.require(violations == 0.0, "the checker reported violations");
  }
  const std::string path = out_dir + "/spans-" + w.name + "-" +
                           std::to_string(seed) + ".json";
  res.gate.require(spans.write(path), "cannot write " + path);
  res.notes = {"spans written to " + path};
  return res;
}

void print_result(const Workload& w, const Result& res) {
  const bool ok = res.gate.ok();
  const long attempted = std::max(res.attempted, 1L);
  const long failed = ok ? 0 : attempted;
  std::printf("workload %s\n", w.name);
  for (const Metric& m : res.metrics) {
    std::printf("  %-28s %18.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& n : res.notes) std::printf("  %s\n", n.c_str());
  std::printf("  %-28s %18.6g %s\n", "fail_ratio",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "ratio");
  for (const std::string& f : res.gate.failures()) {
    std::fprintf(stderr, "perfbench: correctness gate: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              ok ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

/// Fingerprint rows for `seed` in [first, last], for the recorded table.
void record(const Workload& w, std::uint64_t first, std::uint64_t last) {
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    Gate gate;
    Pass pass(w, seed, gate);
    for (unsigned i = 0; i < w.runs; ++i) pass.call(i, nullptr);
    if (!gate.ok()) {
      std::fprintf(stderr, "perfbench: seed %llu fails the gate\n",
                   static_cast<unsigned long long>(seed));
      std::exit(1);
    }
    std::printf("%s %llu %s\n", w.name, static_cast<unsigned long long>(seed),
                pass.fingerprint().str().c_str());
  }
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --out DIR [--fingerprints FILE]\n"
               "       perfbench --workload W --record FIRST LAST\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage("not a whole number");
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir;
  std::string table;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 10;
  std::uint64_t trace = 0;
  std::optional<std::pair<std::uint64_t, std::uint64_t>> record_range;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      seed = parse_u64(value());
    } else if (arg == "--seconds") {
      seconds = parse_u64(value());
    } else if (arg == "--trace") {
      trace = parse_u64(value());
    } else if (arg == "--out") {
      out_dir = value();
    } else if (arg == "--fingerprints") {
      table = value();
    } else if (arg == "--record") {
      const std::uint64_t first = parse_u64(value());
      record_range = std::pair{first, parse_u64(value())};
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) usage("unknown workload");
  if (seed >= ~std::uint64_t{0} / kMaxRuns) usage("seed too large");
  if (record_range) {
    record(*w, record_range->first, record_range->second);
    return 0;
  }
  if (seconds == 0 || trace > 1 || out_dir.empty()) usage("bad arguments");

  Result res = trace == 0
                   ? measure_end_to_end(*w, seed,
                                        static_cast<double>(seconds), table)
                   : measure_layers(*w, seed, static_cast<double>(seconds),
                                    table, out_dir);
  print_result(*w, res);
  return 0;
}
