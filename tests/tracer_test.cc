// Tracer smoke tests: a traced run writes valid Chrome trace-event JSON
// containing every core event type on per-processor tracks, the trace is
// deterministic across same-seed runs, and installing the tracer does not
// perturb simulation results at all.
#include "sim/tracer.h"

// GCC 12 reports spurious -Wmaybe-uninitialized from std::variant's storage
// under -O2 (GCC PR 105562); this TU exercises those paths heavily through
// the JSON value type below and core::Metrics.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "apps/workload.h"
#include "core/metrics.h"
#include "core/object.h"
#include "core/runtime.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace cm {
namespace {

// ---- a minimal recursive-descent JSON parser -------------------------------
// Genuinely parses the emitted file (no regex shortcuts), so a malformed
// escape, trailing comma, or unbalanced bracket fails the test.

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v = nullptr;

  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<JsonObject>(v);
  }
  [[nodiscard]] const JsonObject& object() const {
    return std::get<JsonObject>(v);
  }
  [[nodiscard]] const JsonArray& array() const {
    return std::get<JsonArray>(v);
  }
  [[nodiscard]] const std::string& str() const {
    return std::get<std::string>(v);
  }
  [[nodiscard]] double num() const { return std::get<double>(v); }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  /// Parses the whole input; sets ok=false on any syntax error.
  JsonValue parse(bool& ok) {
    ok = true;
    JsonValue v = value(ok);
    skip_ws();
    if (pos_ != s_.size()) ok = false;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  JsonValue value(bool& ok) {
    skip_ws();
    if (pos_ >= s_.size()) {
      ok = false;
      return {};
    }
    const char c = s_[pos_];
    if (c == '{') return object(ok);
    if (c == '[') return array(ok);
    if (c == '"') return string(ok);
    if (c == 't') {
      ok = ok && literal("true");
      return {true};
    }
    if (c == 'f') {
      ok = ok && literal("false");
      return {false};
    }
    if (c == 'n') {
      ok = ok && literal("null");
      return {nullptr};
    }
    return number(ok);
  }

  JsonValue object(bool& ok) {
    JsonObject out;
    if (!consume('{')) {
      ok = false;
      return {};
    }
    skip_ws();
    if (consume('}')) return {std::move(out)};
    do {
      skip_ws();
      JsonValue key = string(ok);
      if (!ok || !consume(':')) {
        ok = false;
        return {};
      }
      out[key.str()] = value(ok);
      if (!ok) return {};
    } while (consume(','));
    if (!consume('}')) ok = false;
    return {std::move(out)};
  }

  JsonValue array(bool& ok) {
    JsonArray out;
    if (!consume('[')) {
      ok = false;
      return {};
    }
    skip_ws();
    if (consume(']')) return {std::move(out)};
    do {
      out.push_back(value(ok));
      if (!ok) return {};
    } while (consume(','));
    if (!consume(']')) ok = false;
    return {std::move(out)};
  }

  JsonValue string(bool& ok) {
    if (!consume('"')) {
      ok = false;
      return {};
    }
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) {
          ok = false;
          return {};
        }
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) {
              ok = false;
              return {};
            }
            pos_ += 4;  // validated as hex, decoded as '?' (ASCII traces)
            out += '?';
            break;
          default:
            ok = false;
            return {};
        }
      } else {
        out += c;
      }
    }
    if (!consume('"')) ok = false;
    return {std::move(out)};
  }

  JsonValue number(bool& ok) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '-' ||
            s_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      ok = false;
      return {};
    }
    try {
      return {std::stod(std::string(s_.substr(start, pos_ - start)))};
    } catch (...) {
      ok = false;
      return {};
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

JsonValue parse_trace_file(const std::string& path) {
  const std::string text = slurp(path);
  EXPECT_FALSE(text.empty()) << path;
  bool ok = false;
  JsonParser parser(text);
  JsonValue root = parser.parse(ok);
  EXPECT_TRUE(ok) << "trace is not valid JSON: " << path;
  EXPECT_TRUE(root.is_object());
  return root;
}

/// name -> count over the instant ("ph":"i") events; also checks per-event
/// shape: required keys, pid 0, integer-valued ts.
std::map<std::string, int> instant_event_counts(const JsonValue& root,
                                                std::set<double>* tids) {
  std::map<std::string, int> counts;
  const auto& events = root.object().at("traceEvents").array();
  for (const JsonValue& ev : events) {
    const JsonObject& o = ev.object();
    const std::string& ph = o.at("ph").str();
    if (ph == "M") continue;  // metadata: process/thread names
    EXPECT_EQ(ph, "i");
    EXPECT_EQ(o.at("s").str(), "t");
    EXPECT_EQ(o.at("pid").num(), 0.0);
    const double ts = o.at("ts").num();
    EXPECT_GE(ts, 0.0);
    EXPECT_EQ(ts, static_cast<double>(static_cast<std::uint64_t>(ts)));
    if (tids != nullptr) tids->insert(o.at("tid").num());
    ++counts[o.at("name").str()];
  }
  return counts;
}

// ---- tracer unit behaviour -------------------------------------------------

TEST(Tracer, RecordsCountsAndEmitsValidJson) {
  sim::Engine eng;
  sim::Tracer tracer(eng);
  eng.set_tracer(&tracer);
  eng.at(5, [&] {
    tracer.record(sim::TraceEvent::kMsgSend, 1,
                  {{"dst", 2}, {"msg", tracer.next_msg_id()}});
  });
  eng.at(9, [&] {
    tracer.record(sim::TraceEvent::kMsgDeliver, 2, {{"msg", 1}});
  });
  eng.run();

  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.count(sim::TraceEvent::kMsgSend), 1u);
  EXPECT_EQ(tracer.count(sim::TraceEvent::kMsgDeliver), 1u);
  EXPECT_EQ(tracer.count(sim::TraceEvent::kMigrateBegin), 0u);

  bool ok = false;
  const std::string json = tracer.chrome_json();  // parser keeps a view
  JsonParser parser(json);
  const JsonValue root = parser.parse(ok);
  ASSERT_TRUE(ok);
  std::set<double> tids;
  const auto counts = instant_event_counts(root, &tids);
  EXPECT_EQ(counts.at("msg.send"), 1);
  EXPECT_EQ(counts.at("msg.deliver"), 1);
  EXPECT_EQ(tids, (std::set<double>{1.0, 2.0}));
}

/// For each migrate.begin record of one migration from processor 0 to an
/// object at processor 3, whether it carries the `group` key. `migrate` is
/// a group of one without the tag; `migrate_group` tags even a group of one.
std::vector<bool> migrate_begin_has_group(bool as_group) {
  apps::Stack w(4);
  sim::Tracer tracer(w.eng);
  w.eng.set_tracer(&tracer);
  const core::ObjectId obj = w.objects.create(3);
  sim::detach([](core::Runtime* rt, core::ObjectId obj,
                 bool as_group) -> sim::Task<> {
    core::Ctx ctx{rt, 0};
    std::vector<core::Ctx*> group{&ctx};
    if (as_group) {
      co_await rt->migrate_group(group, obj, 8);
    } else {
      co_await rt->migrate(ctx, obj, 8);
    }
  }(&w.rt, obj, as_group));
  w.eng.run();

  bool ok = false;
  const std::string json = tracer.chrome_json();  // parser keeps a view
  JsonParser parser(json);
  const JsonValue root = parser.parse(ok);
  EXPECT_TRUE(ok);
  std::vector<bool> tagged;
  for (const JsonValue& ev : root.object().at("traceEvents").array()) {
    const JsonObject& o = ev.object();
    if (o.at("ph").str() != "i" || o.at("name").str() != "migrate.begin") {
      continue;
    }
    tagged.push_back(o.at("args").object().count("group") == 1);
  }
  return tagged;
}

TEST(Tracer, MigrateBeginCarriesGroupOnlyFromMigrateGroup) {
  EXPECT_EQ(migrate_begin_has_group(false), std::vector<bool>{false});
  EXPECT_EQ(migrate_begin_has_group(true), std::vector<bool>{true});
}

TEST(Tracer, EngineDefaultsToNoTracer) {
  sim::Engine eng;
  EXPECT_EQ(eng.tracer(), nullptr);
}

// ---- unified metrics export ------------------------------------------------

TEST(MetricsRegistry, EmitsOneFlatObjectPerRecordAsValidJson) {
  core::MetricsRegistry reg;
  core::Metrics& a = reg.record("run \"a\"");  // label needs escaping
  a.put("ops", std::uint64_t{42});
  a.put("rate", 0.5);
  a.put("ok", true);
  a.put("note", "hello\nworld");
  core::RtStats rt;
  rt.migrations = 7;
  core::put_rt_stats(a, rt);
  net::NetStats nt;
  nt.words = 99;
  core::put_net_stats(a, nt);
  reg.record("empty");

  bool ok = false;
  const std::string json = reg.to_json();  // parser keeps a view
  JsonParser parser(json);
  const JsonValue root = parser.parse(ok);
  ASSERT_TRUE(ok) << "metrics JSON failed to parse";
  const JsonArray& rows = root.array();
  ASSERT_EQ(rows.size(), 2u);
  const JsonObject& row = rows[0].object();
  EXPECT_EQ(row.at("label").str(), "run \"a\"");
  EXPECT_EQ(row.at("ops").num(), 42.0);
  EXPECT_EQ(row.at("rate").num(), 0.5);
  EXPECT_EQ(std::get<bool>(row.at("ok").v), true);
  EXPECT_EQ(row.at("note").str(), "hello\nworld");
  EXPECT_EQ(row.at("rt.migrations").num(), 7.0);
  EXPECT_EQ(row.at("net.words").num(), 99.0);
  EXPECT_GT(row.count("breakdown.user_code"), 0u);
  EXPECT_EQ(rows[1].object().at("label").str(), "empty");
}

// ---- end-to-end: traced workload runs --------------------------------------

apps::CountingConfig traced_counting(core::Mechanism mech,
                                     const std::string& trace_path) {
  apps::CountingConfig cfg;
  cfg.scheme = core::Scheme{mech, false, false};
  cfg.requesters = 8;
  cfg.window = apps::Window{5'000, 40'000};
  cfg.trace_path = trace_path;
  return cfg;
}

TEST(TracerSmoke, MigrationRunCoversCoreEventTypes) {
  const std::string path = testing::TempDir() + "trace_migration.json";
  const apps::RunStats r =
      run_counting(traced_counting(core::Mechanism::kMigration, path));
  EXPECT_EQ(r.trace_path, path);

  const JsonValue root = parse_trace_file(path);
  std::set<double> tids;
  const auto counts = instant_event_counts(root, &tids);
  for (const char* name :
       {"msg.send", "msg.deliver", "migrate.begin", "migrate.arrive",
        "migrate.short_circuit", "thread.create", "balancer.visit"}) {
    EXPECT_GT(counts.count(name), 0u) << "missing event type " << name;
  }
  // send/deliver pair up: nothing is lost on a fault-free network.
  EXPECT_EQ(counts.at("msg.send"), counts.at("msg.deliver"));
  // Tracks are per-processor ids within the simulated machine.
  ASSERT_FALSE(tids.empty());
  EXPECT_GE(*tids.begin(), 0.0);
  EXPECT_GT(tids.size(), 1u);
}

TEST(TracerSmoke, RpcRunHasRpcIssueAndReply) {
  const std::string path = testing::TempDir() + "trace_rpc.json";
  (void)run_counting(traced_counting(core::Mechanism::kRpc, path));
  const auto counts =
      instant_event_counts(parse_trace_file(path), nullptr);
  EXPECT_GT(counts.count("rpc.issue"), 0u);
  EXPECT_GT(counts.count("rpc.reply"), 0u);
  EXPECT_EQ(counts.at("rpc.issue"), counts.at("rpc.reply"));
  EXPECT_EQ(counts.count("migrate.begin"), 0u);
}

TEST(TracerSmoke, BTreeRunHasNodeVisits) {
  const std::string path = testing::TempDir() + "trace_btree.json";
  apps::BTreeConfig cfg;
  cfg.scheme = core::Scheme{core::Mechanism::kMigration, false, false};
  cfg.requesters = 4;
  cfg.nkeys = 500;
  cfg.window = apps::Window{5'000, 30'000};
  cfg.trace_path = path;
  (void)run_btree(cfg);
  const auto counts =
      instant_event_counts(parse_trace_file(path), nullptr);
  EXPECT_GT(counts.count("btree.node_visit"), 0u);
}

TEST(TracerSmoke, TraceIsDeterministicAcrossSameSeedRuns) {
  const std::string a = testing::TempDir() + "trace_det_a.json";
  const std::string b = testing::TempDir() + "trace_det_b.json";
  (void)run_counting(traced_counting(core::Mechanism::kMigration, a));
  (void)run_counting(traced_counting(core::Mechanism::kMigration, b));
  const std::string ta = slurp(a);
  EXPECT_FALSE(ta.empty());
  EXPECT_EQ(ta, slurp(b));
}

TEST(TracerSmoke, TracingDoesNotPerturbSimulationResults) {
  apps::CountingConfig cfg =
      traced_counting(core::Mechanism::kMigration, "");
  const apps::RunStats off = run_counting(cfg);
  cfg.trace_path = testing::TempDir() + "trace_perturb.json";
  const apps::RunStats on = run_counting(cfg);
  EXPECT_EQ(off.ops, on.ops);
  EXPECT_EQ(off.words, on.words);
  EXPECT_EQ(off.messages, on.messages);
  EXPECT_EQ(off.completed_at, on.completed_at);
  EXPECT_EQ(off.total_exited, on.total_exited);
  EXPECT_EQ(off.runtime.migrations, on.runtime.migrations);
  EXPECT_TRUE(off.trace_path.empty());
}

TEST(TracerSmoke, ChaosRunRecordsFaultAndReliabilityEvents) {
  const std::string path = testing::TempDir() + "trace_chaos.json";
  apps::CountingConfig cfg;
  cfg.scheme = core::Scheme{core::Mechanism::kMigration, false, false};
  cfg.requesters = 8;
  cfg.ops_per_requester = 20;
  cfg.faults.rates.drop = 0.05;
  cfg.faults.rates.duplicate = 0.02;
  cfg.faults.rates.delay = 0.05;
  cfg.faults.seed = 42;
  cfg.trace_path = path;
  const apps::RunStats r = run_counting(cfg);
  EXPECT_EQ(r.total_exited, 8 * 20);

  const auto counts =
      instant_event_counts(parse_trace_file(path), nullptr);
  EXPECT_GT(counts.count("fault.drop"), 0u);
  EXPECT_GT(counts.count("reliable.retransmit"), 0u);
  EXPECT_GT(counts.count("reliable.timeout"), 0u);
}

}  // namespace
}  // namespace cm
