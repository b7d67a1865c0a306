#include "policy/policy.h"

#include <algorithm>

#include "check/checker.h"
#include "core/metrics.h"
#include "sim/tracer.h"

namespace cm::policy {

void put_policy_stats(core::Metrics& m, const PolicyStats& s) {
  m.put("policy.samples", s.samples);
  m.put("policy.global_passes", s.global_passes);
  m.put("policy.load_reports", s.load_reports);
  m.put("policy.broadcast_rounds", s.broadcast_rounds);
  m.put("policy.digests", s.digests);
  m.put("policy.decisions", s.decisions);
  m.put("policy.moves_issued", s.moves_issued);
  m.put("policy.moves_completed", s.moves_completed);
  m.put("policy.suppressed_cooldown", s.suppressed_cooldown);
  m.put("policy.suppressed_bounce", s.suppressed_bounce);
  m.put("policy.suppressed_load", s.suppressed_load);
  m.put("policy.suppressed_cap", s.suppressed_cap);
  m.put("policy.rebounces", s.rebounces);
  m.put("policy.phase_read_edges", s.phase_read_edges);
  m.put("policy.phase_update_edges", s.phase_update_edges);
  m.put("policy.flips_on", s.flips_on);
  m.put("policy.flips_off", s.flips_off);
  m.put("policy.accesses", s.accesses);
  m.put("policy.writes", s.writes);
  m.put("policy.remote_accesses", s.remote_accesses);
  m.put("policy.max_backlog", s.max_backlog);
  m.put("policy.managed", s.managed);
}

PolicyEngine::PolicyEngine(core::Runtime& rt, PolicyConfig cfg)
    : rt_(&rt), cfg_(cfg), nprocs_(rt.machine().size()),
      samplers_(rt.machine().size()),
      chooser_(cfg.chooser),
      views_(rt.machine().size()),
      board_levels_(rt.machine().size(), 0) {
  for (Sampler& s : samplers_) {
    s.timer = std::make_unique<sim::Timer>(rt.machine().engine());
  }
}

void PolicyEngine::manage(core::ObjectId id, core::MobileObject* mobile,
                          unsigned object_words, bool replicable) {
  if (index_.contains(id)) return;
  index_.emplace(id, static_cast<std::uint32_t>(objects_.size()));
  Managed& m = objects_.emplace_back();
  m.id = id;
  m.mobile = mobile;
  m.words = object_words;
  m.replicable = replicable;
  if (replicable && cfg_.phase_adaptive && !cfg_.observe_only) {
    // Pre-built (construction is sim-free) so a flip never allocates or
    // registers anything mid-run.
    m.replica = std::make_unique<core::Replicated>(*rt_, id, object_words);
  }
}

void PolicyEngine::start() {
  started_ = true;
  if (check::Checker* ck = rt_->checker()) {
    ck->on_policy_config(cfg_.cooldown);
  }
  sim::Engine& eng = engine();
  for (ProcId p = 0; p < nprocs_; ++p) {
    samplers_[p].parked = false;
    eng.at_on(p, cfg_.sample_interval, [this, p] { tick(p); });
  }
}

void PolicyEngine::on_access(core::ObjectId id, ProcId accessor, bool write) {
  auto it = index_.find(id);
  if (it == index_.end()) return;
  Managed& m = objects_[it->second];
  ++stats_.accesses;
  if (write) {
    ++stats_.writes;
    ++m.win_writes;
  } else {
    ++m.win_reads;
  }
  const ProcId home = rt_->objects().home_of(id);
  if (accessor != home) {
    ++stats_.remote_accesses;
    ++m.win_remote;
    std::uint64_t& c = m.win_by_accessor[accessor];
    ++c;
    // Strictly-greater replacement: the first accessor to reach a count
    // keeps the argmax, so ties never depend on hash iteration order.
    if (c > m.win_top_count) {
      m.win_top_count = c;
      m.win_top = accessor;
    }
  }
  chooser_.record(id, accessor, write);
  Sampler& s = samplers_[home];
  ++s.accesses_since;
  if (s.parked && started_) {
    // Revive the home's sampler from the home's own event context (the
    // method body executes there), homing the tick at the home.
    s.parked = false;
    s.idle = 0;
    engine().after_on(home, cfg_.sample_interval, [this, home] {
      tick(home);
    });
  }
}

core::Replicated* PolicyEngine::replica_of(core::ObjectId id) {
  auto it = index_.find(id);
  if (it == index_.end()) return nullptr;
  Managed& m = objects_[it->second];
  return m.flipped ? m.replica.get() : nullptr;
}

sim::Task<> PolicyEngine::write_barrier(core::Ctx& ctx, core::ObjectId id) {
  if (core::Replicated* r = replica_of(id)) {
    co_await r->invalidate_all(ctx);
  }
}

PolicyStats PolicyEngine::stats() const {
  PolicyStats out = stats_;
  out.managed = objects_.size();
  return out;
}

PolicyEngine::Phase PolicyEngine::phase_of(core::ObjectId id) const {
  auto it = index_.find(id);
  return it == index_.end() ? Phase::kNeutral : objects_[it->second].phase;
}

bool PolicyEngine::replicated_mode(core::ObjectId id) const {
  auto it = index_.find(id);
  return it != index_.end() && objects_[it->second].flipped;
}

void PolicyEngine::tick(ProcId p) {
  Sampler& s = samplers_[p];
  ++s.ticks;
  ++stats_.samples;
  sim::Engine& eng = engine();
  const Cycles now = eng.now();
  const Cycles free_at = rt_->machine().proc(p).free_at();
  const Cycles backlog = free_at > now ? free_at - now : 0;
  if (backlog > stats_.max_backlog) stats_.max_backlog = backlog;
  const bool global = (s.ticks % cfg_.global_every) == 0;
  if (sim::Tracer* tr = eng.tracer()) {
    tr->record(sim::TraceEvent::kPolicySample, p,
               {{"backlog", backlog},
                {"accesses", s.accesses_since},
                {"tick", s.ticks},
                {"global", global ? 1u : 0u}});
  }

  unsigned moved = 0;
  for (Managed& m : objects_) {
    if (rt_->objects().home_of(m.id) != p) continue;
    const std::uint64_t total = m.win_reads + m.win_writes;
    if (total > 0) {
      evaluate_phase(p, m, total);
      if (global && cfg_.rebalance) {
        // Satellite feedback: the rebalancer moved this object here and it
        // immediately wants to leave again — that is a bounce, and it
        // raises the chooser's bounce rate (which in turn vetoes moves).
        if (m.probe_rebounce && total >= cfg_.min_accesses) {
          m.probe_rebounce = false;
          if (m.win_top != sim::kNoProc &&
              static_cast<double>(m.win_top_count) /
                      static_cast<double>(total) >=
                  cfg_.attract_share) {
            chooser_.record_bounce(m.id);
            ++stats_.rebounces;
          }
        }
        maybe_move(p, m, total, moved);
      }
    }
    if (global || total > 0) reset_window(m);
  }

  if (global) {
    ++stats_.global_passes;
    const auto level = static_cast<std::uint8_t>(
        std::min<Cycles>(backlog / cfg_.load_quantum, 255));
    ++stats_.load_reports;
    if (p == cfg_.coordinator) {
      board_note(p, level);
    } else {
      sim::detach(send_report(p, level));
    }
  }

  const bool active = s.accesses_since > 0 || backlog > 0;
  s.accesses_since = 0;
  if (active) {
    s.idle = 0;
  } else {
    ++s.idle;
  }
  if (s.idle < cfg_.idle_stop_after) {
    s.timer->arm(cfg_.sample_interval, [this, p] { tick(p); });
  } else {
    s.parked = true;  // the next on_access at p re-arms
  }
}

void PolicyEngine::evaluate_phase(ProcId p, Managed& m, std::uint64_t total) {
  const double wr =
      static_cast<double>(m.win_writes) / static_cast<double>(total);
  Phase next = m.phase;
  if (total >= cfg_.phase_min_accesses && wr <= cfg_.read_phase_ratio) {
    next = Phase::kRead;
  } else if (m.win_writes >= cfg_.update_min_writes &&
             wr >= cfg_.update_phase_ratio) {
    next = Phase::kUpdate;
  }
  if (next == m.phase) return;
  m.phase = next;
  const bool read_edge = next == Phase::kRead;
  if (read_edge) {
    ++stats_.phase_read_edges;
  } else {
    ++stats_.phase_update_edges;
  }
  sim::Engine& eng = engine();
  if (sim::Tracer* tr = eng.tracer()) {
    tr->record(sim::TraceEvent::kPolicyDecision, p,
               {{"obj", m.id},
                {"kind", read_edge ? 1u : 2u},  // 1 = READ, 2 = UPDATE edge
                {"total", total},
                {"writes", m.win_writes}});
  }
  if (m.replica == nullptr) return;  // observe-only / not phase-adaptive
  if (read_edge && !m.flipped) {
    m.flipped = true;
    ++stats_.flips_on;
    if (check::Checker* ck = rt_->checker()) ck->on_policy_flip(m.id, true);
    if (sim::Tracer* tr = eng.tracer()) {
      tr->record(sim::TraceEvent::kPolicyFlip, p, {{"obj", m.id}, {"on", 1}});
    }
  } else if (!read_edge && m.flipped) {
    m.flipped = false;
    ++stats_.flips_off;
    if (check::Checker* ck = rt_->checker()) ck->on_policy_flip(m.id, false);
    if (sim::Tracer* tr = eng.tracer()) {
      tr->record(sim::TraceEvent::kPolicyFlip, p, {{"obj", m.id}, {"on", 0}});
    }
    // Writers stop invalidating the moment the flip is off; clear the
    // remote valid bits so a later flip-on starts from a coherent set.
    sim::detach(invalidate_replicas(m.replica.get(), p));
  }
}

void PolicyEngine::maybe_move(ProcId p, Managed& m, std::uint64_t total,
                              unsigned& moved) {
  if (m.flipped) return;  // replication owns it; never move a flipped object
  if (total < cfg_.min_accesses) return;
  if (m.win_top == sim::kNoProc) return;
  const double share =
      static_cast<double>(m.win_top_count) / static_cast<double>(total);
  if (share < cfg_.attract_share) return;

  ++stats_.decisions;
  sim::Engine& eng = engine();
  if (sim::Tracer* tr = eng.tracer()) {
    tr->record(sim::TraceEvent::kPolicyDecision, p,
               {{"obj", m.id},
                {"kind", 0u},  // 0 = move verdict
                {"target", m.win_top},
                {"share_pm", static_cast<std::uint64_t>(share * 1000.0)}});
  }
  const Cycles now = eng.now();
  if (m.ever_moved && now - m.last_move_at < cfg_.cooldown) {
    ++stats_.suppressed_cooldown;
    return;
  }
  if (chooser_.bounce_rate(m.id) > cfg_.chooser.bounce_rate_cap) {
    ++stats_.suppressed_bounce;
    return;
  }
  const View& v = views_[p];
  if (v.round > 0 && v.levels[m.win_top] > v.levels[p] + cfg_.load_slack) {
    ++stats_.suppressed_load;  // digest says the target is already overloaded
    return;
  }
  if (moved >= cfg_.degree_of_migration) {
    ++stats_.suppressed_cap;
    return;
  }
  ++moved;
  // Cooldown opens at the committed decision, observe mode included, so
  // the decision stream has the same hysteresis shape whether or not the
  // policy acts.
  m.last_move_at = now;
  m.ever_moved = true;
  if (cfg_.observe_only) return;
  ++stats_.moves_issued;
  m.probe_rebounce = true;
  if (check::Checker* ck = rt_->checker()) ck->on_policy_move(m.id);
  if (sim::Tracer* tr = eng.tracer()) {
    tr->record(sim::TraceEvent::kPolicyMove, p,
               {{"obj", m.id}, {"from", p}, {"to", m.win_top}});
  }
  sim::detach(do_move(&m, p, m.win_top));
}

void PolicyEngine::reset_window(Managed& m) {
  m.win_reads = 0;
  m.win_writes = 0;
  m.win_remote = 0;
  m.win_top_count = 0;
  m.win_top = sim::kNoProc;
  m.win_by_accessor.clear();
}

void PolicyEngine::board_note(ProcId from, std::uint8_t level) {
  board_levels_[from] = level;
  if (++board_reports_ < nprocs_) return;
  board_reports_ = 0;
  ++round_;
  ++stats_.broadcast_rounds;
  for (ProcId q = 0; q < nprocs_; ++q) {
    ++stats_.digests;
    if (q == cfg_.coordinator) {
      views_[q].round = round_;
      views_[q].levels = board_levels_;
    } else {
      sim::detach(send_digest(q, round_, board_levels_));
    }
  }
}

sim::Task<> PolicyEngine::do_move(Managed* m, ProcId from, ProcId to) {
  // Rebalance order to the chosen destination, then the standard attract
  // protocol pulls the object there (charges, checker move hooks and stats
  // all live in MobileObject::attract / the locator's move path).
  const core::CostModel& c = rt_->cost();
  co_await rt_->charge(from, c.sender_total(cfg_.ctl_words),
                       core::Category::kObjectMove);
  co_await rt_->transfer(from, to, cfg_.ctl_words);
  co_await rt_->charge(to, c.receiver_total(cfg_.ctl_words, false),
                       core::Category::kObjectMove);
  core::Ctx ctx{rt_, to};
  co_await m->mobile->attract(ctx);
  // Keep the replica set's notion of the primary's home current, so a
  // later phase flip serves from the right processor.
  if (m->replica != nullptr) m->replica->rehome(ctx.proc);
  ++stats_.moves_completed;
}

sim::Task<> PolicyEngine::send_report(ProcId from, std::uint8_t level) {
  co_await rt_->transfer(from, cfg_.coordinator, cfg_.report_words);
  // Delivered: this continuation runs at the coordinator's events.
  board_note(from, level);
}

sim::Task<> PolicyEngine::send_digest(ProcId to, std::uint32_t round,
                                      std::vector<std::uint8_t> levels) {
  co_await rt_->transfer(cfg_.coordinator, to, cfg_.digest_words);
  View& v = views_[to];
  if (round > v.round) {
    v.round = round;
    v.levels = std::move(levels);
  }
}

sim::Task<> PolicyEngine::invalidate_replicas(core::Replicated* r,
                                              ProcId at) {
  core::Ctx ctx{rt_, at};
  co_await r->invalidate_all(ctx);
}

}  // namespace cm::policy
