#include "check/checker.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace cm::check {
namespace {

std::string proc_str(ProcId p) {
  return p == sim::kNoProc ? std::string("none") : std::to_string(p);
}

}  // namespace

Checker::Checker(sim::Engine& engine, ProcId nprocs, CheckConfig cfg)
    : engine_(&engine),
      cfg_(cfg),
      nprocs_(nprocs),
      clocks_(nprocs, std::vector<std::uint64_t>(nprocs, 0)) {}

std::uint64_t Checker::fresh_id(std::vector<std::uint64_t>& cnt) {
  const unsigned lane = engine_->current_lane();
  if (lane >= cnt.size()) [[unlikely]] cnt.resize(lane + 1, 0);
  return (std::uint64_t{lane} << 40) | ++cnt[lane];
}

void Checker::violate(Violation v, ProcId proc, std::string detail) {
  ++stats_.total_violations;
  ++stats_.by_kind[static_cast<unsigned>(v)];
  const Cycles at = engine_->now();
  if (cfg_.abort_on_violation) {
    std::fprintf(stderr, "check: VIOLATION %s at cycle %llu proc %s: %s\n",
                 std::string(violation_name(v)).c_str(),
                 static_cast<unsigned long long>(at), proc_str(proc).c_str(),
                 detail.c_str());
  }
  if (records_.size() < cfg_.max_records) {
    records_.push_back(ViolationRecord{v, at, proc, std::move(detail)});
  }
  if (cfg_.abort_on_violation) std::abort();
}

void Checker::join(ProcId p, const std::vector<std::uint64_t>& other) {
  auto& mine = clocks_[p];
  for (ProcId i = 0; i < nprocs_; ++i) {
    if (other[i] > mine[i]) mine[i] = other[i];
  }
}

bool Checker::leq(const std::vector<std::uint64_t>& a,
                  const std::vector<std::uint64_t>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

std::uint64_t Checker::id_of(
    std::unordered_map<const void*, std::uint64_t>& reg, const void* p) {
  auto [it, fresh] = reg.emplace(p, reg.size());
  (void)fresh;
  return it->second;
}

const std::string& Checker::mutex_name(std::uint64_t id) const {
  static const std::string unknown = "?";
  return id < mutex_names_.size() ? mutex_names_[id] : unknown;
}

// ---- happens-before ---------------------------------------------------------

std::uint64_t Checker::on_send(ProcId src, ProcId dst) {
  (void)dst;
  const std::uint64_t token = fresh_id(send_cnt_);
  ++stats_.sends;
  tick(src);
  in_flight_.emplace(token, Edge{clocks_[src], src, engine_->now()});
  return token;
}

void Checker::on_deliver(ProcId dst, std::uint64_t token) {
  ++stats_.delivers;
  tick(dst);
  auto it = in_flight_.find(token);
  if (it == in_flight_.end()) return;  // duplicate closed its edge already
  const Edge& edge = it->second;
  auto fe = fail_epochs_.find(edge.src);
  if (fe != fail_epochs_.end() && edge.sent_at >= fe->second) {
    // The faulty-network wrapper must eat everything a dead NIC emits; a
    // delivery here means some path bypassed it (by construction this can
    // only be a layering regression, never a lossy run's bad luck).
    violate(Violation::kPostFailureDelivery, dst,
            "message sent by proc " + proc_str(edge.src) + " at cycle " +
                std::to_string(edge.sent_at) +
                " delivered despite its fail-stop epoch " +
                std::to_string(fe->second));
  }
  join(dst, edge.clock);
  in_flight_.erase(it);
}

// ---- phantom object accesses ------------------------------------------------

void Checker::on_object_access(ProcId proc, std::uint64_t obj, ProcId host,
                               bool write) {
  ++stats_.accesses;
  auto [it, fresh] = owner_mirror_.emplace(obj, host);
  if (!fresh && it->second != host) {
    // Ground truth moved without a commit hook firing: the move protocol
    // and the ObjectSpace binding have diverged.
    violate(Violation::kOwnerDivergence, proc,
            "obj " + std::to_string(obj) + " host " + proc_str(host) +
                " but last committed owner " + proc_str(it->second));
    it->second = host;
  }
  if (proc == host) return;
  std::string why;
  auto c = last_commit_.find(obj);
  if (c == last_commit_.end()) {
    why = "no relocation observed";
  } else if (leq(c->second.clock, clocks_[proc])) {
    why = "causally after the relocation commit (stale binding kept live)";
  } else {
    why = "concurrent with an in-flight relocation (racy access)";
  }
  violate(write ? Violation::kPhantomWrite : Violation::kPhantomRead, proc,
          std::string(write ? "write" : "read") + " of obj " +
              std::to_string(obj) + " from proc " + proc_str(proc) +
              " while hosted on " + proc_str(host) + "; " + why);
}

// ---- lock graph -------------------------------------------------------------

void Checker::on_lock_attempt(const void* agent, const void* mutex,
                              const char* name) {
  ++stats_.lock_attempts;
  const std::uint64_t a = id_of(agent_ids_, agent);
  const std::uint64_t m = id_of(mutex_ids_, mutex);
  if (m >= mutex_names_.size()) mutex_names_.resize(m + 1, "?");
  if (name != nullptr && mutex_names_[m] == "?") mutex_names_[m] = name;

  // Lock-order discipline: acquiring m while holding h adds h -> m to the
  // global order graph; a path m ->* h already present means two call
  // sites disagree on the order and can deadlock under the right
  // interleaving.
  for (std::uint64_t h : held_[a]) {
    if (h == m) continue;
    if (order_reachable(m, h) && reported_orders_.insert({h, m}).second) {
      violate(Violation::kLockOrderInversion, sim::kNoProc,
              "lock '" + mutex_name(m) + "' (#" + std::to_string(m) +
                  ") acquired while holding '" + mutex_name(h) + "' (#" +
                  std::to_string(h) + "), but the opposite order exists");
    }
    order_edges_[h].insert(m);
  }

  // Deadlock: walk agent -waits-for-> mutex -held-by-> agent until the
  // walk closes on the requester (a real cycle, not just a risky order).
  waiting_[a] = m;
  std::uint64_t cur = a;
  std::set<std::uint64_t> seen;
  while (seen.insert(cur).second) {
    auto w = waiting_.find(cur);
    if (w == waiting_.end()) break;
    auto h = holder_.find(w->second);
    if (h == holder_.end()) break;
    if (h->second == a && cur != a) {
      violate(Violation::kDeadlock, sim::kNoProc,
              "agent #" + std::to_string(a) + " waiting on '" +
                  mutex_name(m) + "' closes a wait-for cycle of " +
                  std::to_string(seen.size()) + " agents");
      break;
    }
    cur = h->second;
  }
}

void Checker::on_lock_acquired(const void* agent, const void* mutex,
                               const char* name) {
  (void)name;
  ++stats_.lock_acquires;
  const std::uint64_t a = id_of(agent_ids_, agent);
  const std::uint64_t m = id_of(mutex_ids_, mutex);
  waiting_.erase(a);
  holder_[m] = a;
  held_[a].push_back(m);
}

void Checker::on_lock_released(const void* agent, const void* mutex) {
  const std::uint64_t a = id_of(agent_ids_, agent);
  const std::uint64_t m = id_of(mutex_ids_, mutex);
  holder_.erase(m);
  auto& held = held_[a];
  for (auto it = held.begin(); it != held.end(); ++it) {
    if (*it == m) {
      held.erase(it);
      break;
    }
  }
}

bool Checker::order_reachable(std::uint64_t from, std::uint64_t to) const {
  if (from == to) return true;
  std::set<std::uint64_t> seen;
  std::vector<std::uint64_t> stack{from};
  while (!stack.empty()) {
    const std::uint64_t cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur).second) continue;
    auto it = order_edges_.find(cur);
    if (it == order_edges_.end()) continue;
    for (std::uint64_t next : it->second) {
      if (next == to) return true;
      stack.push_back(next);
    }
  }
  return false;
}

// ---- object-move protocol ---------------------------------------------------

void Checker::on_move_begin(std::uint64_t obj, ProcId mover) {
  auto& w = move_windows_[obj];
  if (w.open) {
    violate(Violation::kMoveOverlap, mover,
            "obj " + std::to_string(obj) + ": move by proc " +
                proc_str(mover) + " began while proc " + proc_str(w.mover) +
                "'s move is still in flight (home-serialisation broken)");
  }
  w.open = true;
  w.mover = mover;
}

void Checker::on_move_commit(std::uint64_t obj, ProcId from, ProcId to) {
  auto it = owner_mirror_.find(obj);
  if (it != owner_mirror_.end() && it->second != from) {
    violate(Violation::kMoveFromNonOwner, to,
            "obj " + std::to_string(obj) + " moved " + proc_str(from) +
                " -> " + proc_str(to) + " but committed owner was " +
                proc_str(it->second));
  }
  owner_mirror_[obj] = to;
  last_commit_[obj] = Commit{to, clocks_[to]};
}

void Checker::on_move_end(std::uint64_t obj) {
  auto it = move_windows_.find(obj);
  if (it == move_windows_.end() || !it->second.open) return;
  it->second.open = false;
  ++stats_.moves;
}

// ---- forwarding chains ------------------------------------------------------

std::uint64_t Checker::on_chase_begin(std::uint64_t obj, ProcId start) {
  const std::uint64_t id = fresh_id(chase_cnt_);
  ++stats_.chases;
  chases_.emplace(id, Chase{obj, {start}, {}});
  return id;
}

void Checker::on_chase_hop(std::uint64_t chase, ProcId from, ProcId to) {
  ++stats_.chase_hops;
  auto it = chases_.find(chase);
  if (it == chases_.end()) return;
  // A chase may legitimately revisit a processor the object moved back to
  // (its pointer was freshened in between); what must never happen is
  // following the SAME pointer twice — that chase would loop forever.
  if (!it->second.edges.insert({from, to}).second) {
    violate(Violation::kForwardCycle, from,
            "obj " + std::to_string(it->second.obj) +
                ": chase followed the pointer " + proc_str(from) + " -> " +
                proc_str(to) + " twice (" +
                std::to_string(it->second.visited.size()) +
                " procs crossed)");
  }
  it->second.visited.push_back(to);
}

void Checker::on_fwd_pointer(ProcId at, std::uint64_t obj, ProcId to) {
  fwd_mirror_[{at, obj}] = to;
}

void Checker::on_fwd_erase(ProcId at, std::uint64_t obj) {
  fwd_mirror_.erase({at, obj});
}

void Checker::on_chase_end(std::uint64_t chase, ProcId resting) {
  auto it = chases_.find(chase);
  if (it == chases_.end()) return;
  // Path compression on arrival: every processor the chase crossed must
  // now point directly at the resting place (one stale hop is one extra
  // bounce for every later client that consults it).
  for (ProcId h : it->second.visited) {
    if (h == resting) continue;
    auto fwd = fwd_mirror_.find({h, it->second.obj});
    if (fwd == fwd_mirror_.end() || fwd->second != resting) {
      violate(Violation::kChainNotCompressed, h,
              "obj " + std::to_string(it->second.obj) +
                  ": after a chase to " + proc_str(resting) + ", proc " +
                  proc_str(h) +
                  (fwd == fwd_mirror_.end()
                       ? " has no forwarding pointer"
                       : " still points at " + proc_str(fwd->second)));
    }
  }
  chases_.erase(it);
}

// ---- reliable transport -----------------------------------------------------

void Checker::on_seq_sent(ProcId src, ProcId dst, std::uint64_t seq) {
  ++stats_.seqs_sent;
  if (!channels_[{src, dst}].sent.insert(seq).second) {
    violate(Violation::kSeqDuplicate, src,
            "link " + proc_str(src) + "->" + proc_str(dst) + " seq " +
                std::to_string(seq) + " assigned twice");
  }
}

void Checker::on_seq_delivered(ProcId src, ProcId dst, std::uint64_t seq,
                               bool fresh) {
  ++stats_.seqs_delivered;
  Channel& ch = channels_[{src, dst}];
  if (ch.sent.find(seq) == ch.sent.end()) {
    violate(Violation::kSeqDuplicate, dst,
            "link " + proc_str(src) + "->" + proc_str(dst) +
                " delivered seq " + std::to_string(seq) +
                " that was never sent");
    return;
  }
  const bool first = ch.delivered.insert(seq).second;
  if (first != fresh) {
    // The transport's dedup filter disagrees with an independent replay
    // of the delivery history: it either surfaced a duplicate as fresh or
    // swallowed a first delivery as stale.
    violate(Violation::kSeqDuplicate, dst,
            "link " + proc_str(src) + "->" + proc_str(dst) + " seq " +
                std::to_string(seq) + ": transport says " +
                (fresh ? "fresh" : "duplicate") + ", history says " +
                (first ? "fresh" : "duplicate"));
  }
}

void Checker::on_seq_abandoned(ProcId src, ProcId dst, std::uint64_t seq) {
  ++stats_.seqs_abandoned;
  channels_[{src, dst}].abandoned.insert(seq);
}

// ---- replies ----------------------------------------------------------------

std::uint64_t Checker::on_call_begin(ProcId caller, std::uint64_t obj) {
  const std::uint64_t id = fresh_id(call_cnt_);
  ++stats_.calls;
  calls_.emplace(id, Call{caller, obj, 0});
  return id;
}

void Checker::on_reply(std::uint64_t call, ProcId at) {
  ++stats_.replies;
  auto it = calls_.find(call);
  if (it == calls_.end()) return;
  Call& c = it->second;
  ++c.replies;
  if (c.replies > 1) {
    violate(Violation::kDuplicateReply, at,
            "call #" + std::to_string(call) + " on obj " +
                std::to_string(c.obj) + " from proc " + proc_str(c.caller) +
                " received reply " + std::to_string(c.replies) + " times");
  }
}

void Checker::on_call_abandoned(std::uint64_t call) {
  ++stats_.calls_abandoned;
  auto it = calls_.find(call);
  if (it == calls_.end()) return;
  it->second.abandoned = true;
}

// ---- fail-stop crashes ------------------------------------------------------

void Checker::on_fail_stop(ProcId p, Cycles at) {
  ++stats_.fail_stops;
  auto [it, fresh] = fail_epochs_.emplace(p, at);
  if (!fresh && at < it->second) it->second = at;  // earliest death wins
}

void Checker::on_policy_config(Cycles move_cooldown) {
  policy_cooldown_ = move_cooldown;
}

void Checker::on_policy_move(std::uint64_t obj) {
  ++stats_.policy_moves;
  const Cycles t = engine_->now();
  auto [it, fresh] = policy_last_move_.emplace(obj, t);
  if (fresh) return;
  if (policy_cooldown_ > 0 && t - it->second < policy_cooldown_) {
    violate(Violation::kPolicyMoveInCooldown, sim::kNoProc,
            "obj " + std::to_string(obj) + " moved at cycle " +
                std::to_string(t) + ", only " +
                std::to_string(t - it->second) +
                " cycles after its previous policy move (cooldown " +
                std::to_string(policy_cooldown_) + ")");
  }
  it->second = t;
}

void Checker::on_policy_flip(std::uint64_t obj, bool to_replicated) {
  ++stats_.policy_flips;
  auto [it, fresh] = policy_mode_.emplace(obj, false);
  (void)fresh;
  if (it->second == to_replicated) {
    violate(Violation::kPolicyRedundantFlip, sim::kNoProc,
            "obj " + std::to_string(obj) + " flipped to " +
                std::string(to_replicated ? "replicated" : "plain") +
                " mode without a phase edge (already there)");
  }
  it->second = to_replicated;
}

void Checker::on_lease(ProcId p, Cycles expiry) {
  ++stats_.leases;
  auto [it, fresh] = lease_expiry_.emplace(p, expiry);
  if (fresh) return;
  if (expiry < it->second) {
    violate(Violation::kLeaseRegression, p,
            "proc " + proc_str(p) + " lease renewed to cycle " +
                std::to_string(expiry) + " after a later expiry " +
                std::to_string(it->second));
    return;
  }
  it->second = expiry;
}

void Checker::on_suspect(ProcId p) {
  (void)p;
  ++stats_.suspicions;
}

void Checker::on_rehome(std::uint64_t obj, ProcId from, ProcId to) {
  ++stats_.rehomes;
  if (!rehomed_.insert({obj, from}).second) {
    violate(Violation::kDuplicateRehome, to,
            "obj " + std::to_string(obj) + " recovered from failed proc " +
                proc_str(from) + " more than once");
  }
  auto it = owner_mirror_.find(obj);
  if (it != owner_mirror_.end() && it->second != from) {
    violate(Violation::kDuplicateRehome, to,
            "obj " + std::to_string(obj) + " re-homed " + proc_str(from) +
                " -> " + proc_str(to) + " but committed owner was " +
                proc_str(it->second));
  }
  // A recovery commit is a relocation commit: keep the owner mirror and
  // the causal classification of later accesses coherent with it.
  owner_mirror_[obj] = to;
  last_commit_[obj] = Commit{to, clocks_[to]};
}

// ---- coherence directory ----------------------------------------------------

void Checker::on_line_state(std::uint64_t line, bool modified,
                            unsigned sharer_count, bool owner_valid,
                            bool owner_is_sharer) {
  ++stats_.line_checks;
  if (modified) {
    if (sharer_count != 1 || !owner_valid || !owner_is_sharer) {
      violate(Violation::kCoherenceConflict, sim::kNoProc,
              "line " + std::to_string(line) + " Modified with " +
                  std::to_string(sharer_count) + " sharers, owner " +
                  (owner_valid ? (owner_is_sharer ? "ok" : "not a sharer")
                               : "invalid"));
    }
  } else if (owner_valid) {
    violate(Violation::kCoherenceConflict, sim::kNoProc,
            "line " + std::to_string(line) +
                " clean but still has a registered owner");
  }
}

// ---- lifecycle --------------------------------------------------------------

void Checker::finalize() {
  if (stats_.finalized) return;
  stats_.finalized = true;
  for (const auto& [link, ch] : channels_) {
    for (std::uint64_t seq : ch.sent) {
      if (ch.delivered.count(seq) == 0 && ch.abandoned.count(seq) == 0) {
        violate(Violation::kSeqGap, link.first,
                "link " + proc_str(link.first) + "->" + proc_str(link.second) +
                    " seq " + std::to_string(seq) +
                    " sent but never delivered nor excused by an exhausted "
                    "retry budget");
      }
    }
  }
  for (const auto& [id, c] : calls_) {
    if (c.replies == 0 && !c.abandoned) {
      violate(Violation::kLostReply, c.caller,
              "call #" + std::to_string(id) + " on obj " +
                  std::to_string(c.obj) + " never saw its reply");
    }
  }
}

}  // namespace cm::check
