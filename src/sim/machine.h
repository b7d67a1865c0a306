// The simulated multiprocessor: P processors sharing one event engine. Work
// runs on a processor as a wake (`resume_on`, `compute`): a coroutine or a
// Continuation woken once the CPU has served its cost.
#pragma once

#include <coroutine>
#include <cstddef>

#include "sim/engine.h"
#include "sim/processor.h"
#include "sim/task.h"
#include "sim/types.h"

namespace cm::sim {

class Machine {
 public:
  Machine(Engine& engine, ProcId nprocs) : engine_(&engine), procs_(nprocs) {}

  [[nodiscard]] Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] const Engine& engine() const noexcept { return *engine_; }
  [[nodiscard]] ProcId size() const noexcept { return procs_.size(); }
  [[nodiscard]] ProcessorView proc(ProcId p) const {
    return ProcessorView(procs_, p);
  }

  /// Wake `w` (a suspended coroutine or a Continuation) on processor `p`:
  /// the CPU is occupied for `cost` cycles starting when it is free (e.g.
  /// scheduler/dispatch overhead), and `w` wakes at the completion time, in
  /// an event homed at `p`.
  void resume_on(ProcId p, Cycles cost, Wake w) {
    engine_->resume_at_on(p, procs_.acquire(p, engine_->now(), cost), w);
  }

  /// Awaiter of `compute`. A named type rather than a `suspend_to` lambda,
  /// so that plain functions in other translation units — the runtime's
  /// stubs — can book their costs and return the charge for their caller
  /// to await.
  struct Compute {
    Machine* machine;
    ProcId p;
    Cycles cost;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const { then(h); }
    void await_resume() const noexcept {}

    /// Occupy the processor, then wake `w`: what `co_await` does, for a
    /// Continuation.
    void then(Wake w) const { machine->resume_on(p, cost, w); }
  };

  /// Awaitable: occupy processor `p` for `cost` busy cycles.
  [[nodiscard]] Compute compute(ProcId p, Cycles cost) {
    return Compute{this, p, cost};
  }

  /// Awaitable: wall-clock delay of `d` cycles that does NOT occupy the CPU
  /// (e.g. waiting on a hardware resource, backoff between spin probes).
  [[nodiscard]] auto sleep(Cycles d) {
    return suspend_to([this, d](std::coroutine_handle<> h) {
      engine_->resume_at_on(engine_->current_home(), engine_->now() + d, h);
    });
  }

  /// Sum of busy cycles over all processors.
  [[nodiscard]] Cycles total_busy() const { return procs_.total_busy(); }

 private:
  Engine* engine_;
  ProcessorFile procs_;
};

}  // namespace cm::sim
