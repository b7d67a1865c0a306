#include "shmem/sync.h"

#include <stdexcept>

namespace cm::shmem {
namespace {

/// Resume every parked coroutine in parking order. The list's buffer goes
/// back to `parked` if nobody re-parked meanwhile, so the next waiter to
/// park does not allocate.
void wake_all(std::vector<std::coroutine_handle<>>& parked) {
  std::vector<std::coroutine_handle<>> woken;
  woken.swap(parked);
  for (const std::coroutine_handle<> h : woken) h.resume();
  if (parked.empty()) {
    woken.clear();
    parked.swap(woken);
  }
}

}  // namespace

sim::Task<> SpinLock::acquire(sim::ProcId p) {
  for (;;) {
    // Test: read the flag (first probe misses; spinning probes hit).
    co_await mem_->read(p, addr_, 4);
    if (!held_) {
      // Test-and-set: needs the line exclusive.
      co_await mem_->write(p, addr_, 4);
      if (!held_) {
        held_ = true;
        holder_ = p;
        co_return;
      }
      // Lost the race to another processor's RMW; back to spinning.
    }
    // Wait for the holder's releasing write to invalidate our copy.
    co_await sim::suspend_to(
        [this](std::coroutine_handle<> h) { spinners_.push_back(h); });
  }
}

sim::Task<> SpinLock::release(sim::ProcId p) {
  if (!held_ || holder_ != p) {
    throw std::logic_error("SpinLock::release: the processor does not hold it");
  }
  held_ = false;
  holder_ = sim::kNoProc;
  // The releasing store invalidates every spinner's Shared copy (the
  // coherence traffic of a contended handoff).
  co_await mem_->write(p, addr_, 4);
  wake_all(spinners_);
}

sim::Task<std::uint64_t> SeqLock::begin_read(sim::ProcId p) {
  for (;;) {
    co_await mem_->read(p, addr_, 8);
    if ((version_ & 1) == 0) co_return version_;
    // A write is in progress; wait for it to finish (its end_write store
    // invalidates our cached copy of the version line).
    co_await sim::suspend_to(
        [this](std::coroutine_handle<> h) { waiters_.push_back(h); });
  }
}

sim::Task<bool> SeqLock::validate(sim::ProcId p, std::uint64_t v) {
  co_await mem_->read(p, addr_, 8);
  co_return version_ == v;
}

sim::Task<> SeqLock::begin_write(sim::ProcId p) {
  if ((version_ & 1) != 0) {
    throw std::logic_error(
        "SeqLock::begin_write: a write is open; guard writers with a SpinLock");
  }
  ++version_;
  co_await mem_->write(p, addr_, 8);
}

sim::Task<> SeqLock::end_write(sim::ProcId p) {
  if ((version_ & 1) == 0) {
    throw std::logic_error("SeqLock::end_write: no write is open");
  }
  ++version_;
  co_await mem_->write(p, addr_, 8);
  wake_all(waiters_);
}

}  // namespace cm::shmem
