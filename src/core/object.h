// Global object name space: every shared object has a global id and a home
// processor. On a real message-passing machine this mapping is the software
// global-object table whose translation cost Table 5 measures (and which the
// J-Machine provides in hardware); here it is the simulator's ground truth
// for where each object currently lives. How a processor *discovers* that
// location is a separate question: by default the runtime consults this
// table directly (an omniscient oracle, free of charge), and the `src/loc`
// subsystem replaces that oracle with directory shards, translation caches
// and forwarding chains that pay for every lookup.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.h"

namespace cm::core {

using ObjectId = std::uint32_t;

class ObjectSpace {
 public:
  /// Observer invoked on every `create`, so a location service can register
  /// directory entries for objects allocated after it was installed (e.g.
  /// B-tree nodes born in splits).
  using CreateHook = std::function<void(ObjectId, sim::ProcId)>;

  /// Register a new object homed on `home`; returns its global id.
  ObjectId create(sim::ProcId home) {
    homes_.push_back(home);
    const auto id = static_cast<ObjectId>(homes_.size() - 1);
    if (create_hook_) create_hook_(id, home);
    return id;
  }

  /// Throws std::out_of_range for an id `create` never returned (as does
  /// `move`).
  [[nodiscard]] sim::ProcId home_of(ObjectId id) const {
    check(id, "home_of");
    return homes_[id];
  }

  /// Rebind an object's home (object migration / Emerald-style mobility).
  void move(ObjectId id, sim::ProcId new_home) {
    check(id, "move");
    homes_[id] = new_home;
  }

  [[nodiscard]] std::size_t size() const noexcept { return homes_.size(); }

  void set_create_hook(CreateHook hook) { create_hook_ = std::move(hook); }

 private:
  /// An out-of-range ObjectId is always a caller bug (a stale or corrupted
  /// global id); a typed error beats the silent out-of-bounds read a bare
  /// assert would permit in Release builds. The throw is out of line, so
  /// that `home_of` inlines into every hop and call.
  void check(ObjectId id, const char* what) const {
    if (id >= homes_.size()) [[unlikely]] throw_unknown(id, what);
  }
  [[noreturn, gnu::cold, gnu::noinline]] void throw_unknown(
      ObjectId id, const char* what) const {
    throw std::out_of_range("ObjectSpace::" + std::string(what) +
                            ": object id " + std::to_string(id) +
                            " out of range (size " +
                            std::to_string(homes_.size()) + ")");
  }

  std::vector<sim::ProcId> homes_;
  CreateHook create_hook_;
};

}  // namespace cm::core
