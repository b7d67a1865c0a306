// Remote-access mechanism selection — "programmers (or compilers) should be
// able to choose the option that is best for a specific application on a
// specific architecture" (§1). A Scheme bundles a mechanism with the
// hardware-support and replication options the paper's tables enumerate.
#pragma once

#include <string>

#include "core/cost_model.h"

namespace cm::core {

enum class Mechanism {
  kRpc,           // remote procedure call (§2.1)
  kMigration,     // computation migration (§2.4) — "CP" in the tables
  kSharedMemory,  // cache-coherent shared memory / data migration (§2.2)
  kObjectMigration,  // Emerald-style object mobility [JLHB88] — the
                     // comparison §4 wished for ("our group has not
                     // finished implementing object migration in Prelude")
  kThreadMigration,  // whole-thread migration (§2.3): like computation
                     // migration but every hop ships the entire thread
                     // state, not just the top activation's live variables
};

[[nodiscard]] constexpr const char* mechanism_name(Mechanism m) {
  switch (m) {
    case Mechanism::kRpc: return "RPC";
    case Mechanism::kMigration: return "CP";
    case Mechanism::kSharedMemory: return "SM";
    case Mechanism::kObjectMigration: return "OBJ";
    case Mechanism::kThreadMigration: return "TM";
  }
  return "?";
}

/// True for the mechanisms that bring an activation and its data together
/// before each access (core::visit): the activation moves to the object
/// (CP, TM) or the object moves to the activation (OBJ). RPC runs the
/// method at the object's home, and shared memory caches the data.
[[nodiscard]] constexpr bool moves_to_data(Mechanism m) {
  return m == Mechanism::kMigration || m == Mechanism::kThreadMigration ||
         m == Mechanism::kObjectMigration;
}

struct Scheme {
  Mechanism mechanism = Mechanism::kRpc;
  bool hw_support = false;   // register-mapped NI + hardware OID translation
  bool replication = false;  // software replication of the hot object (root)
  bool hw_oid_only = false;  // J-Machine GOID translation alone, without the
                             // register-mapped NI — isolates the translation
                             // axis for the location-subsystem ablation

  [[nodiscard]] CostModel cost_model() const {
    CostModel m = CostModel::software();
    if (hw_support) m = m.with_hw_message().with_hw_oid();
    if (hw_oid_only) m = m.with_hw_oid();
    return m;
  }

  /// Table-style label, e.g. "CP w/repl. & HW".
  [[nodiscard]] std::string name() const {
    std::string s = mechanism_name(mechanism);
    if (replication && hw_support) {
      s += " w/repl. & HW";
    } else if (replication) {
      s += " w/repl.";
    } else if (hw_support) {
      s += " w/HW";
    }
    if (hw_oid_only && !hw_support) s += " w/hwOID";
    return s;
  }
};

}  // namespace cm::core
