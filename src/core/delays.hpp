// delays.hpp — §4.2.2 "Insertion of temporal barriers".
//
// "When describing a dataflow model, cyclic paths need to be found and
// temporal barriers are required to avoid deadlocks. ... Our tool
// automatically detects the cyclic paths and inserts a Simulink UnitDelay
// block in the data link where the loop is detected."
//
// Detection is port-accurate: a SubSystem contributes an in→out dependency
// only when a combinational path actually exists through its contents
// (computed recursively), so parallel paths through a subsystem do not
// produce false cycles. UnitDelay blocks (including previously inserted
// ones) and nothing else break combinational paths; communication channels
// are pass-through within a step, which is exactly why an undelayed cycle
// deadlocks the execution engine (uhcg::sim) — the property the crane
// experiment demonstrates.
#pragma once

#include <string>
#include <vector>

#include "simulink/model.hpp"

namespace uhcg::core {

struct DelayReport {
    std::size_t inserted = 0;
    /// "system-name: src-block.port -> dst-block.port" per inserted delay.
    std::vector<std::string> locations;
};

/// Breaks every combinational cycle in the model by inserting UnitDelay
/// blocks; idempotent (a second call inserts nothing).
DelayReport insert_temporal_barriers(simulink::Model& model);

/// True when the model still contains a combinational cycle somewhere.
bool has_combinational_cycle(const simulink::Model& model);

/// In→out combinational reachability through a SubSystem block: row i
/// (1-based input port; row 0 is empty) lists, ascending, the output ports
/// that input i reaches within one step. This is the dependency a
/// subsystem contributes to cycle detection in its parent.
using SubsystemReach = std::vector<std::vector<int>>;
SubsystemReach combinational_reach(const simulink::Block& subsystem);

}  // namespace uhcg::core
