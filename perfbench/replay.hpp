// replay.hpp — the flow's layer calls, one by one, on one model.
//
// flow::generate runs each layer inside its pass manager, fault guard and
// thread pool. The replay calls the same public functions in the same
// order on the same model (parse, partition, the Fig. 2 CAAM prep, the
// emitters, FSM and KPN), timing each call from outside, so the per-layer
// numbers need no instrumentation inside the library.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "bench.hpp"

namespace perfbench {

struct Replay {
    /// Wall time per layer metric ("caam.delays.ms", ...).
    std::map<std::string, double> ms;
    /// Exact work counts per layer metric ("caam.delays.inserted", ...).
    std::map<std::string, double> counts;
    /// The replayed .mdl text, to compare with what the flow wrote.
    std::string mdl;
    /// Channel blocks created by caam.channels.
    std::size_t channels = 0;
};

/// Replays the flow's layer calls on the model serialized in `xmi`. Checks
/// the CAAM invariants (caam_checks.hpp) on the result; violations fail an
/// op of `out`, labelled with `label`.
Replay replay(const std::string& xmi, const std::string& label, Outcome& out);

}  // namespace perfbench
