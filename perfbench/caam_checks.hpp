// caam_checks.hpp — invariants of a generated CAAM, checked without the
// pass code that produced it.
#pragma once

#include <cstddef>
#include <string>

#include "core/allocation.hpp"
#include "core/comm.hpp"
#include "simulink/model.hpp"
#include "uml/model.hpp"

namespace perfbench {

/// Checks the paper's guarantees on a final CAAM:
///  * the execution engine schedules it (no combinational cycle remains);
///  * it holds exactly one channel block per deduplicated (producer,
///    consumer, variable) link of `comm`;
///  * a channel is SWFIFO inside a CPU-SS exactly when both threads share a
///    processor of `allocation`, and GFIFO at the root otherwise.
/// Returns "" when every invariant holds, else the first violation.
/// `schedule_blocks` receives the engine's schedule length.
std::string check_caam(const uhcg::simulink::Model& caam,
                       const uhcg::uml::Model& model,
                       const uhcg::core::CommModel& comm,
                       const uhcg::core::Allocation& allocation,
                       std::size_t* schedule_blocks = nullptr);

/// Schedule length of `caam` on the execution engine, with a no-op body
/// bound to every S-function. Throws sim::DeadlockError on a
/// combinational cycle.
std::size_t schedule_length(const uhcg::simulink::Model& caam);

}  // namespace perfbench
