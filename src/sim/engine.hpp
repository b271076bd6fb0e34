// engine.hpp — fixed-step discrete-time execution of a simulink::Model.
//
// This is the stand-in for MathWorks Simulink's solver: it makes the
// generated CAAM *executable*, which is what lets the test-suite and the
// crane experiment demonstrate §4.2.2 — a cyclic dataflow model without
// temporal barriers cannot be scheduled (DeadlockError names the cycle),
// while the same model after insert_temporal_barriers runs.
//
// Semantics:
//  * the hierarchy is flattened: subsystem boundaries are resolved through
//    their Inport/Outport marker blocks, so only functional blocks are
//    scheduled;
//  * each step evaluates blocks in a static topological order of the
//    combinational dependency graph; UnitDelay blocks publish their state
//    *before* the sweep and latch their input *after* it — they are the
//    temporal barriers;
//  * communication channels are pass-through within a step (a FIFO write
//    and read in the same iteration), matching the SWFIFO/GFIFO blocks of
//    the MPSoC flow — which is exactly why they do not break cycles;
//  * S-functions dispatch through a registry keyed by the block's
//    FunctionName parameter, with per-instance state (the C-coded
//    behaviours of §4.1, bound natively).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "diag/diag.hpp"
#include "simulink/model.hpp"

namespace uhcg::sim {

/// Behaviour of one S-function instance. `state` persists across steps
/// (sized by `state_size` at registration).
using SFunction = std::function<void(std::span<const double> inputs,
                                     std::span<double> outputs, double t,
                                     std::vector<double>& state)>;

/// Registry of S-function behaviours, keyed by FunctionName.
class SFunctionRegistry {
public:
    void register_function(std::string name, SFunction fn,
                           std::size_t state_size = 0);
    bool contains(const std::string& name) const;
    const SFunction& function(const std::string& name) const;
    std::size_t state_size(const std::string& name) const;

private:
    struct Entry {
        SFunction fn;
        std::size_t state_size;
    };
    std::map<std::string, Entry> entries_;
};

/// One combinational dependency between two blocks stuck on the cycle.
struct CycleEdge {
    std::string from;  // driver block full path
    std::string to;    // consumer block full path
};

/// Thrown when the model contains a combinational cycle: the scheduler
/// cannot order the blocks and a dataflow implementation would deadlock.
/// Carries both the stuck blocks and the dependency edges among them so a
/// driver can print the actual loop, not just its membership.
class DeadlockError : public std::runtime_error {
public:
    explicit DeadlockError(std::vector<std::string> cycle,
                           std::vector<CycleEdge> edges = {});
    /// Names of blocks on the unschedulable cycle.
    const std::vector<std::string>& cycle() const { return cycle_; }
    /// Combinational dependencies among the stuck blocks.
    const std::vector<CycleEdge>& edges() const { return edges_; }

private:
    std::vector<std::string> cycle_;
    std::vector<CycleEdge> edges_;
};

/// Reports a combinational cycle found in a generated CAAM as the
/// structured sim.deadlock error — the blocked blocks and each dependency
/// edge as notes. The one converter: the flow's sim.schedulability probe
/// and `uhcg map` both report through it.
void report_deadlock(const DeadlockError& error, diag::DiagnosticEngine& engine);

/// External input: value as a function of simulation time.
using InputSignal = std::function<double(double t)>;

/// Step budget for watchdogged execution; 0 = unlimited.
struct WatchdogBudget {
    /// Simulation steps allowed in one run() call.
    std::size_t max_steps = 0;
    /// Block evaluations allowed in one run() call (steps × blocks).
    std::size_t max_block_evals = 0;
};

struct SimResult {
    std::vector<double> time;
    /// Root Outport name → recorded values (one per step).
    std::map<std::string, std::vector<double>> outputs;
    /// Scope block full-path name → recorded values.
    std::map<std::string, std::vector<double>> scopes;
    std::size_t steps = 0;
    /// Total values pushed through CommChannel blocks, by protocol.
    std::map<std::string, std::size_t> channel_traffic;
    /// Set by the watchdogged run(): the budget cut the run short.
    bool budget_exhausted = false;
};

class Simulator {
public:
    /// Builds the schedule; throws DeadlockError on combinational cycles
    /// and std::runtime_error on unresolvable structure (undriven inputs,
    /// unregistered S-functions).
    Simulator(const simulink::Model& model, const SFunctionRegistry& registry);

    /// Binds the root Inport block named `name` (its Var parameter or block
    /// name) to a signal. Unbound inputs read 0.0.
    void set_input(const std::string& name, InputSignal signal);

    /// Runs `steps` fixed-size steps (model.fixed_step each).
    SimResult run(std::size_t steps);
    /// Runs until model.stop_time.
    SimResult run();

    /// Watchdogged run: executes at most the budgeted steps/evaluations.
    /// When the budget trips, the partial result is returned with
    /// `budget_exhausted` set and a sim.watchdog diagnostic reported.
    SimResult run(std::size_t steps, diag::DiagnosticEngine& engine,
                  const WatchdogBudget& budget = {});

    /// Static schedule (block full paths, evaluation order) — for tests.
    std::vector<std::string> schedule() const;

private:
    struct Net;  // internal flattened representation
    std::shared_ptr<Net> net_;
    std::map<std::string, InputSignal> inputs_;
};

}  // namespace uhcg::sim
