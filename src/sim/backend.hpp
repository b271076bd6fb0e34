// backend.hpp — pluggable pricing backends behind one simulation contract.
//
// Virtuoso's pitch — "built on Sniper but can be plugged into multiple
// simulators" — applied to our cost layer: every consumer of the MPSoC
// cost model (the DSE sweep, the flow's advisory estimate pass, the CLI,
// the serve daemon) prices candidates through a named `Backend` instead of
// calling the dynamic-FIFO engine directly. Two builtins:
//
//   dynamic-fifo   the event-driven engine of sim/mpsoc + sim/batch — the
//                  one exact evaluator;
//   analytic       closed-form critical-path/contention bound, no event
//                  loop: max(dependency-path bound, per-CPU work bound,
//                  shared-bus occupancy bound). Orders of magnitude cheaper
//                  and deliberately *inexact* (a lower bound, for triage
//                  sweeps) — never cross-verified bitwise.
//
// Split mirrors sim/batch: `Backend::compile` is the per-(graph, params)
// precomputation, shared read-only across workers; `CompiledModel::
// evaluator` mints the per-worker mutable evaluator. The registry mirrors
// flow::StrategyRegistry (name-keyed, registration order).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "diag/diag.hpp"
#include "sim/batch.hpp"
#include "sim/mpsoc.hpp"
#include "taskgraph/clustering.hpp"
#include "taskgraph/graph.hpp"

namespace uhcg::sim {

/// The default backend — the engine `simulate_mpsoc` has always used.
inline constexpr std::string_view kDefaultBackend = "dynamic-fifo";

/// Per-worker pricing state. Not thread-safe; mint one per worker/chunk
/// (CompiledModel::evaluator) and feed it candidates in locality order.
class BackendEvaluator {
public:
    virtual ~BackendEvaluator() = default;
    /// Prices one clustering of the compiled graph.
    virtual MpsocResult evaluate(const taskgraph::Clustering& clustering) = 0;
    /// Forgets incremental state from the previous candidate, if any.
    virtual void break_chain() {}
    /// Reuse accounting (all-zero for backends without reuse layers).
    virtual BatchStats stats() const { return {}; }
};

/// Immutable per-(graph, params) compilation, shared read-only by every
/// worker of a sweep — the backend-generic face of sim::MpsocPrep.
class CompiledModel {
public:
    virtual ~CompiledModel() = default;
    virtual std::unique_ptr<BackendEvaluator> evaluator() const = 0;
};

class Backend {
public:
    virtual ~Backend() = default;
    virtual std::string_view name() const = 0;
    /// One-line description for --help and the docs.
    virtual std::string_view description() const = 0;
    /// Compiles `graph` under `params`. A cyclic graph throws
    /// std::logic_error — the contract simulate_mpsoc had.
    virtual std::unique_ptr<CompiledModel> compile(
        const taskgraph::TaskGraph& graph, const MpsocParams& params) const = 0;
};

/// Name-keyed backend registry; iteration order is registration order.
class BackendRegistry {
public:
    BackendRegistry& add(std::unique_ptr<Backend> backend);
    const Backend* find(std::string_view name) const;
    const std::vector<std::unique_ptr<Backend>>& backends() const {
        return backends_;
    }
    /// The process-wide registry of builtins, registration order:
    /// dynamic-fifo, analytic.
    static const BackendRegistry& builtins();

private:
    std::vector<std::unique_ptr<Backend>> backends_;
};

/// Builtin lookup: empty name resolves to kDefaultBackend; an unknown
/// name throws std::invalid_argument carrying unknown_backend_message.
const Backend& backend_or_throw(std::string_view name);
/// "unknown simulation backend '<name>' (known: <registered names>)" —
/// the one wording every front end (CLI, serve, campaign) reports.
std::string unknown_backend_message(std::string_view name);
/// Builtin lookup without the throw; nullptr for unknown (empty name
/// still resolves to the default).
const Backend* find_backend(std::string_view name);

/// One-shot convenience mirroring simulate_mpsoc: compile + price one
/// clustering on the named builtin backend. No builtin reports
/// diagnostics; `engine` stays in the signature so existing callers keep
/// compiling.
MpsocResult simulate_backend(const taskgraph::TaskGraph& graph,
                             const taskgraph::Clustering& clustering,
                             const MpsocParams& params,
                             std::string_view backend,
                             diag::DiagnosticEngine* engine = nullptr);

}  // namespace uhcg::sim
