// backend.hpp — the two pricing backends of the MPSoC cost model.
//
// Every consumer of the cost model (the DSE sweep, the flow's advisory
// estimate pass, the CLI, the serve daemon, campaign manifests) names the
// backend that prices its candidates. The set is closed:
//
//   dynamic-fifo   the event-driven timed scan of sim/batch — the one
//                  exact evaluator;
//   analytic       closed-form critical-path/contention bound, no event
//                  loop: max(dependency-path bound, per-CPU work bound,
//                  shared-bus occupancy bound). Deliberately *inexact* (a
//                  lower bound, for triage sweeps) — never cross-verified
//                  bitwise.
//
// Both price from one shared MpsocPrep; `MpsocBatch(prep, kind)` is the
// per-worker evaluator of either kind.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "diag/diag.hpp"
#include "sim/mpsoc.hpp"
#include "taskgraph/clustering.hpp"
#include "taskgraph/graph.hpp"

namespace uhcg::sim {

/// The pricing backends, in the order their names are listed.
enum class Backend { DynamicFifo, Analytic };

/// The backend named `name`; an empty name is dynamic-fifo. nullopt for an
/// unknown name.
std::optional<Backend> find_backend(std::string_view name);
/// find_backend, throwing std::invalid_argument carrying
/// unknown_backend_message for an unknown name.
Backend backend_or_throw(std::string_view name);
/// "dynamic-fifo" or "analytic".
std::string_view backend_name(Backend kind);
/// "unknown simulation backend '<name>' (known: dynamic-fifo, analytic)" —
/// the one wording every front end (CLI, serve, campaign) reports.
std::string unknown_backend_message(std::string_view name);

/// One-shot convenience mirroring simulate_mpsoc: prices one clustering on
/// the named backend. A cyclic graph throws std::logic_error, an unknown
/// name std::invalid_argument. No backend reports diagnostics; `engine`
/// stays in the signature so existing callers keep compiling.
MpsocResult simulate_backend(const taskgraph::TaskGraph& graph,
                             const taskgraph::Clustering& clustering,
                             const MpsocParams& params,
                             std::string_view backend,
                             diag::DiagnosticEngine* engine = nullptr);

}  // namespace uhcg::sim
