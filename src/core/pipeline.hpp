// pipeline.hpp — the public entry point of the flow: Fig. 2, steps 2–4.
//
//   step 2  model-to-model transformation (core/mapping.hpp, rules on the
//           transform engine, producing a generic CAAM);
//   step 3  optimization: channel inference (§4.2.1), temporal-barrier
//           insertion (§4.2.2), with thread allocation (§4.2.3) having run
//           up front — it shapes the CPU-SS skeleton;
//   step 4  model-to-text: .mdl generation (simulink/mdl.hpp).
//
// Step 1 (building the UML model) is the designer's: the uml::ModelBuilder
// or an XMI file.
//
// Both entry points run the one pass pipeline in flow/caam_passes.hpp
// (library: uhcg_flow), so the individual steps are observable passes with
// per-stage metrics there. Step 4 is simulink::write_mdl on the result.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "diag/diag.hpp"
#include "core/allocation.hpp"
#include "core/comm.hpp"
#include "core/delays.hpp"
#include "core/mapping.hpp"
#include "core/optimize.hpp"
#include "simulink/model.hpp"
#include "uml/model.hpp"

namespace uhcg::core {

struct MapperOptions {
    /// §4.2.3: derive the allocation automatically by linear clustering
    /// instead of reading the deployment diagram ("the use of this
    /// algorithm makes the deployment diagram unnecessary").
    bool auto_allocate = false;
    /// Processor budget for auto allocation; 0 = let the algorithm decide.
    std::size_t max_processors = 0;
    /// §4.2.2: detect cyclic paths and insert UnitDelay barriers.
    bool insert_delays = true;
    /// Reject models whose uml::check finds errors (warnings always pass).
    bool enforce_wellformedness = true;
};

/// Everything the run produced besides the model itself.
/// `allocation` references objects of the *input* UML model; keep that
/// model alive for as long as the report's allocation is consulted.
struct MapperReport {
    transform::RunStats rule_stats;
    Allocation allocation;
    ChannelReport channels;
    DelayReport delays;
    /// Every diagnostic this run reported — the DiagnosticEngine slice for
    /// the pipeline invocation (also populated by the throwing variant,
    /// which collects through an internal engine). The single source of
    /// truth for warnings.
    std::vector<diag::Diagnostic> diagnostics;
    /// Legacy warning strings, derived from `diagnostics` (severity
    /// Warning only, rendered exactly as the pre-flow pipeline mirrored
    /// them: well-formedness warnings prefixed "uml: ").
    std::vector<std::string> warnings() const;
};

/// Runs steps 2–3 and returns the synthesizable CAAM. Every issue any
/// stage finds (§4.1 well-formedness, mapping-rule warnings, channel
/// inference, CAAM validation) is reported through `engine`; the run aborts
/// — returning nullopt — only when a stage failed: an Error with
/// options.enforce_wellformedness set, or an exception inside a stage
/// (reported as map.internal). It never throws on bad models, so a driver
/// can surface *all* problems from one pass.
std::optional<simulink::Model> map_to_caam(const uml::Model& model,
                                           const MapperOptions& options,
                                           diag::DiagnosticEngine& engine,
                                           MapperReport* report = nullptr);

/// The same run on an internal engine: returns the CAAM, or throws
/// std::runtime_error whose what() is the engine's rendered diagnostics
/// (each line names its code, e.g. [uml.E1] or [caam.invalid]).
simulink::Model map_to_caam(const uml::Model& model,
                            const MapperOptions& options = {},
                            MapperReport* report = nullptr);

}  // namespace uhcg::core
