// caam_passes.hpp — the Fig. 2 steps 2–3 as flow passes: the one CAAM
// mapping pipeline behind core::map_to_caam and the generate dispatcher.
//
//   uml.wellformed   §4.1 convention checks (gate)
//   core.comm        communication analysis over sequence diagrams
//   core.allocate    thread → processor allocation (§4.2.3 or deployment)
//   core.mapping     rule-based model-to-model transformation (step 2)
//   caam.lift        generic CAAM → typed simulink::Model
//   caam.channels    §4.2.1 channel inference (in place)
//   caam.delays      §4.2.2 temporal-barrier insertion (in place)
//   caam.validate    CAAM conformance gate
//
// Every run validates the CAAM and reports through a DiagnosticEngine;
// an exception escaping a pass becomes a map.internal diagnostic. The
// throwing core::map_to_caam is this run on an internal engine plus a
// throw.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "core/pipeline.hpp"
#include "flow/pass.hpp"
#include "uml/wellformed.hpp"

namespace uhcg::flow {

/// The source UML model, seeded by the caller. Non-owning: keep the model
/// alive for the lifetime of the store.
struct SourceModel {
    const uml::Model* model = nullptr;
};

/// The analyses of one model that every generation branch reads: its
/// communication model and the §4.2.3 task graph mined from it.
/// flow::generate builds them once, in flow.partition, and its units
/// share them read-only.
struct ModelAnalysis {
    core::CommModel comm;
    taskgraph::TaskGraph task_graph;
};

/// §4.1 well-formedness issues, kept for report assembly.
struct WellformedReport {
    std::vector<uml::Issue> issues;
};

template <>
struct ArtifactTraits<SourceModel> {
    static constexpr const char* name = "uml.model";
};
template <>
struct ArtifactTraits<WellformedReport> {
    static constexpr const char* name = "uml.issues";
};
template <>
struct ArtifactTraits<core::CommModel> {
    static constexpr const char* name = "core.comm";
};
template <>
struct ArtifactTraits<core::Allocation> {
    static constexpr const char* name = "core.allocation";
};
template <>
struct ArtifactTraits<core::MappingOutput> {
    static constexpr const char* name = "core.caam-generic";
};
template <>
struct ArtifactTraits<simulink::Model> {
    static constexpr const char* name = "simulink.caam";
};
template <>
struct ArtifactTraits<core::ChannelReport> {
    static constexpr const char* name = "caam.channel-report";
};
template <>
struct ArtifactTraits<core::DelayReport> {
    static constexpr const char* name = "caam.delay-report";
};

/// Runs the steps 2–3 pipeline for `model` on `pm`: registers the mapping
/// passes, then whatever `extend` adds (compute_shared_caam's
/// schedulability probe and cost estimate), and runs them against a fresh
/// store, tracing under `group`. With `analysis`, core.comm publishes its
/// communication model and automatic allocation clusters its task graph
/// instead of recomputing them. With `scratch`, the passes run against
/// that store, so the intermediate artifacts (the generic CAAM above all)
/// outlive the call and the caller decides when to pay for freeing them.
/// `report` receives the run's artifacts and its slice of `engine`.
/// Returns the CAAM when every pass succeeded, nullopt otherwise
/// (`engine` says why).
std::optional<simulink::Model> run_caam_pipeline(
    PassManager& pm, const uml::Model& model,
    const core::MapperOptions& options, diag::DiagnosticEngine& engine,
    core::MapperReport& report, FlowTrace* trace = nullptr,
    const std::string& group = {},
    const std::function<void(PassManager&)>& extend = {},
    const ModelAnalysis* analysis = nullptr, ArtifactStore* scratch = nullptr);

/// Registers "core.dump-ecore" on a pipeline `pm` (pass it as `extend`):
/// right after core.mapping, before any later pass can fail, it writes
/// the raw step-2 result, the generic CAAM, to `path` in E-core form and
/// sets `*written`.
void add_ecore_dump(PassManager& pm, std::string path, bool* written);

}  // namespace uhcg::flow
