// strategy.hpp — Fig. 1's generation branches as one fixed table.
//
// Each row is a branch the dispatcher (flow/generate.cpp) routes subsystem
// partitions to:
//
//   simulink-caam   dataflow branch: steps 2–4, UML → CAAM → .mdl
//   caam-c          dataflow branch: the same CAAM → per-CPU C program
//   caam-dot        dataflow branch: the same CAAM → Graphviz diagram
//   fsm-c           control branch: UML state machine → flat FSM → C
//   cpp-threads     fallback branch: UML → multithreaded C++ ("in case a
//                   Simulink compiler is not available")
//   kpn             §3 retargeting: UML → Kahn process network summary
//
// A row states which subsystems it serves, whether it reads the shared
// CAAM, which option switches it on, its passes and how its files are
// named; run_strategy() is the one body that runs any row. The three
// caam-family rows share one SharedCaam mapping artifact — the paper's
// amortize-one-analysis-across-many-back-ends shape — which
// compute_shared_caam() builds once per dataflow subsystem; each of them
// then runs only its model-to-text pass. Every row runs its passes
// through a PassManager, so each lands in the shared FlowTrace with
// per-stage wall time, counters and diagnostics.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "flow/caam_passes.hpp"
#include "flow/partition.hpp"
#include "flow/pass.hpp"
#include "simulink/model.hpp"

namespace uhcg::flow {

struct GenerateOptions;

/// The per-subsystem CAAM mapping result (steps 2–3 plus the
/// schedulability probe and cost estimate), computed once and consumed
/// read-only by every caam-family row. Immutable after
/// compute_shared_caam() returns, so concurrent emitter units may share
/// one instance without synchronization. `ok == false` means the mapping
/// pipeline failed; the dispatcher quarantines every dependent emitter
/// with the prep's diagnostics instead of running them.
struct SharedCaam {
    bool ok = false;
    simulink::Model caam{""};
    core::MapperReport mapper_report;
};

/// What a branch is asked to generate.
struct StrategyContext {
    const uml::Model* model = nullptr;
    const Subsystem* subsystem = nullptr;
    core::MapperOptions mapper;
    /// Loop bound for the fallback threads / KPN dry-run style generators.
    std::size_t iterations = 100;
    /// Resilience layer: applied to every internal pass manager.
    RetryPolicy retry;
    PassBudget pass_budget;
    /// KPN dry-run firing budget (kpn.validate); 0 derives the legacy
    /// formula iterations × processes × 4 + 1000.
    std::size_t kpn_firings = 0;
    /// Watchdogged smoke-simulation steps after the schedulability probe
    /// (sim.schedulability); 0 keeps the probe build-only.
    std::size_t sim_steps = 0;
    /// Simulation backend for the advisory cost-estimate pass
    /// (sim.estimate); empty = sim::kDefaultBackend.
    std::string sim_backend;
    /// Shared mapping owned by the dispatcher: a required input of the
    /// caam-family rows, null for every other row.
    const SharedCaam* shared_caam = nullptr;
    /// The model's analyses, built once per generate by flow.partition
    /// and owned by the dispatcher: required by every row and by
    /// compute_shared_caam().
    const ModelAnalysis* analysis = nullptr;
};

/// Runs the steps 2–3 mapping pipeline (plus schedulability probe and
/// cost estimate) once for `context.subsystem`, tracing under group
/// "simulink-caam:<subsystem>" and bumping the process-wide
/// `flow.caam_shared_computed` counter. Diagnostics land in `engine`;
/// on failure the result has `ok == false` and the engine holds why. The
/// pipeline's intermediate artifacts are left in `scratch` (see
/// run_caam_pipeline); the result refers to none of them.
SharedCaam compute_shared_caam(const StrategyContext& context,
                               diag::DiagnosticEngine& engine,
                               FlowTrace* trace, ArtifactStore& scratch);

struct GeneratedFile {
    std::string name;
    std::string contents;
};

struct StrategyResult {
    std::string strategy;
    std::string subsystem;
    bool ok = true;
    /// Replayed from a checkpoint instead of regenerated (`--resume`).
    bool cached = false;
    std::vector<GeneratedFile> files;
    /// The shared mapping's report; populated by the caam-family rows only.
    core::MapperReport mapper_report;
};

/// One row of the branch table.
struct Branch {
    std::string_view name;
    /// Serves state-machine subsystems; every other row serves the thread
    /// subsystem.
    bool machine = false;
    /// Reads the subsystem's SharedCaam, so it runs after
    /// compute_shared_caam() and fails with it.
    bool reads_shared_caam = false;
    /// The GenerateOptions switch that turns the row on; null = always on.
    bool GenerateOptions::*enabled_by = nullptr;
    /// Registers the row's passes.
    void (*add_passes)(PassManager& pm, const StrategyContext& context) =
        nullptr;
    /// Takes the generated files out of the finished store; `base` is the
    /// model's sanitized name.
    std::vector<GeneratedFile> (*files)(ArtifactStore& store,
                                        const std::string& base) = nullptr;
};

/// The branch table in dispatch order: simulink-caam, caam-c, caam-dot,
/// fsm-c, cpp-threads, kpn.
std::span<const Branch> branches();

/// Runs `branch` on `context.subsystem`: seeds the store, applies the
/// retry/budget policy, runs the row's passes under group
/// "<name>:<subsystem>" and collects its files.
StrategyResult run_strategy(const Branch& branch,
                            const StrategyContext& context,
                            diag::DiagnosticEngine& engine, FlowTrace* trace);

}  // namespace uhcg::flow
