// generate.hpp — the one-shot heterogeneous driver: Fig. 1 end to end.
//
// One call partitions a mixed UML model, runs every row of the branch
// table (flow/strategy.hpp) that serves each subsystem and is switched on
// (thread subsystem → simulink-caam, caam-c, caam-dot, cpp-threads and the
// optional kpn; each state machine → fsm-c) and collects every generated
// file. Each stage — the partitioner included — runs as a pass, so a
// single FlowTrace covers the whole run with per-stage wall time, counters
// and diagnostics.
//
// Resilience layer: every (strategy × subsystem) unit runs inside a fault
// guard. A failure — thrown exception, fatal diagnostic, exhausted
// retries — quarantines only that unit; every other subsystem still
// generates. The run's outcome is three-valued (Ok / Partial / Failed),
// quarantined units land in a machine-readable failure manifest (schema
// `uhcg-flow-manifest-v1`), and completed units can be checkpointed so a
// later `--resume` run replays them byte-identically instead of
// re-running.
#pragma once

#include "flow/strategy.hpp"

namespace uhcg::flow {

/// Retry, budget, and checkpoint/resume configuration for one run.
struct ResilienceOptions {
    /// Applied to every strategy's internal pass manager.
    RetryPolicy retry;
    PassBudget pass_budget;
    /// KPN dry-run firing budget; 0 = the legacy derived formula.
    std::size_t kpn_firings = 0;
    /// Watchdogged smoke-simulation steps in the schedulability probe;
    /// 0 keeps the probe build-only.
    std::size_t sim_steps = 0;
    /// Checkpoint directory; empty disables checkpointing.
    std::string checkpoint_dir;
    /// Replay matching checkpoints instead of re-running unchanged units.
    bool resume = false;
    /// The serialized source model, hashed into every checkpoint key so a
    /// model edit invalidates stale checkpoints. Checkpointing needs it:
    /// empty disables the store even when checkpoint_dir is set.
    std::string model_bytes;
};

struct GenerateOptions {
    core::MapperOptions mapper;
    /// Loop bound for the fallback threads generator.
    std::size_t iterations = 100;
    /// Also emit the §3 KPN retargeting summary for thread subsystems.
    bool with_kpn = false;
    /// Also emit the per-CPU C program from the shared CAAM (caam-c).
    bool caam_c = true;
    /// Also emit the Graphviz block diagram from the shared CAAM (caam-dot).
    bool caam_dot = true;
    /// Worker threads for the (strategy × subsystem) dispatch; 1 = serial
    /// (the legacy behaviour), 0 = one per hardware thread. Output trees,
    /// manifests and diagnostics are byte-identical for every value — the
    /// unit order is fixed up front and per-unit results are folded back
    /// in that canonical order. Deliberately NOT part of the checkpoint
    /// fingerprint: a serial run may resume a parallel one and vice versa.
    std::size_t gen_jobs = 1;
    /// Simulation backend for the advisory sim.estimate pass; empty =
    /// sim::kDefaultBackend.
    std::string sim_backend;
    ResilienceOptions resilience;
};

/// Three-valued run outcome (satellite of the quarantine design): Ok maps
/// to exit 0, Partial to the dedicated partial-success exit code, Failed
/// to the diagnostics exit code.
enum class GenerateStatus { Ok, Partial, Failed };

std::string_view to_string(GenerateStatus status);

/// One quarantined (strategy × subsystem) unit, for the failure manifest.
struct QuarantineRecord {
    std::string strategy;
    std::string subsystem;
    /// First error message of the failing unit — the human-readable why.
    std::string reason;
    /// Stable dotted codes of the unit's Error+ diagnostics, deduplicated
    /// in report order.
    std::vector<std::string> error_codes;
};

struct GenerateResult {
    PartitionReport partitions;
    std::vector<StrategyResult> results;
    std::vector<QuarantineRecord> quarantined;
    GenerateStatus status = GenerateStatus::Ok;
};

/// Partitions `model`, dispatches each subsystem to its strategies and
/// collects the generated files. Diagnostics land in `engine`; `trace`
/// (optional) receives every pass entry, partition and output record.
GenerateResult generate(const uml::Model& model, const GenerateOptions& options,
                        diag::DiagnosticEngine& engine,
                        FlowTrace* trace = nullptr);

/// Renders the failure manifest, schema `uhcg-flow-manifest-v1`:
/// { "schema": "uhcg-flow-manifest-v1", "status": "ok|partial|failed",
///   "strategies": [{"strategy","subsystem","ok","cached",
///                   "files":[{"name","bytes"}]}],
///   "quarantined": [{"strategy","subsystem","reason",
///                    "error_codes":[...]}] }
std::string to_manifest_json(const GenerateResult& result);

}  // namespace uhcg::flow
