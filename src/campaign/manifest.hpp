// manifest.hpp — campaign manifest parsing and deterministic expansion.
//
// A campaign manifest (schema `uhcg-campaign-v1`) names the sweep matrix:
// UML models × job strategies × cost-model parameter sets × simulation
// backends (PR 8's registry). `load_manifest` parses + validates it with
// structured `campaign.manifest` diagnostics; `expand` resolves the model
// list (files and directories of .xmi), reads every model's bytes once and
// produces the job list in one canonical order — model-major, then
// strategy, then cost model, then backend — so job identity is stable
// across runs, machines and job counts.
//
// Every job carries a content-hashed id: FNV-1a over (model bytes, model
// stem, strategy, backend, cost-model name + parameter fingerprint,
// campaign options fingerprint). Any input change — a model edit, a
// different cost model, a new backend — changes the id, which is exactly
// what makes the checkpoint journal safe to replay: a journal entry keys
// on the job id, so stale entries simply never match. Exact duplicates in
// the matrix collapse to one job.
//
//   {
//     "schema": "uhcg-campaign-v1",
//     "models": ["corpus", "models/crane.xmi"],
//     "strategies": ["generate", "explore"],
//     "backends": ["dynamic-fifo", "analytic"],
//     "cost_models": [{"name": "default"},
//                     {"name": "slow-bus", "gfifo_cost_per_byte": 40}],
//     "explore": {"max_processors": 4, "random_samples": 3},
//     "generate": {"with_kpn": false, "iterations": 100}
//   }
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "diag/diag.hpp"
#include "sim/mpsoc.hpp"

namespace uhcg::campaign {

/// One named cost-model parameter set (overrides on sim::MpsocParams).
struct CostModel {
    std::string name = "default";
    sim::MpsocParams params;
};

/// Parsed manifest — the sweep matrix plus per-strategy knobs.
struct Manifest {
    /// Model files and/or directories, as written in the manifest.
    std::vector<std::string> models;
    /// Job strategies: "generate" (full heterogeneous codegen through the
    /// resilient flow) and/or "explore" (DSE sweep on the cost model).
    std::vector<std::string> strategies;
    /// Simulation backend names, validated against sim::BackendRegistry.
    std::vector<std::string> backends;
    std::vector<CostModel> cost_models;
    // explore knobs
    std::size_t max_processors = 0;
    std::size_t random_samples = 3;
    // generate knobs
    bool with_kpn = false;
    std::size_t iterations = 100;
};

/// One expanded job. Model bytes are shared across the jobs of one model.
struct JobSpec {
    /// Content-hashed identity, 16 hex digits — the journal key.
    std::string id;
    /// Deterministic, human-readable job directory name (relative to the
    /// campaign output directory): <model-stem>__<strategy>__<backend>__
    /// <cost-model>__<id prefix>.
    std::string dir;
    std::string model_path;  ///< as resolved (for the campaign manifest)
    std::string model_name;  ///< sanitized stem
    std::string strategy;    ///< "generate" | "explore"
    std::string backend;
    CostModel cost_model;
    std::shared_ptr<const std::string> model_bytes;
    const Manifest* manifest = nullptr;  ///< owning manifest (knobs)
};

/// Parses a manifest document. Malformed JSON, a wrong schema, unknown
/// strategies/backends/fields report `campaign.manifest` errors into
/// `engine`; on any error the return is unusable (check
/// engine.has_errors()).
Manifest parse_manifest(const std::string& text,
                        diag::DiagnosticEngine& engine,
                        const std::string& origin = "<manifest>");

/// Reads and parses a manifest file (unreadable file = structured error).
Manifest load_manifest(const std::string& path,
                       diag::DiagnosticEngine& engine);

/// Expands the matrix into jobs in canonical order. Model directory
/// entries are scanned (non-recursively) for `*.xmi`, sorted by name;
/// unreadable models report `campaign.manifest` errors. Returns the jobs
/// of every readable model — callers decide whether a partial expansion
/// is acceptable.
std::vector<JobSpec> expand(const Manifest& manifest,
                            diag::DiagnosticEngine& engine);

/// FNV-1a fingerprint of a cost model's parameters (not its name — two
/// names for the same parameters intentionally collide).
std::uint64_t cost_model_fingerprint(const sim::MpsocParams& params);

}  // namespace uhcg::campaign
