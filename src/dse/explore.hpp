// explore.hpp — design-space exploration over partitioning/mapping.
//
// §6 (future work): "we plan to integrate an estimation step in the
// proposed development flow to automatically determine the best
// partitioning and mapping solution ... while supporting design space
// exploration." This module implements that step on top of the existing
// analyses: candidate mappings are generated by sweeping allocation
// strategies and processor budgets, *estimated* on the MPSoC cost
// simulator (the §4.2.3 cost model), and ranked; the Pareto front over
// (processor count, makespan) is exposed, and the chosen candidate feeds
// straight back into the Fig. 2 mapping as a ready-made Allocation.
//
// Scaling (the ROADMAP north-star): the sweep is embarrassingly parallel,
// so `explore` fans candidate evaluation out on `core::parallel_for_chunked`
// (`ExploreOptions::jobs`/`chunk_size`) — each chunk owns a
// `sim::MpsocBatch` that resumes the timed scan from the schedule prefix
// shared with the previous locality-ordered candidate it evaluated —
// deduplicates identical clusterings through a canonical fingerprint
// *before* paying for simulation, and memoizes results in a process-wide
// thread-safe cache keyed by (graph, clustering fingerprint, cost-model
// params). Results — candidate order, metrics, Pareto front,
// recommendation — are byte-identical for any job count and any chunk
// size (`verify_full` asserts this against from-scratch re-simulation).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/allocation.hpp"
#include "core/comm.hpp"
#include "diag/diag.hpp"
#include "sim/mpsoc.hpp"
#include "taskgraph/clustering.hpp"
#include "uml/model.hpp"

namespace uhcg::dse {

/// One evaluated mapping candidate.
struct Candidate {
    std::string strategy;             ///< "linear", "dsc", "load-balance", ...
    std::size_t processors = 0;
    taskgraph::Clustering clustering{0};
    /// Canonical clustering identity (see clustering_fingerprint) — equal
    /// fingerprints mean the candidates describe the same mapping.
    std::uint64_t fingerprint = 0;
    // Estimates from the MPSoC cost model:
    double makespan = 0.0;
    double inter_traffic = 0.0;
    double bus_busy = 0.0;
    double cpu_utilization = 0.0;  ///< mean busy/makespan across CPUs
    bool pareto = false;           ///< on the (processors, makespan) front
};

struct ExploreOptions {
    /// Largest processor budget tried; 0 = up to the thread count.
    std::size_t max_processors = 0;
    /// Random-mapping samples per budget (adds diversity beyond the
    /// constructive heuristics).
    std::size_t random_samples = 3;
    /// Worker threads evaluating candidates: 0 = hardware concurrency,
    /// 1 = serial. The result is identical for every value.
    std::size_t jobs = 0;
    /// Candidates per pool task in the simulate sweep; 0 =
    /// core::kDefaultChunkSize. The chunk decomposition never depends on
    /// `jobs`, so reuse statistics are identical for any job count; the
    /// *results* are identical for any chunk size too.
    std::size_t chunk_size = 0;
    /// Debug: after the incremental sweep, re-simulate every unique
    /// clustering from scratch and throw std::logic_error on any metric
    /// divergence (the --dse-verify-full mode).
    bool verify_full = false;
    /// Simulation backend pricing the sweep (sim/backend.hpp); empty =
    /// dynamic-fifo. Unknown names throw std::invalid_argument.
    std::string backend;
    sim::MpsocParams cost_model;
};

/// Where each candidate's metrics came from — accounting for the dedup
/// and memoization layers. candidates == simulations + cache_hits +
/// duplicates_skipped always holds.
struct ExploreStats {
    std::size_t candidates = 0;
    std::size_t unique_clusterings = 0;  ///< distinct fingerprints this run
    std::size_t duplicates_skipped = 0;  ///< repeats of an earlier fingerprint
    std::size_t cache_hits = 0;          ///< served by the cross-run cache
    std::size_t simulations = 0;         ///< cost evaluations actually executed
    std::size_t jobs = 1;                ///< workers used for the fan-out
    // Incremental-evaluation accounting (see sim::MpsocBatch). Both
    // depend only on the candidate set and chunk size — never on jobs or
    // the machine — so they are exact determinism counters.
    std::size_t prefix_tasks_reused = 0;  ///< schedule positions replayed
    std::size_t chunks = 0;               ///< pool tasks in the simulate sweep
    /// Always 0: the per-cluster partial cache it counted is gone. Kept
    /// only because the benchmark harness still reads it; the next change
    /// to the benchmark removes it.
    std::size_t partial_reuse = 0;
    std::size_t verified = 0;  ///< clusterings re-checked by verify_full
    std::string backend;       ///< backend that priced the sweep
};

struct ExploreResult {
    std::vector<Candidate> candidates;  ///< all evaluated, evaluation order
    /// Indices of candidates on the Pareto front, by processor count.
    std::vector<std::size_t> pareto_front;
    /// Index of the recommended candidate (min makespan; ties → fewer CPUs).
    std::size_t best = 0;
    ExploreStats stats;
};

/// Explores mappings for `model`. The task graph is mined once from the
/// sequence diagrams; every *unique* candidate is estimated on the cost
/// model (duplicates and cache hits are free — see ExploreStats). An
/// unknown `options.backend` throws std::invalid_argument listing the
/// known backends. Nothing is reported into `engine`; the parameter
/// stays for existing callers.
ExploreResult explore(const uml::Model& model, const core::CommModel& comm,
                      const ExploreOptions& options = {},
                      diag::DiagnosticEngine* engine = nullptr);

/// Canonical fingerprint of a clustering: 64-bit FNV-1a over the
/// assignment vector renumbered densely by first appearance, so any two
/// strategies producing the same partition collide intentionally.
std::uint64_t clustering_fingerprint(const taskgraph::Clustering& clustering);

/// Converts a candidate into the Allocation the mapper consumes
/// (processors named CPU0..CPUn-1, threads in model order). A candidate
/// that does not match the model reports `dse.mismatch` into `engine` and
/// yields nullopt.
std::optional<core::Allocation> to_allocation(const uml::Model& model,
                                              const Candidate& candidate,
                                              diag::DiagnosticEngine& engine);
/// Throwing convenience wrapper (std::invalid_argument on mismatch).
core::Allocation to_allocation(const uml::Model& model,
                               const Candidate& candidate);

/// Convenience: explore and return the recommended allocation directly.
/// A model with nothing to explore reports `dse.empty` and yields nullopt.
std::optional<core::Allocation> best_allocation(const uml::Model& model,
                                                const core::CommModel& comm,
                                                diag::DiagnosticEngine& engine,
                                                const ExploreOptions& options = {});
/// Throwing convenience wrapper (std::runtime_error on an empty model).
core::Allocation best_allocation(const uml::Model& model,
                                 const core::CommModel& comm,
                                 const ExploreOptions& options = {});

/// Renders the result as the table the bench/example print.
std::string format(const ExploreResult& result);

/// Observability / test hooks for the process-wide simulation memo cache.
struct SimCacheStats {
    std::size_t entries = 0;
    std::size_t lookups = 0;
    std::size_t hits = 0;
};
SimCacheStats simulation_cache_stats();
void clear_simulation_cache();

/// Evicts least-recently-used memo entries until at most `max_entries`
/// remain, returning how many were dropped (also counted under
/// `dse.cache_trimmed`). Lets a long-lived host — the serve daemon — keep
/// the process-wide memo bounded without clearing warm entries.
std::size_t trim_simulation_cache(std::size_t max_entries);

}  // namespace uhcg::dse
