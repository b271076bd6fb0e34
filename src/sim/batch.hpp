// batch.hpp — incremental, batch-oriented MPSoC cost evaluation.
//
// The DSE sweep estimates hundreds of clusterings of the *same* task
// graph under the *same* cost model; `simulate_mpsoc` re-derived the
// topological order and re-priced every edge from scratch for each one.
// This module factors the evaluation the way the sweep consumes it:
//
//  * `MpsocPrep` — the immutable per-(graph, params) precomputation
//    (topological order/positions, per-task compute cycles, per-edge
//    transfer prices), built once and shared read-only by every worker;
//  * `MpsocBatch` — a per-worker evaluator of one backend
//    (sim/backend.hpp). Both backends share the clustering-derived half of
//    a price (dense labels, per-CPU work, traffic and bus occupancy), so
//    they agree on cluster numbering and summation order. The dynamic-fifo
//    scan carries one reuse layer across consecutive candidates,
//    schedule-prefix resume: neighboring clusterings differ in a few task
//    assignments, and every scan quantity at a topological position
//    depends only on assignments at or before the first affected position
//    — so the timed scan resumes there instead of at zero.
//
// Prefix resume is exact: an incremental evaluation is bitwise identical
// to a fresh one (a resumed scan replays the same operations from
// identical state). `simulate_mpsoc` is the chain-free special case, which
// makes it the natural oracle for `dse` verify mode.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/backend.hpp"
#include "sim/mpsoc.hpp"
#include "taskgraph/clustering.hpp"
#include "taskgraph/graph.hpp"

namespace uhcg::sim {

/// Reuse accounting for one MpsocBatch (one chunk of a sweep).
struct BatchStats {
    std::size_t evaluated = 0;           ///< clusterings priced
    std::size_t prefix_tasks_reused = 0; ///< scan positions replayed from the
                                         ///< previous candidate's schedule
};

/// Immutable per-(graph, cost-model) precomputation. Throws
/// std::logic_error when the graph is cyclic (no topological order), the
/// same contract the per-candidate simulation had.
class MpsocPrep {
public:
    MpsocPrep(const taskgraph::TaskGraph& graph, const MpsocParams& params);

private:
    friend class MpsocBatch;
    const taskgraph::TaskGraph* graph_;
    MpsocParams params_;
    std::vector<taskgraph::TaskIndex> topo_;  ///< position → task
    std::vector<std::size_t> pos_;            ///< task → position
    std::vector<double> work_;                ///< weight × cycles_per_work
    std::vector<double> sw_delay_;            ///< per edge: cost × swfifo
    std::vector<double> bus_duration_;        ///< per edge: setup + cost × gfifo
};

/// Per-worker evaluator of one backend. Not thread-safe; create one per
/// chunk/worker and feed it candidates in locality order (neighbors
/// adjacent) to maximize reuse. Results do not depend on that order.
class MpsocBatch {
public:
    explicit MpsocBatch(const MpsocPrep& prep,
                        Backend kind = Backend::DynamicFifo);

    /// Prices one clustering (std::invalid_argument when its size does not
    /// match the graph). On dynamic-fifo, bitwise identical to a fresh
    /// `simulate_mpsoc` of the prep's graph and params for any history of
    /// prior calls; on analytic, the deterministic lower bound whose
    /// aggregates equal dynamic-fifo's.
    MpsocResult evaluate(const taskgraph::Clustering& clustering);

    /// Forgets the previous candidate: the next evaluate() runs a full
    /// scan.
    void break_chain() { has_prev_ = false; }

    /// Reuse accounting; all-zero on analytic, which has no reuse layer.
    const BatchStats& stats() const { return stats_; }

private:
    /// Labels `clustering` and returns a result with every aggregate
    /// filled in; makespan is left 0 for the backend's timing model.
    MpsocResult aggregate(const taskgraph::Clustering& clustering);
    MpsocResult analytic_bound(const taskgraph::Clustering& clustering);
    std::size_t resume_position() const;

    const MpsocPrep& prep_;
    Backend kind_;
    BatchStats stats_;

    // Per-candidate labels and per-cluster sums (aggregate()). Labels are
    // the clustering's dense ids (first-appearance order by task index);
    // the aggregates are summed member-ascending per cluster, then cluster
    // by cluster in canonical order — one deterministic FP order for fresh
    // and incremental evaluation, with no subtractions, so a clustering
    // without cut edges reports inter_traffic exactly 0.0.
    std::vector<int> canon_;  ///< task → canonical cluster id
    int clusters_ = 0;
    // Per cluster: Σ cost of member→member edges, Σ cost and bus duration
    // of member→outside edges, and how many cross the boundary.
    std::vector<double> internal_cost_;
    std::vector<double> cut_cost_;
    std::vector<double> cut_bus_;
    std::vector<std::size_t> cut_edges_;

    // Scratch, persistent across evaluate() calls (the delta chain).
    bool has_prev_ = false;
    std::vector<int> canon_prev_;       ///< previous canonical assignment
    std::vector<double> finish_;        ///< per task
    std::vector<double> edge_arrival_;  ///< per edge
    std::vector<double> bus_free_at_;   ///< per position, post-pricing
    std::vector<double> cpu_free_;      ///< per cluster, rebuilt on resume
};

}  // namespace uhcg::sim
