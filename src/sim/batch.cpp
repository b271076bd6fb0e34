#include "sim/batch.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"

namespace uhcg::sim {

using taskgraph::Clustering;
using taskgraph::Edge;
using taskgraph::TaskGraph;
using taskgraph::TaskIndex;

MpsocPrep::MpsocPrep(const TaskGraph& graph, const MpsocParams& params)
    : graph_(&graph), params_(params), topo_(graph.topological_order()) {
    const std::size_t n = graph.task_count();
    pos_.resize(n);
    for (std::size_t q = 0; q < n; ++q) pos_[topo_[q]] = q;
    work_.resize(n);
    for (TaskIndex t = 0; t < n; ++t)
        work_[t] = graph.weight(t) * params.cycles_per_work;
    const std::size_t m = graph.edge_count();
    sw_delay_.resize(m);
    bus_duration_.resize(m);
    for (std::size_t e = 0; e < m; ++e) {
        const Edge& edge = graph.edge(e);
        sw_delay_[e] = edge.cost * params.swfifo_cost_per_byte;
        bus_duration_[e] = params.bus_setup + edge.cost * params.gfifo_cost_per_byte;
    }
}

MpsocResult CanonicalClustering::aggregate(const MpsocPrep& prep,
                                           const Clustering& clustering) {
    const TaskGraph& graph = prep.graph();
    const std::size_t n = graph.task_count();
    if (n != clustering.task_count())
        throw std::invalid_argument("clustering does not match graph size");

    // 1. Canonical labels. Clustering keeps its ids dense in first-
    //    appearance order by task index (from_assignment and merge both
    //    normalize), so its own ids are the canonical numbering.
    canon_.resize(n);
    for (TaskIndex t = 0; t < n; ++t) canon_[t] = clustering.cluster_of(t);
    clusters_ = clustering.cluster_count();
    const auto clusters = static_cast<std::size_t>(clusters_);

    // 2. Per-cluster locals, each summed over its members in ascending
    //    task order.
    MpsocResult result;
    result.cpu_busy.assign(clusters, 0.0);
    internal_cost_.assign(clusters, 0.0);
    cut_cost_.assign(clusters, 0.0);
    cut_bus_.assign(clusters, 0.0);
    cut_edges_.assign(clusters, 0);
    for (TaskIndex t = 0; t < n; ++t) {
        const auto c = static_cast<std::size_t>(canon_[t]);
        result.cpu_busy[c] += prep.work()[t];
        for (std::size_t e : graph.out_edges(t)) {
            const Edge& edge = graph.edge(e);
            if (canon_[edge.to] == canon_[t]) {
                internal_cost_[c] += edge.cost;
            } else {
                cut_cost_[c] += edge.cost;
                cut_bus_[c] += prep.bus_duration()[e];
                ++cut_edges_[c];
            }
        }
    }

    // 3. Aggregates, summed cluster by cluster in canonical order.
    for (std::size_t c = 0; c < clusters; ++c) {
        result.intra_traffic += internal_cost_[c];
        result.inter_traffic += cut_cost_[c];
        result.bus_busy += cut_bus_[c];
        result.bus_transfers += cut_edges_[c];
    }
    return result;
}

MpsocBatch::MpsocBatch(const MpsocPrep& prep) : prep_(prep) {}

std::size_t MpsocBatch::resume_position() const {
    const std::vector<int>& canon = current_.labels();
    if (!has_prev_ || canon_prev_.size() != canon.size()) return 0;
    const TaskGraph& graph = *prep_.graph_;
    const std::size_t n = canon.size();
    std::size_t start = n;
    for (TaskIndex t = 0; t < n; ++t) {
        if (canon_prev_[t] == canon[t]) continue;
        // A changed task invalidates its own position *and* every producer
        // position feeding it: an in-edge is priced when the producer runs,
        // and that price reads the consumer's cluster.
        start = std::min(start, prep_.pos_[t]);
        for (std::size_t e : graph.in_edges(t))
            start = std::min(start, prep_.pos_[graph.edge(e).from]);
    }
    return start;
}

MpsocResult MpsocBatch::evaluate(const Clustering& clustering) {
    static obs::Counter& runs = obs::counter("sim.mpsoc_runs");
    runs.add(1);
    const TaskGraph& graph = *prep_.graph_;
    const std::size_t n = graph.task_count();
    MpsocResult result = current_.aggregate(prep_, clustering);
    const std::vector<int>& canon = current_.labels();
    ++stats_.evaluated;

    // 4. Timed scan with prefix resume. Every quantity at topological
    //    position q (finish, edge arrivals, bus_free) depends only on the
    //    labels of tasks involved in pricing at positions <= q, and
    //    resume_position() guarantees all of those are unchanged below it —
    //    so replaying the stored prefix is bitwise exact.
    const std::size_t start = resume_position();
    stats_.prefix_tasks_reused += start;
    finish_.resize(n);
    edge_arrival_.resize(graph.edge_count());
    bus_free_at_.resize(n);
    cpu_free_.assign(static_cast<std::size_t>(current_.clusters()), 0.0);
    for (std::size_t q = 0; q < start; ++q) {
        TaskIndex t = prep_.topo_[q];
        cpu_free_[static_cast<std::size_t>(canon[t])] = finish_[t];
    }
    double bus_free = start > 0 ? bus_free_at_[start - 1] : 0.0;
    for (std::size_t q = start; q < n; ++q) {
        TaskIndex t = prep_.topo_[q];
        int c = canon[t];
        double ready = cpu_free_[static_cast<std::size_t>(c)];
        for (std::size_t e : graph.in_edges(t))
            ready = std::max(ready, edge_arrival_[e]);
        finish_[t] = ready + prep_.work_[t];
        cpu_free_[static_cast<std::size_t>(c)] = finish_[t];
        for (std::size_t e : graph.out_edges(t)) {
            const Edge& edge = graph.edge(e);
            if (canon[edge.to] == c) {
                edge_arrival_[e] = finish_[t] + prep_.sw_delay_[e];
            } else {
                double duration = prep_.bus_duration_[e];
                double transfer_start = finish_[t];
                if (prep_.params_.shared_bus) {
                    transfer_start = std::max(transfer_start, bus_free);
                    bus_free = transfer_start + duration;
                }
                edge_arrival_[e] = transfer_start + duration;
            }
        }
        bus_free_at_[q] = bus_free;
    }
    for (TaskIndex t = 0; t < n; ++t)
        result.makespan = std::max(result.makespan, finish_[t]);

    current_.swap_labels(canon_prev_);
    has_prev_ = true;
    return result;
}

}  // namespace uhcg::sim
