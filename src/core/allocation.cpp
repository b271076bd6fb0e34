#include "core/allocation.hpp"

#include <stdexcept>

#include "obs/obs.hpp"
#include "taskgraph/linear.hpp"

namespace uhcg::core {

std::size_t Allocation::add_processor(std::string name) {
    processors_.push_back(std::move(name));
    return processors_.size() - 1;
}

void Allocation::assign(const uml::ObjectInstance& thread, std::size_t processor) {
    if (processor >= processors_.size())
        throw std::out_of_range("processor index out of range");
    if (is_assigned(thread))
        throw std::invalid_argument("thread '" + thread.name() +
                                    "' is already assigned");
    assignment_.emplace_back(&thread, processor);
}

std::size_t Allocation::processor_of(const uml::ObjectInstance& thread) const {
    for (const auto& [t, p] : assignment_)
        if (t == &thread) return p;
    throw std::out_of_range("thread '" + thread.name() + "' is not allocated");
}

bool Allocation::is_assigned(const uml::ObjectInstance& thread) const {
    for (const auto& [t, p] : assignment_)
        if (t == &thread) return true;
    return false;
}

std::vector<const uml::ObjectInstance*> Allocation::threads_on(
    std::size_t p) const {
    std::vector<const uml::ObjectInstance*> out;
    for (const auto& [t, proc] : assignment_)
        if (proc == p) out.push_back(t);
    return out;
}

taskgraph::TaskGraph build_task_graph(const uml::Model& model,
                                      const CommModel& comm) {
    obs::ObsSpan span("taskgraph.build");
    static obs::Counter& graphs = obs::counter("taskgraph.graphs_built");
    graphs.add(1);
    taskgraph::TaskGraph g;
    std::map<const uml::ObjectInstance*, taskgraph::TaskIndex> index;
    for (const uml::ObjectInstance* t : model.threads())
        index[t] = g.add_task(t->name());
    for (const Channel& c : comm.channels()) {
        auto from = index.find(c.producer);
        auto to = index.find(c.consumer);
        if (from == index.end() || to == index.end()) continue;
        g.add_edge(from->second, to->second, c.data_size);
    }
    return g;
}

Allocation allocation_from_deployment(const uml::Model& model) {
    const uml::DeploymentDiagram* dd = model.deployment_or_null();
    if (!dd)
        throw std::runtime_error(
            "model has no deployment diagram; use auto allocation (§4.2.3)");
    Allocation out;
    std::map<const uml::NodeInstance*, std::size_t> node_index;
    for (const uml::NodeInstance* n : dd->nodes()) {
        if (!n->is_processor()) continue;  // buses/devices are not targets
        node_index[n] = out.add_processor(n->name());
    }
    for (const uml::ObjectInstance* t : model.threads()) {
        uml::NodeInstance* node = dd->node_of(*t);
        if (!node)
            throw std::runtime_error("thread '" + t->name() +
                                     "' is not deployed on any processor");
        auto it = node_index.find(node);
        if (it == node_index.end())
            throw std::runtime_error("thread '" + t->name() +
                                     "' is deployed on non-<<SAengine>> node '" +
                                     node->name() + "'");
        out.assign(*t, it->second);
    }
    return out;
}

taskgraph::Clustering auto_clustering(const uml::Model& model,
                                      const CommModel& comm,
                                      std::size_t max_processors) {
    return auto_clustering(build_task_graph(model, comm), max_processors);
}

taskgraph::Clustering auto_clustering(const taskgraph::TaskGraph& graph,
                                      std::size_t max_processors) {
    obs::ObsSpan span("core.cluster");
    static obs::Counter& clusterings = obs::counter("core.clusterings");
    clusterings.add(1);
    taskgraph::LinearClusteringOptions options;
    options.max_clusters = max_processors;
    return taskgraph::linear_clustering(graph, options);
}

Allocation auto_allocate(const uml::Model& model, const CommModel& comm,
                         std::size_t max_processors) {
    return auto_allocate(model, build_task_graph(model, comm), max_processors);
}

Allocation auto_allocate(const uml::Model& model, const taskgraph::TaskGraph& graph,
                         std::size_t max_processors) {
    obs::ObsSpan span("core.allocate-auto");
    auto threads = model.threads();
    taskgraph::Clustering clustering = auto_clustering(graph, max_processors);
    Allocation out;
    for (int c = 0; c < clustering.cluster_count(); ++c)
        out.add_processor("CPU" + std::to_string(c));
    for (std::size_t t = 0; t < threads.size(); ++t)
        out.assign(*threads[t], static_cast<std::size_t>(clustering.cluster_of(t)));
    return out;
}

}  // namespace uhcg::core
