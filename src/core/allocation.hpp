// allocation.hpp — the thread-to-processor allocation decision (§4.2.3).
//
// Two sources, exactly as the paper offers:
//  * the deployment diagram, "when the designer wants to decide the
//    mapping by himself";
//  * the automatic optimization: a task graph is mined from the sequence
//    diagrams (nodes = threads, edge cost = transferred data) and Linear
//    Clustering groups data-dependent threads onto the same processor,
//    making "the deployment diagram unnecessary".
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/comm.hpp"
#include "taskgraph/clustering.hpp"
#include "taskgraph/graph.hpp"
#include "uml/model.hpp"

namespace uhcg::core {

/// The allocation consumed by the mapping: ordered processors and the
/// thread → processor assignment.
class Allocation {
public:
    /// Adds a processor; returns its index.
    std::size_t add_processor(std::string name);
    void assign(const uml::ObjectInstance& thread, std::size_t processor);

    std::size_t processor_count() const { return processors_.size(); }
    const std::string& processor_name(std::size_t p) const {
        return processors_.at(p);
    }
    /// Processor of `thread`; throws std::out_of_range when unassigned.
    std::size_t processor_of(const uml::ObjectInstance& thread) const;
    bool is_assigned(const uml::ObjectInstance& thread) const;
    /// Threads on processor p, assignment order.
    std::vector<const uml::ObjectInstance*> threads_on(std::size_t p) const;
    bool same_processor(const uml::ObjectInstance& a,
                        const uml::ObjectInstance& b) const {
        return processor_of(a) == processor_of(b);
    }

private:
    std::vector<std::string> processors_;
    std::vector<std::pair<const uml::ObjectInstance*, std::size_t>> assignment_;
};

/// Builds the §4.2.3 task graph: one node per thread (unit weight unless a
/// weight table is given), one edge per communicating ordered pair with
/// cost = total transferred data.
taskgraph::TaskGraph build_task_graph(const uml::Model& model,
                                      const CommModel& comm);

/// Allocation from the model's deployment diagram. Throws
/// std::runtime_error when a thread is undeployed or there is no diagram.
Allocation allocation_from_deployment(const uml::Model& model);

/// Automatic allocation: linear clustering over the mined task graph; one
/// processor per cluster, named CPU0..CPUn-1 (cluster order). A
/// `max_processors` of 0 leaves the cluster count to the algorithm.
Allocation auto_allocate(const uml::Model& model, const CommModel& comm,
                         std::size_t max_processors = 0);
/// The same over an already mined `graph` (build_task_graph of `model`).
Allocation auto_allocate(const uml::Model& model, const taskgraph::TaskGraph& graph,
                         std::size_t max_processors = 0);

/// The clustering behind auto_allocate, exposed for the benches.
taskgraph::Clustering auto_clustering(const uml::Model& model,
                                      const CommModel& comm,
                                      std::size_t max_processors = 0);
taskgraph::Clustering auto_clustering(const taskgraph::TaskGraph& graph,
                                      std::size_t max_processors = 0);

}  // namespace uhcg::core
