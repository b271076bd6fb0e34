#include "sim/backend.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"

namespace uhcg::sim {

using taskgraph::Clustering;
using taskgraph::Edge;
using taskgraph::TaskGraph;
using taskgraph::TaskIndex;

namespace {

// ---------------------------------------------------------------------------
// dynamic-fifo: the exact engine, wrapped.

class DynamicFifoEvaluator final : public BackendEvaluator {
public:
    explicit DynamicFifoEvaluator(const MpsocPrep& prep) : batch_(prep) {}
    MpsocResult evaluate(const Clustering& clustering) override {
        return batch_.evaluate(clustering);
    }
    void break_chain() override { batch_.break_chain(); }
    BatchStats stats() const override { return batch_.stats(); }

private:
    MpsocBatch batch_;
};

// ---------------------------------------------------------------------------
// analytic: closed-form bound, no event loop. Deliberately inexact — a
// deterministic lower bound combining the three classic limits: the
// dependency critical path (with the clustering's SWFIFO/GFIFO delays but
// no bus serialization), the busiest CPU, and total shared-bus occupancy.

class AnalyticEvaluator final : public BackendEvaluator {
public:
    explicit AnalyticEvaluator(const MpsocPrep& prep) : prep_(prep) {}

    MpsocResult evaluate(const Clustering& clustering) override {
        static obs::Counter& evals = obs::counter("sim.analytic_evals");
        evals.add(1);
        const TaskGraph& graph = prep_.graph();
        MpsocResult result = clusters_.aggregate(prep_, clustering);
        const std::vector<int>& canon = clusters_.labels();

        // Path bound: earliest finish ignoring CPU and bus contention.
        finish_.assign(graph.task_count(), 0.0);
        for (TaskIndex t : prep_.topo()) {
            double ready = 0.0;
            for (std::size_t e : graph.in_edges(t)) {
                const Edge& edge = graph.edge(e);
                double delay = canon[edge.from] == canon[t]
                                   ? prep_.sw_delay()[e]
                                   : prep_.bus_duration()[e];
                ready = std::max(ready, finish_[edge.from] + delay);
            }
            finish_[t] = ready + prep_.work()[t];
        }
        double path = 0.0;
        for (double f : finish_) path = std::max(path, f);
        double busiest = 0.0;
        for (double w : result.cpu_busy) busiest = std::max(busiest, w);
        result.makespan = std::max(path, busiest);
        if (prep_.params().shared_bus)
            result.makespan = std::max(result.makespan, result.bus_busy);
        return result;
    }

private:
    const MpsocPrep& prep_;
    CanonicalClustering clusters_;
    std::vector<double> finish_;
};

// ---------------------------------------------------------------------------
// Both builtins compile to one MpsocPrep and differ only in the evaluator
// they mint from it.

template <class Evaluator>
class PreparedModel final : public CompiledModel {
public:
    PreparedModel(const TaskGraph& graph, const MpsocParams& params)
        : prep_(graph, params) {}
    std::unique_ptr<BackendEvaluator> evaluator() const override {
        return std::make_unique<Evaluator>(prep_);
    }

private:
    MpsocPrep prep_;
};

template <class Evaluator>
class BuiltinBackend final : public Backend {
public:
    BuiltinBackend(std::string_view name, std::string_view description)
        : name_(name), description_(description) {}
    std::string_view name() const override { return name_; }
    std::string_view description() const override { return description_; }
    std::unique_ptr<CompiledModel> compile(
        const TaskGraph& graph, const MpsocParams& params) const override {
        return std::make_unique<PreparedModel<Evaluator>>(graph, params);
    }

private:
    std::string_view name_;
    std::string_view description_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Registry.

BackendRegistry& BackendRegistry::add(std::unique_ptr<Backend> backend) {
    backends_.push_back(std::move(backend));
    return *this;
}

const Backend* BackendRegistry::find(std::string_view name) const {
    for (const auto& b : backends_)
        if (b->name() == name) return b.get();
    return nullptr;
}

const BackendRegistry& BackendRegistry::builtins() {
    static const BackendRegistry registry = [] {
        BackendRegistry r;
        r.add(std::make_unique<BuiltinBackend<DynamicFifoEvaluator>>(
                 kDefaultBackend,
                 "event-driven dynamic-FIFO engine (reference semantics)"))
            .add(std::make_unique<BuiltinBackend<AnalyticEvaluator>>(
                "analytic",
                "closed-form critical-path/contention lower bound (inexact)"));
        return r;
    }();
    return registry;
}

const Backend* find_backend(std::string_view name) {
    return BackendRegistry::builtins().find(name.empty() ? kDefaultBackend
                                                         : name);
}

std::string unknown_backend_message(std::string_view name) {
    std::string known;
    for (const auto& b : BackendRegistry::builtins().backends())
        known += (known.empty() ? "" : ", ") + std::string(b->name());
    return "unknown simulation backend '" + std::string(name) +
           "' (known: " + known + ")";
}

const Backend& backend_or_throw(std::string_view name) {
    if (const Backend* backend = find_backend(name)) return *backend;
    throw std::invalid_argument(unknown_backend_message(name));
}

MpsocResult simulate_backend(const TaskGraph& graph,
                             const Clustering& clustering,
                             const MpsocParams& params,
                             std::string_view backend,
                             diag::DiagnosticEngine*) {
    obs::ObsSpan span("sim.backend");
    const Backend& be = backend_or_throw(backend);
    std::unique_ptr<CompiledModel> compiled = be.compile(graph, params);
    span.annotate("sim.backend", be.name());
    return compiled->evaluator()->evaluate(clustering);
}

}  // namespace uhcg::sim
