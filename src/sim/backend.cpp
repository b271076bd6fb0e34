#include "sim/backend.hpp"

#include <cstddef>
#include <stdexcept>

#include "obs/obs.hpp"
#include "sim/batch.hpp"

namespace uhcg::sim {

namespace {

/// Indexed by Backend.
constexpr std::string_view kNames[] = {"dynamic-fifo", "analytic"};

}  // namespace

std::optional<Backend> find_backend(std::string_view name) {
    if (name.empty()) return Backend::DynamicFifo;
    for (std::size_t i = 0; i < std::size(kNames); ++i)
        if (kNames[i] == name) return static_cast<Backend>(i);
    return std::nullopt;
}

Backend backend_or_throw(std::string_view name) {
    if (std::optional<Backend> kind = find_backend(name)) return *kind;
    throw std::invalid_argument(unknown_backend_message(name));
}

std::string_view backend_name(Backend kind) {
    return kNames[static_cast<std::size_t>(kind)];
}

std::string unknown_backend_message(std::string_view name) {
    std::string known;
    for (std::string_view n : kNames)
        known += (known.empty() ? "" : ", ") + std::string(n);
    return "unknown simulation backend '" + std::string(name) +
           "' (known: " + known + ")";
}

MpsocResult simulate_backend(const taskgraph::TaskGraph& graph,
                             const taskgraph::Clustering& clustering,
                             const MpsocParams& params,
                             std::string_view backend,
                             diag::DiagnosticEngine*) {
    obs::ObsSpan span("sim.backend");
    const Backend kind = backend_or_throw(backend);
    MpsocPrep prep(graph, params);
    span.annotate("sim.backend", backend_name(kind));
    return MpsocBatch(prep, kind).evaluate(clustering);
}

}  // namespace uhcg::sim
