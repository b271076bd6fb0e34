// explore_trace.hpp — the DSE layers, traced on generate-scale's models.
//
// `uhcg explore` is not an end-to-end workload of its own: serve-mix runs
// it end to end in its explore requests, with a cold and a warm memo. Its
// layers are measured here, in generate-scale's traced run, on the same two
// models.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "bench.hpp"
#include "uml/model.hpp"

namespace perfbench {

/// Wall times of one cold explore at jobs = 1 and at jobs = cores (ms).
struct ExploreTimes {
    double serial_ms = 0;
    double parallel_ms = 0;
};

/// One traced explore round on `model` (default backend): a cold explore at
/// `jobs` with obs spans on, its warm repeat, a re-pricing of every unique
/// candidate and a cold explore at 1 and at `jobs`. Adds dse.explore.ms,
/// dse.cluster.ms, dse.simulate.ms, the ExploreStats counts and
/// sim.mpsoc.* to `round`; dse.taskgraph.ms is the replay's. Checks that
/// the stats add up, that the cold explore never hits the memo and the warm
/// one never simulates, that the ranking repeats and that re-pricing gives
/// bitwise-equal makespans.
ExploreTimes trace_explore(const std::string& label,
                           const uhcg::uml::Model& model, std::size_t jobs,
                           Outcome& out, std::map<std::string, double>& round);

}  // namespace perfbench
