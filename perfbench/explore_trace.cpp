// explore_trace.cpp — `uhcg explore` traced on one model.
//
// The cluster/simulate split has no public call of its own, so it is read
// from explore's obs spans. A cold explore clears the process-wide
// simulation memo first, as one CLI or campaign invocation pays it.
#include "explore_trace.hpp"

#include <cstring>
#include <sstream>

#include "core/allocation.hpp"
#include "dse/explore.hpp"
#include "obs/obs.hpp"
#include "sim/mpsoc.hpp"

namespace perfbench {

namespace {

using namespace uhcg;

dse::ExploreResult explore(const uml::Model& model,
                           const core::CommModel& comm, std::size_t jobs) {
    dse::ExploreOptions options;
    options.jobs = jobs;
    return dse::explore(model, comm, options);
}

std::uint64_t bits(double value) {
    std::uint64_t out = 0;
    std::memcpy(&out, &value, sizeof out);
    return out;
}

/// Digest of the ranking: every candidate's identity and metrics in
/// evaluation order, the Pareto front and the recommendation.
std::uint64_t ranking_digest(const dse::ExploreResult& r) {
    std::ostringstream text;
    for (const dse::Candidate& c : r.candidates)
        text << c.strategy << ' ' << c.processors << ' ' << c.fingerprint << ' '
             << bits(c.makespan) << ' ' << bits(c.inter_traffic) << ' '
             << bits(c.bus_busy) << ' ' << bits(c.cpu_utilization) << ' '
             << c.pareto << '\n';
    for (std::size_t i : r.pareto_front) text << i << ' ';
    text << "best " << r.best;
    return fnv1a(text.str());
}

/// Checks the stats identity and the memo behaviour of one explore.
void check(const std::string& label, const dse::ExploreResult& r, bool cold,
           Outcome& out) {
    const dse::ExploreStats& s = r.stats;
    out.check(
        s.candidates == s.simulations + s.cache_hits + s.duplicates_skipped,
        label + ": candidates != simulations + cache hits + duplicates");
    out.check(cold ? s.cache_hits == 0 : s.simulations == 0,
              label + (cold ? ": cold explore hit the memo"
                            : ": warm explore missed the memo"));
}

/// Total duration of the recorded obs spans named `name`, ms.
double span_ms(const std::vector<obs::SpanRecord>& spans,
               std::string_view name) {
    double total = 0;
    for (const obs::SpanRecord& s : spans)
        if (s.name == name) total += static_cast<double>(s.dur_ns) / 1e6;
    return total;
}

}  // namespace

ExploreTimes trace_explore(const std::string& label, const uml::Model& model,
                           std::size_t jobs, Outcome& out,
                           std::map<std::string, double>& round) {
    const core::CommModel comm = core::analyze_communication(model);

    dse::clear_simulation_cache();
    obs::reset_spans();
    obs::set_enabled(true);
    dse::ExploreResult r;
    round["dse.explore.ms"] += time_ms([&] { r = explore(model, comm, jobs); });
    obs::set_enabled(false);
    std::vector<obs::SpanRecord> spans = obs::spans_snapshot();
    obs::reset_spans();
    round["dse.cluster.ms"] += span_ms(spans, "dse.cluster-sweep");
    round["dse.simulate.ms"] += span_ms(spans, "dse.simulate-sweep");
    check(label, r, true, out);
    const std::uint64_t ranking = ranking_digest(r);
    out.exact(label + ".ranking", hex16(ranking));
    out.exact(label + ".explore_bytes", dse::format(r).size());

    const dse::ExploreStats& s = r.stats;
    round["dse.candidates"] += static_cast<double>(s.candidates);
    round["dse.unique_clusterings"] += static_cast<double>(s.unique_clusterings);
    round["dse.simulations"] += static_cast<double>(s.simulations);
    round["dse.partial_reuse"] += static_cast<double>(s.partial_reuse);
    out.exact(label + ".dse.candidates", s.candidates);
    out.exact(label + ".dse.simulations", s.simulations);
    out.exact(label + ".dse.partial_reuse", s.partial_reuse);
    out.exact(label + ".dse.unique_clusterings", s.unique_clusterings);

    // Warm repeat: every unique clustering is a memo hit.
    dse::ExploreResult again = explore(model, comm, jobs);
    check(label, again, false, out);
    out.check(ranking_digest(again) == ranking,
              label + ": warm ranking or Pareto front differs");
    round["dse.cache_hits"] += static_cast<double>(again.stats.cache_hits);

    // Re-price every unique candidate from scratch: the one-shot cost
    // model must agree bitwise with the sweep.
    taskgraph::TaskGraph graph = core::build_task_graph(model, comm);
    std::map<std::uint64_t, const dse::Candidate*> unique;
    for (const dse::Candidate& c : r.candidates) unique.emplace(c.fingerprint, &c);
    round["sim.mpsoc.ms"] += time_ms([&] {
        for (const auto& [fp, c] : unique) {
            sim::MpsocResult priced = sim::simulate_mpsoc(graph, c->clustering);
            if (bits(priced.makespan) != bits(c->makespan))
                out.fail(label + ": re-priced makespan differs");
        }
    });
    round["sim.mpsoc.evals"] += static_cast<double>(unique.size());

    ExploreTimes times;
    dse::clear_simulation_cache();
    times.serial_ms = time_ms([&] { explore(model, comm, 1); });
    dse::clear_simulation_cache();
    times.parallel_ms = time_ms([&] { explore(model, comm, jobs); });
    return times;
}

}  // namespace perfbench
