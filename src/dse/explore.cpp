#include "dse/explore.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/hash.hpp"
#include "core/parallel.hpp"
#include "obs/obs.hpp"
#include "sim/backend.hpp"
#include "sim/batch.hpp"
#include "taskgraph/baselines.hpp"
#include "taskgraph/dsc.hpp"
#include "taskgraph/linear.hpp"

namespace uhcg::dse {
namespace {

// ---------------------------------------------------------------------------
// Fingerprints: core::fnv1a from the DSE seed over canonical field streams;
// the clustering fingerprint renumbers cluster ids by first appearance so
// strategy-specific labelings of the same partition collide.

using core::fnv1a_f64;
using core::fnv1a_u64;

std::uint64_t graph_fingerprint(const taskgraph::TaskGraph& graph) {
    std::uint64_t h = fnv1a_u64(graph.task_count(), core::kDseFnvOffset);
    for (std::size_t t = 0; t < graph.task_count(); ++t)
        h = fnv1a_f64(graph.weight(t), h);
    for (const taskgraph::Edge& e : graph.edges()) {
        h = fnv1a_u64(e.from, h);
        h = fnv1a_u64(e.to, h);
        h = fnv1a_f64(e.cost, h);
    }
    return h;
}

std::uint64_t params_fingerprint(const sim::MpsocParams& p) {
    std::uint64_t h = fnv1a_f64(p.cycles_per_work, core::kDseFnvOffset);
    h = fnv1a_f64(p.swfifo_cost_per_byte, h);
    h = fnv1a_f64(p.gfifo_cost_per_byte, h);
    h = fnv1a_f64(p.bus_setup, h);
    return fnv1a_u64(p.shared_bus, h);
}

// ---------------------------------------------------------------------------
// Process-wide memoization of simulate_mpsoc, so repeated budgets inside a
// sweep, the best_allocation convenience path and repeated explorations all
// pay for each unique (graph, clustering, cost model) exactly once.

struct CacheKey {
    std::uint64_t graph = 0;
    std::uint64_t clustering = 0;
    std::uint64_t params = 0;
    /// Fingerprint of the backend name, so inexact (analytic) bounds never
    /// alias exact entries.
    std::uint64_t backend = 0;
    bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const {
        std::uint64_t h = fnv1a_u64(k.graph, core::kDseFnvOffset);
        h = fnv1a_u64(k.clustering, h);
        h = fnv1a_u64(k.params, h);
        return static_cast<std::size_t>(fnv1a_u64(k.backend, h));
    }
};

class SimulationCache {
public:
    bool lookup(const CacheKey& key, sim::MpsocResult& out) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++lookups_;
        auto it = map_.find(key);
        if (it == map_.end()) return false;
        ++hits_;
        it->second.stamp = ++stamp_;  // recency for trim()
        out = it->second.result;
        return true;
    }

    void insert(const CacheKey& key, const sim::MpsocResult& result) {
        std::lock_guard<std::mutex> lock(mutex_);
        // Crude bound: a sweep over huge generated apps must not grow the
        // process without limit; dropping everything keeps hits deterministic
        // per run (lookups happen before any insert of the same run).
        if (map_.size() >= kMaxEntries) map_.clear();
        map_.emplace(key, Entry{result, ++stamp_});
    }

    SimCacheStats stats() {
        std::lock_guard<std::mutex> lock(mutex_);
        return {map_.size(), lookups_, hits_};
    }

    void clear() {
        std::lock_guard<std::mutex> lock(mutex_);
        map_.clear();
        lookups_ = 0;
        hits_ = 0;
    }

    /// Least-recently-used eviction down to `max_entries` — the hook a
    /// resident host (the serve daemon) uses to keep the process-wide
    /// memo inside its memory budget instead of the all-or-nothing bound
    /// above. Returns the number of entries dropped.
    std::size_t trim(std::size_t max_entries) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (map_.size() <= max_entries) return 0;
        std::vector<std::uint64_t> stamps;
        stamps.reserve(map_.size());
        for (const auto& [key, entry] : map_) stamps.push_back(entry.stamp);
        // The (size - max) smallest stamps are the eviction set.
        std::size_t drop = map_.size() - max_entries;
        std::nth_element(stamps.begin(), stamps.begin() + (drop - 1),
                         stamps.end());
        std::uint64_t threshold = stamps[drop - 1];
        std::size_t dropped = 0;
        for (auto it = map_.begin(); it != map_.end();) {
            if (it->second.stamp <= threshold) {
                it = map_.erase(it);
                ++dropped;
            } else {
                ++it;
            }
        }
        return dropped;
    }

private:
    static constexpr std::size_t kMaxEntries = 1u << 16;
    struct Entry {
        sim::MpsocResult result;
        std::uint64_t stamp = 0;  ///< monotone recency (insert or hit)
    };
    std::mutex mutex_;
    std::unordered_map<CacheKey, Entry, CacheKeyHash> map_;
    std::size_t lookups_ = 0;
    std::size_t hits_ = 0;
    std::uint64_t stamp_ = 0;
};

SimulationCache& cache() {
    static SimulationCache instance;
    return instance;
}

/// One planned (strategy, budget, seed) candidate: name + how to build it.
struct Descriptor {
    std::string strategy;
    std::function<taskgraph::Clustering()> make;
};

void fill_metrics(Candidate& c, const sim::MpsocResult& r) {
    c.makespan = r.makespan;
    c.inter_traffic = r.inter_traffic;
    c.bus_busy = r.bus_busy;
    double busy = 0.0;
    for (double b : r.cpu_busy) busy += b;
    c.cpu_utilization =
        r.makespan > 0.0
            ? busy / (r.makespan * static_cast<double>(r.cpu_busy.size()))
            : 0.0;
}

}  // namespace

std::uint64_t clustering_fingerprint(const taskgraph::Clustering& clustering) {
    std::vector<int> canon(clustering.task_count(), -1);
    int next_id = 0;
    std::uint64_t h = fnv1a_u64(clustering.task_count(), core::kDseFnvOffset);
    for (std::size_t t = 0; t < clustering.task_count(); ++t) {
        int cluster = clustering.cluster_of(t);
        // Renumber by first appearance: label-invariant identity.
        int& dense = canon[static_cast<std::size_t>(cluster)];
        if (dense < 0) dense = next_id++;
        h = fnv1a_u64(static_cast<std::uint64_t>(dense), h);
    }
    return h;
}

ExploreResult explore(const uml::Model& model, const core::CommModel& comm,
                      const ExploreOptions& options,
                      diag::DiagnosticEngine*) {
    obs::ObsSpan explore_span("dse.explore");
    const sim::Backend kind = sim::backend_or_throw(options.backend);
    const std::string_view backend = sim::backend_name(kind);
    explore_span.annotate("sim.backend", backend);
    taskgraph::TaskGraph graph = core::build_task_graph(model, comm);
    const std::size_t n = graph.task_count();

    ExploreResult result;
    result.stats.backend = std::string(backend);
    if (n == 0) return result;
    const std::size_t max_cpus = options.max_processors == 0
                                     ? n
                                     : std::min(options.max_processors, n);
    const std::size_t jobs = core::effective_jobs(options.jobs);

    // 1. Plan every (strategy, budget, seed) candidate up front, in the
    //    fixed order the result exposes. Unbounded linear clustering picks
    //    its own processor count — the §4.2.3 default — and anchors the
    //    sweep; the per-budget strategies and random samples add diversity.
    std::vector<Descriptor> plan;
    plan.reserve(2 + max_cpus * (3 + options.random_samples));
    plan.push_back(
        {"linear", [&graph] { return taskgraph::linear_clustering(graph); }});
    plan.push_back(
        {"dsc", [&graph] { return taskgraph::dsc_clustering(graph); }});
    for (std::size_t k = 1; k <= max_cpus; ++k) {
        plan.push_back({"linear/k", [&graph, k] {
                            taskgraph::LinearClusteringOptions lc;
                            lc.max_clusters = k;
                            return taskgraph::linear_clustering(graph, lc);
                        }});
        plan.push_back({"load-balance", [&graph, k] {
                            return taskgraph::load_balance_clustering(graph, k);
                        }});
        plan.push_back({"round-robin", [&graph, k] {
                            return taskgraph::round_robin_clustering(graph, k);
                        }});
        for (std::size_t s = 0; s < options.random_samples; ++s)
            plan.push_back({"random", [&graph, k, s] {
                                return taskgraph::random_clustering(
                                    graph, k, 77 + k * 31 + s);
                            }});
    }

    // 2. Build the clusterings (each generator is independent and reads the
    //    graph only).
    std::vector<taskgraph::Clustering> clusterings(plan.size(),
                                                   taskgraph::Clustering(0));
    {
        obs::ObsSpan span("dse.cluster-sweep");
        core::parallel_for(plan.size(), jobs, [&](std::size_t i) {
            clusterings[i] = plan[i].make();
        });
    }

    // 3. Fingerprint and deduplicate *before* simulation: several strategies
    //    routinely produce the same partition (round-robin at k = n is the
    //    discrete clustering, bounded linear at large k repeats, ...).
    std::vector<std::uint64_t> fingerprints(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i)
        fingerprints[i] = clustering_fingerprint(clusterings[i]);
    std::unordered_map<std::uint64_t, std::size_t> slot_of;  // fp → slot
    slot_of.reserve(plan.size() * 2);
    std::vector<std::size_t> unique_index;  // slot → first candidate index
    unique_index.reserve(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        auto [it, inserted] =
            slot_of.emplace(fingerprints[i], unique_index.size());
        if (inserted) unique_index.push_back(i);
        (void)it;
    }

    // 4. Precompute the graph's prices (the per-(graph, params) MpsocPrep,
    //    shared read-only by every worker), probe the memo cache per unique
    //    clustering, then fan the surviving evaluations out across the
    //    pool in *chunks*: each chunk prices with one MpsocBatch of the
    //    requested backend (schedule-prefix reuse between consecutive
    //    candidates), so a pool task amortizes dispatch over `chunk`
    //    candidates.
    const sim::MpsocPrep prep(graph, options.cost_model);
    const std::uint64_t graph_fp = graph_fingerprint(graph);
    const std::uint64_t params_fp = params_fingerprint(options.cost_model);
    const std::uint64_t backend_fp = core::fnv1a(backend, core::kDseFnvOffset);
    std::vector<sim::MpsocResult> unique_results(unique_index.size());
    std::vector<std::size_t> to_simulate;
    to_simulate.reserve(unique_index.size());
    for (std::size_t slot = 0; slot < unique_index.size(); ++slot) {
        CacheKey key{graph_fp, fingerprints[unique_index[slot]], params_fp,
                     backend_fp};
        if (!cache().lookup(key, unique_results[slot]))
            to_simulate.push_back(slot);
    }
    // Locality order: neighbors (same strategy, adjacent budgets) differ by
    // few task moves, so placing them consecutively in a chunk maximizes
    // prefix reuse. Purely an evaluation order — results land in
    // fixed slots, so rankings stay byte-identical to the exhaustive path.
    std::vector<std::size_t> sim_order = to_simulate;
    std::sort(sim_order.begin(), sim_order.end(),
              [&](std::size_t a, std::size_t b) {
                  std::size_t ia = unique_index[a];
                  std::size_t ib = unique_index[b];
                  if (plan[ia].strategy != plan[ib].strategy)
                      return plan[ia].strategy < plan[ib].strategy;
                  int ka = clusterings[ia].cluster_count();
                  int kb = clusterings[ib].cluster_count();
                  if (ka != kb) return ka < kb;
                  return ia < ib;
              });
    const std::size_t chunk = options.chunk_size == 0 ? core::kDefaultChunkSize
                                                      : options.chunk_size;
    const std::size_t num_chunks = (sim_order.size() + chunk - 1) / chunk;
    std::vector<sim::BatchStats> chunk_stats(num_chunks);
    {
        obs::ObsSpan span("dse.simulate-sweep");
        span.annotate("sim.backend", backend);
        core::parallel_for_chunked(
            sim_order.size(), jobs, chunk,
            [&](std::size_t begin, std::size_t end) {
                obs::ObsSpan chunk_span("sim.mpsoc-batch");
                chunk_span.annotate("sim.backend", backend);
                sim::MpsocBatch batch(prep, kind);
                for (std::size_t t = begin; t < end; ++t) {
                    std::size_t slot = sim_order[t];
                    unique_results[slot] =
                        batch.evaluate(clusterings[unique_index[slot]]);
                }
                chunk_stats[begin / chunk] = batch.stats();
            });
    }
    for (std::size_t slot : to_simulate)
        cache().insert({graph_fp, fingerprints[unique_index[slot]], params_fp,
                        backend_fp},
                       unique_results[slot]);

    // Optional oracle check: re-price every unique clustering on a fresh,
    // chain-free evaluator of the same prep and require bitwise equality on
    // every metric.
    if (options.verify_full) {
        obs::ObsSpan span("dse.verify-full");
        core::parallel_for(unique_index.size(), jobs, [&](std::size_t slot) {
            sim::MpsocResult fresh = sim::MpsocBatch(prep, kind).evaluate(
                clusterings[unique_index[slot]]);
            const sim::MpsocResult& inc = unique_results[slot];
            bool same = fresh.makespan == inc.makespan &&
                        fresh.bus_busy == inc.bus_busy &&
                        fresh.inter_traffic == inc.inter_traffic &&
                        fresh.intra_traffic == inc.intra_traffic &&
                        fresh.bus_transfers == inc.bus_transfers &&
                        fresh.cpu_busy == inc.cpu_busy;
            if (!same)
                throw std::logic_error(
                    "dse verify-full: incremental metrics diverge from full "
                    "re-simulation (strategy " +
                    plan[unique_index[slot]].strategy + ")");
        });
        result.stats.verified = unique_index.size();
    }

    // 5. Assemble candidates in plan order; every clustering moves, never
    //    copies, and duplicates reuse their representative's metrics.
    result.candidates.reserve(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        Candidate c{plan[i].strategy,
                    static_cast<std::size_t>(clusterings[i].cluster_count()),
                    std::move(clusterings[i])};
        c.fingerprint = fingerprints[i];
        fill_metrics(c, unique_results[slot_of.at(fingerprints[i])]);
        result.candidates.push_back(std::move(c));
    }
    result.stats.candidates = result.candidates.size();
    result.stats.unique_clusterings = unique_index.size();
    result.stats.duplicates_skipped =
        result.candidates.size() - unique_index.size();
    result.stats.simulations = to_simulate.size();
    result.stats.cache_hits = unique_index.size() - to_simulate.size();
    result.stats.jobs = jobs;
    result.stats.chunks = num_chunks;
    for (const sim::BatchStats& s : chunk_stats)
        result.stats.prefix_tasks_reused += s.prefix_tasks_reused;
    obs::counter("dse.candidates").add(result.stats.candidates);
    obs::counter("dse.cache_hits").add(result.stats.cache_hits);
    obs::counter("dse.simulations").add(result.stats.simulations);
    obs::counter("dse.duplicates_skipped").add(result.stats.duplicates_skipped);
    obs::counter("dse.prefix_reuse").add(result.stats.prefix_tasks_reused);
    obs::counter("dse.chunks").add(result.stats.chunks);
    if (result.stats.verified)
        obs::counter("dse.verified").add(result.stats.verified);

    // 6. Pareto front over (processors ↓, makespan ↓) in one sort-based
    //    O(m log m) pass. A candidate is dominated iff some candidate with
    //    strictly fewer processors has makespan <= its own + eps, or one
    //    with the same count has makespan < its own - eps.
    constexpr double kEps = 1e-9;
    std::vector<std::size_t> order(result.candidates.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const Candidate& ca = result.candidates[a];
        const Candidate& cb = result.candidates[b];
        if (ca.processors != cb.processors) return ca.processors < cb.processors;
        if (ca.makespan != cb.makespan) return ca.makespan < cb.makespan;
        return a < b;
    });
    double best_fewer = std::numeric_limits<double>::infinity();
    for (std::size_t at = 0; at < order.size();) {
        std::size_t group_end = at;
        const std::size_t procs = result.candidates[order[at]].processors;
        double best_same = std::numeric_limits<double>::infinity();
        std::size_t representative = order.size();
        while (group_end < order.size() &&
               result.candidates[order[group_end]].processors == procs) {
            Candidate& c = result.candidates[order[group_end]];
            bool dominated = best_fewer <= c.makespan + kEps ||
                             best_same < c.makespan - kEps;
            c.pareto = !dominated;
            if (c.pareto && representative == order.size())
                representative = order[group_end];
            best_same = std::min(best_same, c.makespan);
            ++group_end;
        }
        // The front keeps one representative per processor count (ties are
        // common — several strategies can produce the same clustering): the
        // first in (makespan, index) order, matching the historical scan.
        if (representative != order.size())
            result.pareto_front.push_back(representative);
        best_fewer = std::min(best_fewer, best_same);
        at = group_end;
    }

    // 7. Recommendation: minimum makespan, ties broken toward fewer CPUs.
    result.best = 0;
    for (std::size_t i = 1; i < result.candidates.size(); ++i) {
        const Candidate& cur = result.candidates[i];
        const Candidate& best = result.candidates[result.best];
        if (cur.makespan < best.makespan - kEps ||
            (std::abs(cur.makespan - best.makespan) <= kEps &&
             cur.processors < best.processors))
            result.best = i;
    }
    return result;
}

std::optional<core::Allocation> to_allocation(const uml::Model& model,
                                              const Candidate& candidate,
                                              diag::DiagnosticEngine& engine) {
    auto threads = model.threads();
    if (threads.size() != candidate.clustering.task_count()) {
        engine.report(
            diag::Severity::Error, diag::codes::kDseMismatch,
            "candidate clustering covers " +
                std::to_string(candidate.clustering.task_count()) +
                " task(s) but model '" + model.name() + "' has " +
                std::to_string(threads.size()) + " thread(s)",
            {},
            {"candidates are only valid for the model whose exploration "
             "produced them — re-run dse::explore against this model"});
        return std::nullopt;
    }
    core::Allocation out;
    for (std::size_t p = 0; p < candidate.processors; ++p)
        out.add_processor("CPU" + std::to_string(p));
    for (std::size_t t = 0; t < threads.size(); ++t)
        out.assign(*threads[t],
                   static_cast<std::size_t>(candidate.clustering.cluster_of(t)));
    return out;
}

core::Allocation to_allocation(const uml::Model& model,
                               const Candidate& candidate) {
    diag::DiagnosticEngine engine;
    auto out = to_allocation(model, candidate, engine);
    if (!out)
        throw std::invalid_argument(engine.diagnostics().front().message);
    return *std::move(out);
}

std::optional<core::Allocation> best_allocation(const uml::Model& model,
                                                const core::CommModel& comm,
                                                diag::DiagnosticEngine& engine,
                                                const ExploreOptions& options) {
    ExploreResult result = explore(model, comm, options, &engine);
    if (result.candidates.empty()) {
        engine.report(diag::Severity::Error, diag::codes::kDseEmpty,
                      "nothing to explore: model '" + model.name() +
                          "' has no threads",
                      {},
                      {"the task graph mined from the sequence diagrams is "
                       "empty — declare <<SASchedRes>> objects first"});
        return std::nullopt;
    }
    return to_allocation(model, result.candidates[result.best], engine);
}

core::Allocation best_allocation(const uml::Model& model,
                                 const core::CommModel& comm,
                                 const ExploreOptions& options) {
    diag::DiagnosticEngine engine;
    auto out = best_allocation(model, comm, engine, options);
    if (!out) throw std::runtime_error(engine.diagnostics().front().message);
    return *std::move(out);
}

std::string format(const ExploreResult& result) {
    std::ostringstream out;
    out << "candidates=" << result.candidates.size() << "  pareto front:\n";
    for (std::size_t i : result.pareto_front) {
        const Candidate& c = result.candidates[i];
        out << "  CPUs=" << c.processors << "  makespan=" << c.makespan
            << "  inter=" << c.inter_traffic << "  util=" << c.cpu_utilization
            << "  [" << c.strategy << "]"
            << (i == result.best ? "  <= recommended" : "") << '\n';
    }
    return out.str();
}

SimCacheStats simulation_cache_stats() { return cache().stats(); }

void clear_simulation_cache() { cache().clear(); }

std::size_t trim_simulation_cache(std::size_t max_entries) {
    std::size_t dropped = cache().trim(max_entries);
    if (dropped) obs::counter("dse.cache_trimmed").add(dropped);
    return dropped;
}

}  // namespace uhcg::dse
