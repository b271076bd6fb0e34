// bench_dse — §6 future work realized: estimation-driven design-space
// exploration over partitioning/mapping solutions.
//
// Paper claim (future work): "integrate an estimation step in the proposed
// development flow to automatically determine the best partitioning and
// mapping solution ... supporting design space exploration." This bench
// prints the explored Pareto front (processors vs estimated makespan) for
// the synthetic example and shows that the §4.2.3 linear-clustering
// default sits on (or near) the front — then measures how the explorer
// scales: serial vs pool-parallel sweep (ExploreOptions::jobs), the
// clustering-dedup ratio, and the memoization cache on a repeated run.
#include <chrono>
#include <thread>

#include "bench_common.hpp"
#include "cases/cases.hpp"
#include "core/pipeline.hpp"
#include "simulink/generic.hpp"
#include "dse/explore.hpp"
#include "simulink/caam.hpp"

namespace {

using namespace uhcg;

double explore_millis(const uml::Model& model, const core::CommModel& comm,
                      const dse::ExploreOptions& options,
                      dse::ExploreResult* out = nullptr) {
    auto start = std::chrono::steady_clock::now();
    dse::ExploreResult r = dse::explore(model, comm, options);
    auto stop = std::chrono::steady_clock::now();
    if (out) *out = std::move(r);
    return std::chrono::duration<double, std::milli>(stop - start).count();
}

// CI red-gate rehearsal: `UHCG_BENCH_INJECT_MS` inflates the serial
// explore row by that many milliseconds, simulating a localized
// regression the perf gate must flag. Only one row is touched, so the
// gate's median-ratio calibration cannot absorb the spike as machine
// speed (a uniform slowdown would — see src/obs/gate.hpp).
double injected_ms() {
    const char* env = std::getenv("UHCG_BENCH_INJECT_MS");
    if (!env) return 0.0;
    char* end = nullptr;
    double parsed = std::strtod(env, &end);
    return (end != env && *end == '\0' && parsed > 0) ? parsed : 0.0;
}

void speedup_section() {
    // The synthetic CAAM sweep, scaled up: a generated layered application
    // large enough that each candidate's cost simulation is real work.
    uml::Model app = cases::random_application(9, 64, 8);
    core::CommModel comm = core::analyze_communication(app);
    dse::ExploreOptions serial;
    serial.random_samples = 8;
    serial.jobs = 1;
    dse::ExploreOptions parallel = serial;
    parallel.jobs = bench::jobs();

    // Warm up allocators/pool once, then measure each mode on a cold cache.
    dse::clear_simulation_cache();
    (void)dse::explore(app, comm, parallel);

    dse::clear_simulation_cache();
    dse::ExploreResult serial_result;
    double serial_ms = explore_millis(app, comm, serial, &serial_result);

    dse::clear_simulation_cache();
    dse::ExploreResult parallel_result;
    double parallel_ms = explore_millis(app, comm, parallel, &parallel_result);

    // Warm cache: every unique clustering is served by the memo layer.
    dse::ExploreResult cached_result;
    double cached_ms = explore_millis(app, comm, parallel, &cached_result);

    // "hardware threads" is what the machine has; "pool jobs" is what the
    // jobs=N rows actually ran with (UHCG_JOBS can pin it below — or above
    // — the hardware). The old report printed the pool size under the
    // hardware label, which read as "2 threads" on a 1-core runner.
    const std::size_t hw = std::max<std::size_t>(
        1, std::thread::hardware_concurrency());
    bench::row("hardware threads", hw);
    bench::row("pool jobs (jobs=N rows)", parallel.jobs);
    bench::row("sweep candidates", serial_result.stats.candidates);
    bench::row("unique clusterings (sweep)",
               serial_result.stats.unique_clusterings);
    bench::row("duplicates skipped (dedup)",
               serial_result.stats.duplicates_skipped);
    // Incremental-evaluation proof on the *cold* sweep: these depend only
    // on the candidate set and chunk size, never on jobs or the machine,
    // so they gate as exact determinism counters.
    bench::row("prefix tasks reused (cold sweep)",
               serial_result.stats.prefix_tasks_reused);
    bench::row("sweep chunks (cold)", serial_result.stats.chunks);
    // Stable label on the parallel row ("jobs=N", not the runtime thread
    // count) so baseline comparisons work across machines — with the old
    // interpolated label a 1-core runner emitted "explore jobs=1 (ms)"
    // twice and the report rows collided.
    bench::row("explore jobs=1 (ms)", serial_ms + injected_ms());
    bench::row("explore jobs=N (ms)", parallel_ms);
    // A serial/parallel ratio is meaningless when only one core (or one
    // job) ran the "parallel" side — flag it instead of printing a bogus
    // 0.9x. The gate skips the row either way ("speedup" substring); the
    // CI bench-smoke check asserts the numeric form on multi-core runners.
    if (parallel.jobs >= 2 && hw >= 2)
        bench::row("parallel speedup", serial_ms / parallel_ms);
    else
        bench::row("parallel speedup", std::string("n/a (single-core host)"));
    // Absolute throughput for the gate's uncalibrated budget floor: work
    // per wall-ms on the serial cold sweep (see src/obs/gate.hpp).
    bench::row("dse simulations (/ms)",
               static_cast<double>(serial_result.stats.simulations) /
                   (serial_ms + injected_ms()));
    bench::row("explore warm-cache (ms)", cached_ms);
    bench::row("warm-cache simulations", cached_result.stats.simulations);
    bench::row("warm-cache hits", cached_result.stats.cache_hits);
    bench::row("rankings identical across jobs",
               std::string(dse::format(serial_result) ==
                                   dse::format(parallel_result) &&
                               serial_result.best == parallel_result.best
                           ? "yes"
                           : "NO — determinism bug"));
}

// Backend matrix: the same cold serial sweep priced on every registered
// simulation backend (sim/backend.hpp). analytic is a bound, checked for
// ranking sanity only: the text row makes the perf gate fail red on any
// candidate whose bound exceeds the exact dynamic-fifo makespan.
void backend_section() {
    uml::Model app = cases::random_application(9, 64, 8);
    core::CommModel comm = core::analyze_communication(app);

    const char* kBackends[] = {"dynamic-fifo", "analytic"};
    dse::ExploreResult results[2];
    for (std::size_t b = 0; b < 2; ++b) {
        dse::ExploreOptions options;
        options.random_samples = 8;
        options.jobs = 1;
        options.backend = kBackends[b];
        dse::clear_simulation_cache();
        (void)dse::explore(app, comm, options);  // warm up
        dse::clear_simulation_cache();
        double ms = explore_millis(app, comm, options, &results[b]);
        std::string label(kBackends[b]);
        bench::row("explore backend=" + label + " (ms)", ms);
        bench::row("dse simulations backend=" + label + " (/ms)",
                   static_cast<double>(results[b].stats.simulations) / ms);
    }

    bool bounded = true;
    for (std::size_t i = 0; i < results[0].candidates.size(); ++i)
        bounded = bounded && results[1].candidates[i].makespan <=
                                 results[0].candidates[i].makespan;
    bench::row("analytic is a lower bound",
               std::string(bounded ? "yes" : "NO — bound violation"));
}

void print_reproduction() {
    bench::banner("DSE — automatic mapping selection (§6 future work)",
                  "sweep allocation strategies × processor budgets, estimate "
                  "on the MPSoC cost model, expose the Pareto front");
    uml::Model syn = cases::synthetic_model();
    core::CommModel comm = core::analyze_communication(syn);
    dse::ExploreResult result = dse::explore(syn, comm);
    bench::row("candidates evaluated", result.stats.candidates);
    bench::row("unique clusterings (selection)",
               result.stats.unique_clusterings);
    std::printf("%s", dse::format(result).c_str());

    // Where does the §4.2.3 default land?
    const dse::Candidate* lc = nullptr;
    for (const dse::Candidate& c : result.candidates)
        if (c.strategy == "linear") lc = &c;
    if (lc)
        bench::row("linear-clustering default",
                   "CPUs=" + std::to_string(lc->processors) + " makespan=" +
                       std::to_string(lc->makespan) +
                       (lc->pareto ? "  (on the front)" : "  (dominated)"));

    // Feed the recommendation back into the Fig. 2 flow.
    core::Allocation best = dse::best_allocation(syn, comm);
    core::MappingOutput mapped = core::run_mapping(syn, comm, best);
    simulink::Model caam = simulink::from_generic(mapped.caam);
    bench::row("recommended mapping → CAAM threads",
               simulink::caam_stats(caam).threads);

    speedup_section();
    backend_section();
}

void BM_ExploreSyntheticSerial(benchmark::State& state) {
    uml::Model syn = cases::synthetic_model();
    core::CommModel comm = core::analyze_communication(syn);
    dse::ExploreOptions options;
    options.jobs = 1;
    for (auto _ : state) {
        dse::clear_simulation_cache();
        dse::ExploreResult r = dse::explore(syn, comm, options);
        benchmark::DoNotOptimize(r.best);
    }
}
BENCHMARK(BM_ExploreSyntheticSerial);

void BM_ExploreSyntheticParallel(benchmark::State& state) {
    uml::Model syn = cases::synthetic_model();
    core::CommModel comm = core::analyze_communication(syn);
    dse::ExploreOptions options;
    options.jobs = bench::jobs();
    for (auto _ : state) {
        dse::clear_simulation_cache();
        dse::ExploreResult r = dse::explore(syn, comm, options);
        benchmark::DoNotOptimize(r.best);
    }
}
BENCHMARK(BM_ExploreSyntheticParallel);

void BM_ExploreSyntheticMemoized(benchmark::State& state) {
    uml::Model syn = cases::synthetic_model();
    core::CommModel comm = core::analyze_communication(syn);
    dse::ExploreOptions options;
    options.jobs = bench::jobs();
    dse::clear_simulation_cache();
    (void)dse::explore(syn, comm, options);  // populate the cache
    for (auto _ : state) {
        dse::ExploreResult r = dse::explore(syn, comm, options);
        benchmark::DoNotOptimize(r.best);
    }
}
BENCHMARK(BM_ExploreSyntheticMemoized);

void BM_ExploreScaling(benchmark::State& state) {
    uml::Model app =
        cases::random_application(9, static_cast<std::size_t>(state.range(0)), 5);
    core::CommModel comm = core::analyze_communication(app);
    dse::ExploreOptions options;
    options.random_samples = 1;
    options.jobs = static_cast<std::size_t>(state.range(1));
    for (auto _ : state) {
        dse::clear_simulation_cache();
        dse::ExploreResult r = dse::explore(app, comm, options);
        benchmark::DoNotOptimize(r.best);
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExploreScaling)
    ->ArgsProduct({{8, 16, 32, 64}, {1, 0}})
    ->Complexity();

}  // namespace

UHCG_BENCH_MAIN(print_reproduction)
